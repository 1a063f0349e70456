package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/zigbee"
)

// traceRun simulates topo with the observatory and trace enabled,
// advancing the clock in batchSize steps (0 = one shot), and returns the
// finished network plus the exact trace bytes.
func traceRun(t *testing.T, topo Topology, seed int64, virtualFor, batchSize time.Duration) (*Network, []byte) {
	t.Helper()
	var buf bytes.Buffer
	nw, err := New(topo, Config{Seed: seed, Registry: obs.NewRegistry(), TraceWriter: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if batchSize <= 0 {
		nw.Run(virtualFor)
	} else {
		for at := batchSize; at < virtualFor; at += batchSize {
			nw.Run(at)
		}
		nw.Run(virtualFor)
	}
	if err := nw.CloseTrace(); err != nil {
		t.Fatalf("CloseTrace: %v", err)
	}
	return nw, buf.Bytes()
}

// TestTelemetryDoesNotPerturbRun pins the observatory's core promise:
// enabling telemetry (and the trace) must not change the simulated run.
// Same seed, instrumented and uninstrumented, identical capture digests.
func TestTelemetryDoesNotPerturbRun(t *testing.T) {
	plain, nPlain := digestRun(t, Tree(2, 5), 42, 30*time.Second, 0)

	var buf bytes.Buffer
	nw, err := New(Tree(2, 5), Config{Seed: 42, Registry: obs.NewRegistry(), TraceWriter: &buf})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewDigestRecorder()
	nw.Tap(zigbee.DefaultChannel, rec.Record)
	nw.Run(30 * time.Second)
	if err := nw.CloseTrace(); err != nil {
		t.Fatal(err)
	}
	if rec.Sum() != plain || rec.Frames() != nPlain {
		t.Fatalf("instrumented run diverged: %s (%d frames) vs plain %s (%d frames)",
			rec.Sum(), rec.Frames(), plain, nPlain)
	}
}

// TestTraceByteIdentical pins the trace exporter's determinism contract:
// same seed, same flags — byte-identical trace files, however the run is
// sliced into batches.
func TestTraceByteIdentical(t *testing.T) {
	_, ref := traceRun(t, Tree(2, 5), 42, 20*time.Second, 0)
	if len(ref) == 0 {
		t.Fatal("empty trace")
	}
	for _, batch := range []time.Duration{time.Millisecond, 137 * time.Millisecond, time.Second} {
		_, got := traceRun(t, Tree(2, 5), 42, 20*time.Second, batch)
		if !bytes.Equal(ref, got) {
			t.Fatalf("trace bytes differ between one-shot and batch %v (%d vs %d bytes)",
				batch, len(ref), len(got))
		}
	}
}

// TestTraceWellFormed parses the exported trace as Chrome trace-event
// JSON and spot-checks its structure: metadata names every node track,
// every event carries a phase, and frame slices land on MAC tracks.
func TestTraceWellFormed(t *testing.T) {
	topo := Tree(2, 3)
	// A noisy 2 dB link (deep in the erasure regime) guarantees erasure
	// markers in the trace.
	var buf bytes.Buffer
	nw, err := New(topo, Config{Seed: 7, SNRdB: 2, Registry: obs.NewRegistry(), TraceWriter: &buf})
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(15 * time.Second)
	if err := nw.CloseTrace(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	stats := nw.Stats()
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	metas, slices, instants := 0, 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			metas++
		case "X":
			slices++
		case "i":
			instants++
		default:
			t.Fatalf("unexpected phase %q in event %+v", ev.Ph, ev)
		}
	}
	// process_name + two thread_name entries per node.
	if want := 1 + 2*len(topo.Nodes); metas != want {
		t.Fatalf("got %d metadata events, want %d", metas, want)
	}
	if slices == 0 {
		t.Fatal("trace has no slices")
	}
	// One marker per collided transmission, erasure and deaf miss.
	if want := stats.Collisions + stats.Erasures + stats.DeafMisses; uint64(instants) != want {
		t.Fatalf("got %d instant markers, want %d (collisions %d + erasures %d + deaf %d)",
			instants, want, stats.Collisions, stats.Erasures, stats.DeafMisses)
	}
	if instants == 0 {
		t.Fatal("trace has no instant markers (erasures expected at 2 dB)")
	}
}

// TestEnergyConservation pins the accountant's invariant: every node's
// radio-state durations sum exactly — not approximately — to the virtual
// elapsed time, across batch schedules.
func TestEnergyConservation(t *testing.T) {
	for _, batch := range []time.Duration{0, 137 * time.Millisecond} {
		nw, _ := traceRun(t, Tree(2, 5), 42, 20*time.Second, batch)
		elapsed := nw.Now()
		for _, ns := range nw.NodeStats() {
			var sum time.Duration
			for _, d := range ns.RadioTime {
				if d < 0 {
					t.Fatalf("node %d: negative %v duration", ns.ID, d)
				}
				sum += d
			}
			if sum != elapsed {
				t.Fatalf("node %d (batch %v): radio durations sum to %v, elapsed %v (off by %v)",
					ns.ID, batch, sum, elapsed, sum-elapsed)
			}
			if ns.EnergyMicrojoules <= 0 {
				t.Fatalf("node %d: energy %v µJ, want > 0", ns.ID, ns.EnergyMicrojoules)
			}
		}
	}
}

// TestEnergyProfilesDiffer guards the per-chip table: the same run costs
// different energy on different silicon, and an unknown chip errors.
func TestEnergyProfilesDiffer(t *testing.T) {
	run := func(chip string) float64 {
		nw, err := New(Tree(1, 3), Config{Seed: 42, Registry: obs.NewRegistry(), Telemetry: true, Chip: chip})
		if err != nil {
			t.Fatal(err)
		}
		nw.Run(10 * time.Second)
		return nw.Snapshot().EnergyMicrojoules
	}
	cc, nrf := run("cc2652"), run("nrf52840")
	if cc <= 0 || nrf <= 0 {
		t.Fatalf("energy totals %v / %v, want > 0", cc, nrf)
	}
	if cc <= nrf {
		t.Fatalf("cc2652 (%v µJ) should cost more than nrf52840 (%v µJ) at these draw tables", cc, nrf)
	}
	if _, err := New(Tree(1, 3), Config{Telemetry: true, Chip: "esp32"}); err == nil {
		t.Fatal("unknown chip accepted")
	}
}

// TestNodeCounterReconciliation pins the per-node ledger against Stats,
// which sums the nodes' tallies: every NodeStats family sums to its
// Stats field, the nodes' transmissions and the intruder's injections
// add up to Stats.Frames, and the link ledger's deliveries, the
// intruder's links included, equal the nodes' receptions. It runs a
// clean tree and the attacked star of TestSimCountersMatchStats with
// telemetry on, whose Stats.Collisions may exceed the node sum by the
// intruder's collided forgeries.
func TestNodeCounterReconciliation(t *testing.T) {
	tree, _ := traceRun(t, Tree(2, 5), 42, 30*time.Second, time.Second)
	for _, tc := range []struct {
		name string
		nw   *Network
	}{
		{"tree", tree},
		{"attacked-star", attackedStar(t)},
	} {
		s := tc.nw.Stats()
		nodes, links := tc.nw.NodeStats(), tc.nw.LinkStats()
		if err := checkNodeSums(nodes, links, s); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		var tx, intruderDelivered uint64
		for _, ns := range nodes {
			tx += ns.Tx
		}
		for _, l := range links {
			if l.Tx == IntruderSrc {
				intruderDelivered += l.Delivered
			}
		}
		if tx == 0 || s.Backoffs == 0 || s.Joins == 0 {
			t.Fatalf("%s: degenerate run, no traffic to reconcile", tc.name)
		}
		if intruderDelivered != s.InjectedDelivered {
			t.Errorf("%s: the intruder's links delivered %d frames, Stats says %d", tc.name, intruderDelivered, s.InjectedDelivered)
		}
	}
}

// attackedStar runs the attacked star of TestSimCountersMatchStats with
// telemetry on: spoofed readings at the coordinator, a forged remote AT
// retune of one device and one forgery on a channel nobody listens to.
func attackedStar(t *testing.T) *Network {
	t.Helper()
	nw, err := New(Star(4), Config{Seed: 3, Registry: obs.NewRegistry(), Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	intr, err := nw.NewIntruder(zigbee.DefaultChannel)
	if err != nil {
		t.Fatal(err)
	}
	offChannel, err := nw.NewIntruder(zigbee.DefaultChannel + 1)
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(10 * time.Second)
	coord, victim := nw.Node(0), nw.Node(2)
	for i := 0; i < 3; i++ {
		frame := ieee802154.NewDataFrame(uint8(i), coord.PAN, coord.Short, 0x7777, []byte{0x77, 0, byte(i), 0}, true)
		if err := intr.Transmit(0, frame, true); err != nil {
			t.Fatal(err)
		}
		nw.Run(10*time.Second + time.Duration(i+1)*100*time.Millisecond)
	}
	retune := ieee802154.NewDataFrame(9, victim.PAN, victim.Short, coord.Short,
		[]byte{zigbee.FrameRemoteAT, 9, 'C', 'H', 26}, true)
	if err := intr.Transmit(2, retune, true); err != nil {
		t.Fatal(err)
	}
	nw.Run(12 * time.Second)
	unheard := ieee802154.NewDataFrame(7, coord.PAN, coord.Short, 0x7777, []byte{0x77, 0, 7, 0}, false)
	if err := offChannel.Transmit(0, unheard, false); err != nil {
		t.Fatal(err)
	}
	for at := 13 * time.Second; at <= 20*time.Second; at += time.Second {
		nw.Run(at)
	}
	if s := nw.Stats(); s.Injected != 5 || s.InjectedDelivered != 4 || s.ChannelMigrations != 1 {
		t.Fatalf("attack did not land: injected %d, delivered %d, migrations %d",
			s.Injected, s.InjectedDelivered, s.ChannelMigrations)
	}
	return nw
}

// TestJoinLatencyTracking checks the association telemetry: joined nodes
// carry a non-negative first-join latency within the run, coordinators
// join at zero, and unjoined nodes stay at -1.
func TestJoinLatencyTracking(t *testing.T) {
	nw, _ := traceRun(t, Tree(2, 5), 42, 30*time.Second, 0)
	for _, ns := range nw.NodeStats() {
		switch {
		case ns.Role == RoleCoordinator.String():
			if ns.JoinLatency != 0 {
				t.Fatalf("coordinator join latency %v, want 0", ns.JoinLatency)
			}
		case ns.Joined:
			if ns.JoinLatency <= 0 || ns.JoinLatency > nw.Now() {
				t.Fatalf("node %d: join latency %v outside (0, %v]", ns.ID, ns.JoinLatency, nw.Now())
			}
			if ns.Joins == 0 {
				t.Fatalf("node %d joined with zero join count", ns.ID)
			}
		default:
			if ns.JoinLatency != -1 {
				t.Fatalf("unjoined node %d: join latency %v, want -1", ns.ID, ns.JoinLatency)
			}
		}
	}
}

// TestPerNodeRegistryFamilies checks the registry surface: the
// wazabee_simnode_* and wazabee_simlink_* families carry the same totals
// the snapshot reports, and the heap gauges are published.
func TestPerNodeRegistryFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	nw, err := New(Tree(1, 4), Config{Seed: 42, Registry: reg, TraceWriter: &buf})
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(20 * time.Second)
	if err := nw.CloseTrace(); err != nil {
		t.Fatal(err)
	}

	rr := httptest.NewRecorder()
	reg.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	text := rr.Body.String()
	for _, want := range []string{
		`wazabee_simnode_tx_frames_total{node="0"}`,
		`wazabee_simnode_backoffs_total{node="1"}`,
		`wazabee_sim_energy_microjoules{node="0"}`,
		`wazabee_sim_radio_seconds{state="tx"}`,
		`wazabee_simlink_delivered_total{`,
		`wazabee_sim_heap_max_depth{driver="virtual"}`,
		`wazabee_sim_heap_executed{driver="virtual"}`,
		`wazabee_sim_join_latency_seconds_bucket`,
		`wazabee_sim_retries_total`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestDebugHandler drives the /debug/sim endpoint: full JSON snapshot,
// a single node's row, top-K selection and the text rendering.
func TestDebugHandler(t *testing.T) {
	var buf bytes.Buffer
	nw, err := New(Tree(1, 4), Config{Seed: 42, Registry: obs.NewRegistry(), TraceWriter: &buf})
	if err != nil {
		t.Fatal(err)
	}
	h := nw.DebugHandler()
	nw.Run(20 * time.Second)

	get := func(target string) *httptest.ResponseRecorder {
		t.Helper()
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", target, nil))
		return rr
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/debug/sim").Body.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot JSON: %v", err)
	}
	if snap.VirtualTime != 20*time.Second || len(snap.Nodes) != 5 || snap.EnergyMicrojoules <= 0 {
		t.Fatalf("bad snapshot: t=%v nodes=%d energy=%v", snap.VirtualTime, len(snap.Nodes), snap.EnergyMicrojoules)
	}
	if len(snap.Links) == 0 {
		t.Fatal("snapshot has no links")
	}

	var one NodeStats
	if err := json.Unmarshal(get("/debug/sim?node=2").Body.Bytes(), &one); err != nil {
		t.Fatalf("node JSON: %v", err)
	}
	if one.ID != 2 {
		t.Fatalf("asked for node 2, got %d", one.ID)
	}
	if rr := get("/debug/sim?node=99"); rr.Code != 400 {
		t.Fatalf("out-of-range node: code %d, want 400", rr.Code)
	}

	var top Snapshot
	if err := json.Unmarshal(get("/debug/sim?top=2&sort=tx").Body.Bytes(), &top); err != nil {
		t.Fatalf("top JSON: %v", err)
	}
	if len(top.Nodes) != 2 || top.Nodes[0].Tx < top.Nodes[1].Tx {
		t.Fatalf("top-2 by tx wrong: %+v", top.Nodes)
	}

	if body := get("/debug/sim?format=text").Body.String(); !strings.Contains(body, "sim observatory") {
		t.Fatalf("text rendering missing header: %q", body)
	}
}

// TestDebugHandlerWithoutTelemetry checks the degraded mode: with the
// observatory off, /debug/sim still serves the global stats.
func TestDebugHandlerWithoutTelemetry(t *testing.T) {
	nw, err := New(Tree(1, 3), Config{Seed: 42, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	h := nw.DebugHandler()
	nw.Run(10 * time.Second)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/sim", nil))
	var snap Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Stats.Frames == 0 || len(snap.Nodes) != 0 {
		t.Fatalf("expected stats-only snapshot, got %+v", snap)
	}
}

// TestTraceAcceptanceScale is the ISSUE 8 acceptance check at full
// scale: the 1,111-node topology exports a trace whose sha256 is
// identical across two same-seed runs, with conservation holding.
func TestTraceAcceptanceScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale trace run")
	}
	topo := Tree(3, 10)
	run := func() (string, *Network) {
		h := sha256.New()
		nw, err := New(topo, Config{Seed: 42, Registry: obs.NewRegistry(), TraceWriter: h})
		if err != nil {
			t.Fatal(err)
		}
		nw.Run(60 * time.Second)
		if err := nw.CloseTrace(); err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(h.Sum(nil)), nw
	}
	d1, nw := run()
	d2, _ := run()
	if d1 != d2 {
		t.Fatalf("same-seed 1k-node trace digests differ: %s vs %s", d1, d2)
	}
	elapsed := nw.Now()
	for _, ns := range nw.NodeStats() {
		var sum time.Duration
		for _, d := range ns.RadioTime {
			sum += d
		}
		if sum != elapsed {
			t.Fatalf("node %d: conservation violated at scale: %v != %v", ns.ID, sum, elapsed)
		}
	}
}

// TestSimCountersMatchStats checks every wazabee_sim_* counter against
// the Stats field it mirrors, on a star under attack so that the
// intruder series are nonzero and distinct: spoofed readings at the
// coordinator, one forgery on a channel nobody listens to (offered,
// never delivered) and a forged remote AT retune of one device.
func TestSimCountersMatchStats(t *testing.T) {
	reg := obs.NewRegistry()
	nw, err := New(Star(4), Config{Seed: 3, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	intr, err := nw.NewIntruder(zigbee.DefaultChannel)
	if err != nil {
		t.Fatal(err)
	}
	offChannel, err := nw.NewIntruder(zigbee.DefaultChannel + 1)
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(10 * time.Second)
	coord, victim := nw.Node(0), nw.Node(2)
	for i := 0; i < 3; i++ {
		frame := ieee802154.NewDataFrame(uint8(i), coord.PAN, coord.Short, 0x7777, []byte{0x77, 0, byte(i), 0}, true)
		if err := intr.Transmit(0, frame, true); err != nil {
			t.Fatal(err)
		}
		nw.Run(10*time.Second + time.Duration(i+1)*100*time.Millisecond)
	}
	retune := ieee802154.NewDataFrame(9, victim.PAN, victim.Short, coord.Short,
		[]byte{zigbee.FrameRemoteAT, 9, 'C', 'H', 26}, true)
	if err := intr.Transmit(2, retune, true); err != nil {
		t.Fatal(err)
	}
	nw.Run(12 * time.Second)
	unheard := ieee802154.NewDataFrame(7, coord.PAN, coord.Short, 0x7777, []byte{0x77, 0, 7, 0}, false)
	if err := offChannel.Transmit(0, unheard, false); err != nil {
		t.Fatal(err)
	}
	for at := 13 * time.Second; at <= 20*time.Second; at += time.Second {
		nw.Run(at)
	}

	s := nw.Stats()
	if s.Injected != 5 || s.InjectedDelivered != 4 || s.ChannelMigrations != 1 {
		t.Fatalf("attack did not land: injected %d, delivered %d, migrations %d",
			s.Injected, s.InjectedDelivered, s.ChannelMigrations)
	}
	want := map[string]uint64{
		`wazabee_sim_frames_total{kind="beacon"}`:        s.Beacons,
		`wazabee_sim_frames_total{kind="data"}`:          s.DataFrames,
		`wazabee_sim_frames_total{kind="ack"}`:           s.Acks,
		`wazabee_sim_collisions_total`:                   s.Collisions,
		`wazabee_sim_backoffs_total`:                     s.Backoffs,
		`wazabee_sim_cca_failures_total`:                 s.CCAFailures,
		`wazabee_sim_retries_total`:                      s.Retries,
		`wazabee_sim_ack_failures_total`:                 s.AckFailures,
		`wazabee_sim_erasures_total`:                     s.Erasures,
		`wazabee_sim_deaf_misses_total`:                  s.DeafMisses,
		`wazabee_sim_joins_total`:                        s.Joins,
		`wazabee_sim_pan_conflicts_total`:                s.PANConflicts,
		`wazabee_sim_injected_total{result="offered"}`:   s.Injected,
		`wazabee_sim_injected_total{result="delivered"}`: s.InjectedDelivered,
		`wazabee_sim_channel_migrations_total`:           s.ChannelMigrations,
		`wazabee_sim_events_total`:                       s.Events,
	}
	commandKinds := map[string]bool{"beacon_request": true, "assoc_request": true, "assoc_response": true}
	var frames, commands uint64
	seen := 0
	for _, series := range reg.Snapshot() {
		if series.Kind != "counter" || !strings.HasPrefix(series.Name, "wazabee_sim_") {
			continue
		}
		key := series.Name
		for k, v := range series.Labels {
			key += fmt.Sprintf("{%s=%q}", k, v)
		}
		got := uint64(series.Value)
		if series.Name == "wazabee_sim_frames_total" {
			frames += got
			if commandKinds[series.Labels["kind"]] {
				commands += got
				continue
			}
		}
		v, ok := want[key]
		if !ok {
			t.Errorf("counter %s has no Stats field in this test", key)
			continue
		}
		seen++
		if got != v {
			t.Errorf("%s = %d, Stats says %d", key, got, v)
		}
	}
	if seen != len(want) {
		t.Errorf("registry holds %d of the %d expected counter series", seen, len(want))
	}
	if frames != s.Frames || commands != s.Commands {
		t.Errorf("wazabee_sim_frames_total sums to %d (commands %d), Stats says %d (%d)", frames, commands, s.Frames, s.Commands)
	}
	if got := reg.Gauge("wazabee_sim_nodes", "state", "joined").Value(); got != float64(s.Joined) {
		t.Errorf(`wazabee_sim_nodes{state="joined"} = %v, Stats says %d`, got, s.Joined)
	}
}
