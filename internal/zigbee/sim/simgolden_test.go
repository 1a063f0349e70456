package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/radio"
	"wazabee/internal/zigbee"
)

// The golden tests pin the mesh loop's observable output as literals:
// capture digests, every Stats counter (event count and heap high-water
// mark included), the Chrome trace, per-node energy totals and the
// registry's Prometheus text. The TestSimDeterministic* tests only
// compare two runs of the same code; these catch a change that alters
// the simulation consistently. A change that is meant to be exact (the
// scheduler, the MAC dispatch, the delivery tiers, the FCS) must keep
// every value here; one that changes the simulation on purpose must
// re-pin them and say why.

// goldenDigest runs nw to virtualFor with a digest recorder tapped onto
// every channel of topo and returns the digest and final stats.
func goldenDigest(t *testing.T, nw *Network, topo Topology, virtualFor time.Duration) (string, Stats) {
	t.Helper()
	rec := NewDigestRecorder()
	tapped := map[int]bool{}
	for _, n := range topo.Nodes {
		if !tapped[n.Channel] {
			tapped[n.Channel] = true
			nw.Tap(n.Channel, rec.Record)
		}
	}
	for at := time.Second; at < virtualFor; at += time.Second {
		nw.Run(at)
	}
	nw.Run(virtualFor)
	return rec.Sum(), nw.Stats()
}

// checkGolden compares a run against its pinned digest and stats,
// printing the values it got as Go literals so a deliberate re-pin is a
// paste.
func checkGolden(t *testing.T, digest string, stats Stats, wantDigest string, wantStats Stats) {
	t.Helper()
	if digest != wantDigest {
		t.Errorf("capture digest = %q, want %q", digest, wantDigest)
	}
	if stats != wantStats {
		t.Errorf("stats = %s\nwant    %s", statsLiteral(stats), statsLiteral(wantStats))
	}
}

// statsLiteral renders s as a Go composite literal with decimal values.
func statsLiteral(s Stats) string {
	v := reflect.ValueOf(s)
	var b strings.Builder
	b.WriteString("Stats{")
	for i := 0; i < v.NumField(); i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %d", v.Type().Field(i).Name, v.Field(i).Interface())
	}
	b.WriteString("}")
	return b.String()
}

func TestSimGoldenDigests(t *testing.T) {
	panConflict := Topology{Nodes: []NodeSpec{
		{Role: RoleCoordinator, Parent: -1, Channel: 14, PAN: 0x1234},
		{Role: RoleCoordinator, Parent: -1, Channel: 14, PAN: 0x1234},
		{Role: RoleEndDevice, Parent: 0, Channel: 14, PAN: 0x1234},
		{Role: RoleEndDevice, Parent: 1, Channel: 14, PAN: 0x1234},
	}}
	cases := []struct {
		name    string
		topo    Topology
		cfg     Config
		virtual time.Duration
		digest  string
		stats   Stats
	}{
		{
			// The mesh-tree benchmark workload: its digest is the value
			// perfbench pins at seed 42.
			name: "tree-3-10", topo: Tree(3, 10), cfg: Config{Seed: 42}, virtual: 60 * time.Second,
			digest: "1a9efffa4c3589d90453e0882ee4c71df39e03699707cbc377e38da2ca297bc4",
			stats: Stats{Nodes: 1111, Joined: 1100, Frames: 207842, Beacons: 4056, DataFrames: 122115, Acks: 75392, Commands: 6279,
				Collisions: 49211, Backoffs: 258253, CCAFailures: 8045, Retries: 43551, AckFailures: 5557, Erasures: 0, DeafMisses: 979,
				Readings: 13336, Forwarded: 59828, PANConflicts: 0, Joins: 1099, Injected: 0, InjectedDelivered: 0, ChannelMigrations: 0,
				Events: 843327, VirtualTime: 60000000000, HeapDepth: 1627},
		},
		{
			// Three PANs on three channels.
			name: "random-1200", topo: Random(1200, 7), cfg: Config{Seed: 7}, virtual: 30 * time.Second,
			digest: "f60c45e75a606fda0b12f17ecf1690995c78fe7b3b5b1ee442dc0a1ef4547d3b",
			stats: Stats{Nodes: 1200, Joined: 1200, Frames: 145728, Beacons: 5160, DataFrames: 69521, Acks: 63810, Commands: 7237,
				Collisions: 8702, Backoffs: 109512, CCAFailures: 215, Retries: 8386, AckFailures: 222, Erasures: 0, DeafMisses: 976,
				Readings: 15948, Forwarded: 45430, PANConflicts: 0, Joins: 1197, Injected: 0, InjectedDelivered: 0, ChannelMigrations: 0,
				Events: 504983, VirtualTime: 30000000000, HeapDepth: 1620},
		},
		{
			name: "pan-conflict", topo: panConflict, cfg: Config{Seed: 7}, virtual: 30 * time.Second,
			digest: "05abe2bb4202220c00fc12d19f9b31e1a17a52611f575b4b9dfc484bfb9949c8",
			stats: Stats{Nodes: 4, Joined: 4, Frames: 100, Beacons: 32, DataFrames: 29, Acks: 33, Commands: 6,
				Collisions: 0, Backoffs: 67, CCAFailures: 0, Retries: 0, AckFailures: 0, Erasures: 0, DeafMisses: 0,
				Readings: 29, Forwarded: 0, PANConflicts: 1, Joins: 2, Injected: 0, InjectedDelivered: 0, ChannelMigrations: 0,
				Events: 367, VirtualTime: 30000000000, HeapDepth: 7},
		},
		{
			name: "lossy-star", topo: Star(5), cfg: Config{Seed: 9, SNRdB: 2}, virtual: 60 * time.Second,
			digest: "b51d2cb37844ba410d227fb94fb14f5a08c7ab00415a4ab401c78d46a6d28f1b",
			stats: Stats{Nodes: 6, Joined: 6, Frames: 587, Beacons: 35, DataFrames: 300, Acks: 215, Commands: 37,
				Collisions: 14, Backoffs: 396, CCAFailures: 0, Retries: 172, AckFailures: 13, Erasures: 232, DeafMisses: 0,
				Readings: 198, Forwarded: 0, PANConflicts: 0, Joins: 5, Injected: 0, InjectedDelivered: 0, ChannelMigrations: 0,
				Events: 2101, VirtualTime: 60000000000, HeapDepth: 12},
		},
		{
			name: "symbol-tree-2-5", topo: Tree(2, 5), cfg: Config{Seed: 42, Fidelity: radio.FidelitySymbol}, virtual: 30 * time.Second,
			digest: "7a0f60fd2ac94234e122829790b9c1f5b37f3afd85a2d7c679a49c31d5125453",
			stats: Stats{Nodes: 31, Joined: 31, Frames: 1860, Beacons: 116, DataFrames: 774, Acks: 833, Commands: 137,
				Collisions: 1, Backoffs: 1133, CCAFailures: 0, Retries: 1, AckFailures: 0, Erasures: 0, DeafMisses: 0,
				Readings: 422, Forwarded: 351, PANConflicts: 0, Joins: 30, Injected: 0, InjectedDelivered: 0, ChannelMigrations: 0,
				Events: 6411, VirtualTime: 30000000000, HeapDepth: 50},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Registry = obs.NewRegistry()
			cfg.Flight = obs.NewFlight(16)
			nw, err := New(tc.topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			digest, stats := goldenDigest(t, nw, tc.topo, tc.virtual)
			checkGolden(t, digest, stats, tc.digest, tc.stats)
		})
	}
}

// TestSimGoldenIntruder pins a star under attack: an intruder driven by
// Scheduler.At/After callbacks injects forged data frames (some asking
// for an acknowledgement) and beacons, then forges a remote AT channel
// change — the intruder's transmit-end path interleaved with the MAC's
// own events.
func TestSimGoldenIntruder(t *testing.T) {
	topo := Star(4)
	nw, err := New(topo, Config{Seed: 3, Registry: obs.NewRegistry(), Flight: obs.NewFlight(16)})
	if err != nil {
		t.Fatal(err)
	}
	intr, err := nw.NewIntruder(zigbee.DefaultChannel)
	if err != nil {
		t.Fatal(err)
	}
	sched := nw.Scheduler()
	var seq uint8
	var fire func()
	fire = func() {
		seq++
		coord := nw.Node(0)
		to := 1 + int(seq)%4
		var frame *ieee802154.MACFrame
		needAck := false
		switch seq % 3 {
		case 0:
			frame = ieee802154.NewDataFrame(seq, coord.PAN, coord.Short, 0x7777, []byte{0x77, 0, seq, 0}, true)
			needAck = true
			to = 0
		case 1:
			frame = ieee802154.NewBeacon(seq, coord.PAN, 0x0000)
		default:
			dev := nw.Node(to)
			frame = ieee802154.NewDataFrame(seq, coord.PAN, dev.Short, coord.Short, []byte{0x77, 1, seq, 0}, true)
			needAck = true
		}
		if err := intr.Transmit(to, frame, needAck); err != nil {
			t.Error(err)
			return
		}
		sched.After(150*time.Millisecond+time.Duration(intr.Rand().Int63n(int64(100*time.Millisecond))), fire)
	}
	sched.At(5*time.Second, fire)
	sched.At(15*time.Second, func() {
		dev := nw.Node(4)
		coord := nw.Node(0)
		frame := ieee802154.NewDataFrame(0xAA, coord.PAN, dev.Short, coord.Short,
			[]byte{zigbee.FrameRemoteAT, 0x01, 'C', 'H', 20}, true)
		if err := intr.Transmit(4, frame, true); err != nil {
			t.Error(err)
		}
	})
	digest, stats := goldenDigest(t, nw, topo, 20*time.Second)
	if stats.Injected == 0 || stats.InjectedDelivered == 0 {
		t.Fatalf("intruder injected %d, delivered %d; the golden run must exercise delivery",
			stats.Injected, stats.InjectedDelivered)
	}
	checkGolden(t, digest, stats, "a1d48042769ac22e660002c94d35ac5a4aca3fad6c68afde4cd5ff37a4bbce64",
		Stats{Nodes: 5, Joined: 4, Frames: 278, Beacons: 39, DataFrames: 110, Acks: 117, Commands: 12,
			Collisions: 0, Backoffs: 94, CCAFailures: 0, Retries: 0, AckFailures: 0, Erasures: 0, DeafMisses: 0,
			Readings: 83, Forwarded: 23, PANConflicts: 0, Joins: 4, Injected: 76, InjectedDelivered: 76, ChannelMigrations: 1,
			Events: 779, VirtualTime: 20000000000, HeapDepth: 12})
}

// TestSimGoldenTelemetry pins the observatory's outputs on a noisy tree:
// the SHA-256 of the streamed Chrome trace, every node's energy total
// and the registry's Prometheus text with the wall-time stage histogram
// removed.
func TestSimGoldenTelemetry(t *testing.T) {
	var trace bytes.Buffer
	reg := obs.NewRegistry()
	nw, err := New(Tree(2, 4), Config{Seed: 42, SNRdB: 5, Registry: reg, Flight: obs.NewFlight(16), TraceWriter: &trace})
	if err != nil {
		t.Fatal(err)
	}
	digest, stats := goldenDigest(t, nw, Tree(2, 4), 20*time.Second)
	if err := nw.CloseTrace(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, digest, stats, "e1df7e8c3a2ad1e6ce44083930abc36778b5550e6a3e92b8f9527d1864ecfc0a",
		Stats{Nodes: 21, Joined: 21, Frames: 951, Beacons: 68, DataFrames: 387, Acks: 405, Commands: 91,
			Collisions: 3, Backoffs: 591, CCAFailures: 0, Retries: 56, AckFailures: 0, Erasures: 79, DeafMisses: 0,
			Readings: 205, Forwarded: 156, PANConflicts: 0, Joins: 20, Injected: 0, InjectedDelivered: 0, ChannelMigrations: 0,
			Events: 3286, VirtualTime: 20000000000, HeapDepth: 37})

	traceSum := sha256.Sum256(trace.Bytes())
	if got, want := hex.EncodeToString(traceSum[:]), "5e572383e5cedf094c99ddb74a77205faada914c2d85082c2f595ad4c0e2d822"; got != want {
		t.Errorf("trace sha256 = %q, want %q", got, want)
	}

	// Per-node energy in µJ; %v prints the shortest decimal that
	// round-trips, so these literals are the exact float64 values.
	wantEnergy := []float64{413617.9392, 413827.2192, 413818.5792, 413819.5200000001, 413824.95360000007,
		413982.20160000003, 413983.5264000001, 413983.52640000003, 413982.2016, 413976.51840000006,
		413979.16800000006, 413982.2016, 413975.19360000006, 413982.20160000003, 413975.0016000001,
		413978.9760000001, 413977.84320000006, 413977.0752000001, 413975.0016000001, 413972.71680000005,
		413978.9760000001}
	var energy []float64
	for _, ns := range nw.NodeStats() {
		energy = append(energy, ns.EnergyMicrojoules)
	}
	if !reflect.DeepEqual(energy, wantEnergy) {
		t.Errorf("energy = %#v\nwant     %#v", energy, wantEnergy)
	}

	var prom strings.Builder
	for _, line := range strings.SplitAfter(reg.PrometheusText(), "\n") {
		if !strings.Contains(line, obs.StageSecondsMetric) {
			prom.WriteString(line)
		}
	}
	promSum := sha256.Sum256([]byte(prom.String()))
	if got, want := hex.EncodeToString(promSum[:]), "eac4b0706c2aeca7a5ff63b90e97b61e1a95e388f6b0f8fcd20976034ec9cea0"; got != want {
		t.Errorf("Prometheus text sha256 = %q, want %q; text:\n%s", got, want, prom.String())
	}
}
