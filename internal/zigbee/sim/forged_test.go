package sim

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"wazabee/internal/bitstream"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/zigbee"
)

// A forged-frame fuzz input is a sequence of records, each
//
//	delay   uint16, big-endian, in units of 100 µs after the previous record
//	target  uint8, a node index reduced modulo the mesh's node count
//	flags   uint8, bit 0: the intruder asks for an acknowledgement
//	length  uint8
//	frame   length bytes: the PSDU without its FCS
//
// The decoder appends the FCS, so a mutated header or payload is judged
// by ieee802154.ParseMACFrame on its fields rather than lost to a
// checksum mismatch; records whose PSDU ParseMACFrame rejects are
// skipped.
const (
	forgedHeader    = 5
	forgedDelayUnit = 100 * time.Microsecond
	// forgedMaxRecords and forgedMaxSpan bound one input's run.
	forgedMaxRecords = 64
	forgedMaxSpan    = 20 * time.Second
	// forgedWarmup is when the first record's delay starts counting:
	// both meshes are joined by then at forgedSeed. forgedSettle is how
	// long the run continues after the last forgery.
	forgedWarmup = 6 * time.Second
	forgedSettle = 3 * time.Second
	forgedSeed   = 11
)

// forgery is one record.
type forgery struct {
	delay  time.Duration // after the previous record, or the warm-up
	target int
	ack    bool
	frame  *ieee802154.MACFrame
}

// decodeForgeries splits a fuzz input into records. A skipped record's
// delay still counts towards the next one's.
func decodeForgeries(data []byte) []forgery {
	var out []forgery
	var delay, span time.Duration
	for len(data) >= forgedHeader && len(out) < forgedMaxRecords {
		d := time.Duration(binary.BigEndian.Uint16(data)) * forgedDelayUnit
		delay += d
		span += d
		target, flags, n := int(data[2]), data[3], int(data[4])
		data = data[forgedHeader:]
		if n > len(data) {
			n = len(data)
		}
		body := data[:n]
		data = data[n:]
		if span > forgedMaxSpan {
			break
		}
		fcs := bitstream.FCS16Bytes(bitstream.FCS16(body))
		frame, err := ieee802154.ParseMACFrame(append(append([]byte(nil), body...), fcs[0], fcs[1]))
		if err != nil {
			continue
		}
		out = append(out, forgery{delay: delay, target: target, ack: flags&1 != 0, frame: frame})
		delay = 0
	}
	return out
}

// encodeForgeries is decodeForgeries' inverse, for the seed corpus.
func encodeForgeries(recs ...forgery) []byte {
	var out []byte
	for _, r := range recs {
		psdu, err := r.frame.Encode()
		if err != nil {
			panic(err)
		}
		body := psdu[:len(psdu)-2]
		var flags byte
		if r.ack {
			flags = 1
		}
		out = binary.BigEndian.AppendUint16(out, uint16(r.delay/forgedDelayUnit))
		out = append(out, byte(r.target), flags, byte(len(body)))
		out = append(out, body...)
	}
	return out
}

// forgedSeeds is the seed corpus: the frames of the campaign's attack
// plans, acknowledgements that guess a pending sequence number, and a
// forged association response sent to a node a forged retune detached.
func forgedSeeds() [][]byte {
	pan := uint16(zigbee.DefaultPAN)
	reading := func(v uint16) []byte { return AppendReading(nil, v, 0) }
	retune := func(frameID byte) []byte {
		return []byte{zigbee.FrameRemoteAT, frameID, 'C', 'H', 26}
	}
	repeat := func(n int, every time.Duration, rec func(i int) forgery) []byte {
		var recs []forgery
		for i := 0; i < n; i++ {
			r := rec(i)
			r.delay = every
			recs = append(recs, r)
		}
		return encodeForgeries(recs...)
	}
	var seeds [][]byte
	// Scenario A: spoofed readings at the coordinator.
	seeds = append(seeds, repeat(8, 500*time.Millisecond, func(i int) forgery {
		return forgery{target: 0, ack: true,
			frame: ieee802154.NewDataFrame(uint8(i+1), pan, 0x0000, 0x0001, reading(uint16(0x0100+i)), true)}
	}))
	// Scenario B: forged remote AT retunes of every device.
	seeds = append(seeds, repeat(8, 250*time.Millisecond, func(i int) forgery {
		return forgery{target: 1 + i%4, ack: true,
			frame: ieee802154.NewDataFrame(uint8(i+1), pan, uint16(1+i%4), 0x0000, retune(byte(i+1)), true)}
	}))
	// Association flood at the coordinator.
	seeds = append(seeds, repeat(12, 150*time.Millisecond, func(i int) forgery {
		return forgery{target: 0, ack: true,
			frame: ieee802154.NewAssociationRequest(uint8(i+1), pan, 0x0000, 0x8e)}
	}))
	// Energy depletion: secured-looking garbage a device must
	// acknowledge.
	seeds = append(seeds, repeat(16, 60*time.Millisecond, func(i int) forgery {
		f := ieee802154.NewDataFrame(uint8(i+1), pan, 0x0001, 0x0000,
			[]byte{0x05, byte(i), 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, byte(i)}, true)
		f.Security = true
		return forgery{target: 1, ack: true, frame: f}
	}))
	// Sleep deprivation: reading-shaped polls round-robin.
	seeds = append(seeds, repeat(12, 120*time.Millisecond, func(i int) forgery {
		return forgery{target: 1 + i%4, ack: true,
			frame: ieee802154.NewDataFrame(uint8(i+1), pan, uint16(1+i%4), 0x0000, reading(uint16(i+1)), true)}
	}))
	// Replay: one device's reading replayed verbatim, beacons beside it.
	seeds = append(seeds, encodeForgeries(
		forgery{delay: 500 * time.Millisecond, target: 0, ack: true,
			frame: ieee802154.NewDataFrame(7, pan, 0x0000, 0x0002, reading(7), true)},
		forgery{delay: 500 * time.Millisecond, target: 0, ack: true,
			frame: ieee802154.NewDataFrame(7, pan, 0x0000, 0x0002, reading(7), true)},
		forgery{delay: 100 * time.Millisecond, target: 2,
			frame: ieee802154.NewBeacon(3, pan, 0x0000)},
		forgery{delay: 100 * time.Millisecond, target: 3,
			frame: ieee802154.NewBeaconRequest(4)},
	))
	// Acknowledgements guessing a pending sequence number: a forged
	// association request makes the coordinator answer the intruder and
	// wait for an acknowledgement that only a forgery can bring.
	acks := []forgery{{delay: 0, target: 0, ack: true,
		frame: ieee802154.NewAssociationRequest(1, pan, 0x0000, 0x88)}}
	for i := 0; i < 24; i++ {
		acks = append(acks, forgery{delay: 500 * time.Microsecond, target: i % 5,
			frame: ieee802154.NewAck(uint8(i))})
	}
	seeds = append(seeds, encodeForgeries(acks...))
	// A forged association response to a device a forged retune
	// detached, which the device must acknowledge and ignore.
	seeds = append(seeds, encodeForgeries(
		forgery{delay: 0, target: 2, ack: true,
			frame: ieee802154.NewDataFrame(9, pan, 0x0002, 0x0000, retune(9), true)},
		forgery{delay: 200 * time.Millisecond, target: 2, ack: true,
			frame: ieee802154.NewAssociationResponse(10, pan, ieee802154.NoShortAddress, 0x0042, ieee802154.AssocStatusSuccess)},
	))
	return seeds
}

// FuzzMeshForgedFrames sends forged MAC frames through an Intruder into
// a joined Star(4) and a joined Tree(2,3), both with telemetry and a
// registry, and after every 1 s batch checks that the recycled records
// are released once and only when nothing uses them, that every node's
// radio time adds up, and that the registry, the node tallies and
// Stats agree. Each input runs twice with telemetry and once without,
// and all three must give the same capture digest and Stats.
func FuzzMeshForgedFrames(f *testing.F) {
	for _, seed := range forgedSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		forged := decodeForgeries(data)
		for _, topo := range []Topology{Star(4), Tree(2, 3)} {
			digest, stats := runForged(t, topo, forged, true)
			for _, telemetry := range []bool{true, false} {
				d, s := runForged(t, topo, forged, telemetry)
				if d != digest || s != stats {
					t.Fatalf("%d nodes, telemetry %v: a second run gave digest %s and %s, the first %s and %s",
						len(topo.Nodes), telemetry, d, statsLiteral(s), digest, statsLiteral(stats))
				}
			}
		}
	})
}

// runForged runs one topology under the forgeries and returns the
// capture digest and the final Stats.
func runForged(t *testing.T, topo Topology, forged []forgery, telemetry bool) (string, Stats) {
	t.Helper()
	reg := obs.NewRegistry()
	nw, err := New(topo, Config{Seed: forgedSeed, Registry: reg, Telemetry: telemetry})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewDigestRecorder()
	nw.Tap(zigbee.DefaultChannel, rec.Record)
	intr, err := nw.NewIntruder(zigbee.DefaultChannel)
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(forgedWarmup)
	if s := nw.Stats(); s.Joined != s.Nodes {
		t.Fatalf("%d of %d nodes joined after the warm-up", s.Joined, s.Nodes)
	}
	at := forgedWarmup
	for _, fg := range forged {
		at += fg.delay
		nw.Scheduler().At(at, func() {
			if err := intr.Transmit(fg.target%len(topo.Nodes), fg.frame, fg.ack); err != nil {
				t.Errorf("forgery to %d: %v", fg.target, err)
			}
		})
	}
	end := at + forgedSettle
	for at := forgedWarmup + time.Second; ; at += time.Second {
		if at > end {
			at = end
		}
		nw.Run(at)
		checkMeshInvariants(t, nw, reg)
		if at == end {
			break
		}
	}
	return rec.Sum(), nw.Stats()
}

// checkMeshInvariants checks a network at a batch boundary: its
// recycled records, its radio ledger and its tallies.
func checkMeshInvariants(t *testing.T, nw *Network, reg *obs.Registry) {
	t.Helper()
	if err := checkRecords(nw); err != nil {
		t.Fatalf("at %v: %v", nw.Now(), err)
	}
	s := nw.Stats()
	if err := checkSeries(reg, s); err != nil {
		t.Fatalf("at %v: %v", nw.Now(), err)
	}
	nodes := nw.NodeStats()
	if nodes == nil {
		return // telemetry off
	}
	for _, ns := range nodes {
		var sum time.Duration
		for _, d := range ns.RadioTime {
			sum += d
		}
		if sum != nw.Now() {
			t.Fatalf("at %v: node %d's radio states sum to %v", nw.Now(), ns.ID, sum)
		}
	}
	if err := checkNodeSums(nodes, nw.LinkStats(), s); err != nil {
		t.Fatalf("at %v: %v", nw.Now(), err)
	}
}

// checkRecords reports a recycled record released twice, or released
// while a queue, an acknowledgement wait, a pending event or a cell
// still holds it, a pending event whose record id is out of range, and
// a cell holding a transmission that left the air.
func checkRecords(nw *Network) error {
	freeOut, err := freeSet("outgoing", nw.outFree, len(nw.outs))
	if err != nil {
		return err
	}
	freeTx, err := freeSet("transmission", nw.txFree, len(nw.txs))
	if err != nil {
		return err
	}
	for i, out := range nw.outs {
		if out.id != uint32(i) {
			return fmt.Errorf("outgoing record %d carries id %d", i, out.id)
		}
	}
	for i, tx := range nw.txs {
		if tx.id != uint32(i) {
			return fmt.Errorf("transmission record %d carries id %d", i, tx.id)
		}
	}
	for _, n := range nw.nodes {
		for _, out := range n.queue {
			if freeOut[out.id] {
				return fmt.Errorf("node %d queues a released record", n.id)
			}
		}
		if n.awaiting != nil && freeOut[n.awaiting.id] {
			return fmt.Errorf("node %d awaits an acknowledgement for a released record", n.id)
		}
	}
	s := nw.sched
	for _, q := range [][]entry{s.near, s.far} {
		for _, e := range q {
			if err := checkAction(nw, e.a, freeOut, freeTx); err != nil {
				return fmt.Errorf("a pending op %d event at %v %v", e.a.op, e.at, err)
			}
		}
	}
	for owner := range nw.airs {
		for _, tx := range nw.airs[owner].active {
			if freeTx[tx.id] {
				return fmt.Errorf("cell %d holds a released transmission", owner)
			}
			if tx.end <= nw.Now() {
				return fmt.Errorf("cell %d holds transmission %d, which left the air at %v", owner, tx.seq, tx.end)
			}
		}
	}
	return nil
}

// freeSet marks the ids a free list holds, reporting an id listed
// twice or outside the table of n records.
func freeSet(kind string, free []uint32, n int) ([]bool, error) {
	set := make([]bool, n)
	for _, id := range free {
		if int(id) >= n {
			return nil, fmt.Errorf("free %s id %d is outside the table of %d", kind, id, n)
		}
		if set[id] {
			return nil, fmt.Errorf("%s record %d released twice", kind, id)
		}
		set[id] = true
	}
	return set, nil
}

// checkAction resolves a pending action's node and record id through
// the network's tables: the id must be in range and name a record in
// use, and a transmission's outgoing record must be in use too.
func checkAction(nw *Network, a action, freeOut, freeTx []bool) error {
	if a.op != opFunc && a.op != opIntruderTxEnd && (a.node < 0 || int(a.node) >= len(nw.nodes)) {
		return fmt.Errorf("names node %d of %d", a.node, len(nw.nodes))
	}
	switch a.op {
	case opCCA, opTxStart, opAckStart, opAssocResp:
		return checkID("outgoing", a.arg, freeOut)
	case opTxEnd, opAckEnd, opIntruderTxEnd:
		if err := checkID("transmission", a.arg, freeTx); err != nil {
			return err
		}
		if out := nw.txs[a.arg].out; out == nil || freeOut[out.id] {
			return fmt.Errorf("holds transmission %d, whose outgoing record is released", a.arg)
		}
	}
	return nil
}

// checkID reports an id outside a record table or naming a released
// record.
func checkID(kind string, id uint64, free []bool) error {
	if id >= uint64(len(free)) {
		return fmt.Errorf("names %s record %d of %d", kind, id, len(free))
	}
	if free[id] {
		return fmt.Errorf("holds released %s record %d", kind, id)
	}
	return nil
}

// checkSeries reports a wazabee_sim_* counter that differs from its
// Stats field.
func checkSeries(reg *obs.Registry, s Stats) error {
	want := map[string]uint64{
		"wazabee_sim_frames_total/beacon":      s.Beacons,
		"wazabee_sim_frames_total/data":        s.DataFrames,
		"wazabee_sim_frames_total/ack":         s.Acks,
		"wazabee_sim_collisions_total":         s.Collisions,
		"wazabee_sim_backoffs_total":           s.Backoffs,
		"wazabee_sim_cca_failures_total":       s.CCAFailures,
		"wazabee_sim_retries_total":            s.Retries,
		"wazabee_sim_ack_failures_total":       s.AckFailures,
		"wazabee_sim_erasures_total":           s.Erasures,
		"wazabee_sim_deaf_misses_total":        s.DeafMisses,
		"wazabee_sim_joins_total":              s.Joins,
		"wazabee_sim_pan_conflicts_total":      s.PANConflicts,
		"wazabee_sim_injected_total/offered":   s.Injected,
		"wazabee_sim_injected_total/delivered": s.InjectedDelivered,
		"wazabee_sim_channel_migrations_total": s.ChannelMigrations,
		"wazabee_sim_events_total":             s.Events,
	}
	commandKinds := map[string]bool{"beacon_request": true, "assoc_request": true, "assoc_response": true}
	var commands uint64
	seen := 0
	for _, series := range reg.Snapshot() {
		if series.Kind != "counter" || !strings.HasPrefix(series.Name, "wazabee_sim_") {
			continue
		}
		got := uint64(series.Value)
		if commandKinds[series.Labels["kind"]] {
			commands += got
			continue
		}
		key := series.Name
		for _, label := range []string{"kind", "result"} {
			if v, ok := series.Labels[label]; ok {
				key += "/" + v
			}
		}
		w, ok := want[key]
		if !ok {
			return fmt.Errorf("counter %s has no Stats field", key)
		}
		seen++
		if got != w {
			return fmt.Errorf("%s = %d, Stats says %d", key, got, w)
		}
	}
	if seen != len(want) || commands != s.Commands {
		return fmt.Errorf("the registry holds %d of %d counters, its command frames sum to %d against Stats' %d",
			seen, len(want), commands, s.Commands)
	}
	if got := reg.Gauge("wazabee_sim_nodes", "state", "joined").Value(); got != float64(s.Joined) {
		return fmt.Errorf(`wazabee_sim_nodes{state="joined"} = %v, Stats says %d`, got, s.Joined)
	}
	return nil
}

// checkNodeSums reports a NodeStats family whose sum over the nodes
// differs from its Stats field, and a link ledger that disagrees with
// the nodes' receive counts. Stats.Collisions also counts the
// intruder's collided forgeries, which no node owns, and Stats.Frames
// its injections.
func checkNodeSums(nodes []NodeStats, links []LinkStats, s Stats) error {
	var sum NodeStats
	for _, ns := range nodes {
		sum.Tx += ns.Tx
		sum.Rx += ns.Rx
		sum.Collisions += ns.Collisions
		sum.Backoffs += ns.Backoffs
		sum.CCAFailures += ns.CCAFailures
		sum.Retries += ns.Retries
		sum.AckFailures += ns.AckFailures
		sum.Erasures += ns.Erasures
		sum.DeafMisses += ns.DeafMisses
		sum.Readings += ns.Readings
		sum.Forwarded += ns.Forwarded
		sum.Joins += ns.Joins
	}
	for _, c := range []struct {
		name           string
		nodeSum, stats uint64
	}{
		{"tx + injected / frames", sum.Tx + s.Injected, s.Frames},
		{"backoffs", sum.Backoffs, s.Backoffs},
		{"cca failures", sum.CCAFailures, s.CCAFailures},
		{"retries", sum.Retries, s.Retries},
		{"ack failures", sum.AckFailures, s.AckFailures},
		{"erasures", sum.Erasures, s.Erasures},
		{"deaf misses", sum.DeafMisses, s.DeafMisses},
		{"readings", sum.Readings, s.Readings},
		{"forwarded", sum.Forwarded, s.Forwarded},
		{"joins", sum.Joins, s.Joins},
	} {
		if c.nodeSum != c.stats {
			return fmt.Errorf("%s: node sum %d, Stats %d", c.name, c.nodeSum, c.stats)
		}
	}
	if sum.Collisions > s.Collisions || s.Injected == 0 && sum.Collisions != s.Collisions {
		return fmt.Errorf("collisions: node sum %d, Stats %d (injected %d)", sum.Collisions, s.Collisions, s.Injected)
	}
	var delivered uint64
	for _, l := range links {
		delivered += l.Delivered
	}
	if delivered != sum.Rx {
		return fmt.Errorf("links delivered %d frames, the nodes received %d", delivered, sum.Rx)
	}
	return nil
}
