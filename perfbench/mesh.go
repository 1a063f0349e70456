package main

import (
	"context"
	"fmt"
	"time"

	"wazabee/internal/obs"
	"wazabee/internal/radio"
	"wazabee/internal/zigbee/sim"
)

const (
	// meshVirtual is the virtual time of one mesh-tree round, the
	// wazabeesim default -duration.
	meshVirtual = 60 * time.Second
	// meshBatch is the virtual time one Network.Run call advances.
	meshBatch = time.Second
	// meshJoined is the joined fraction that ends the association storm.
	meshJoined = 0.9
)

// mesh is the mesh-tree workload: the wazabeesim defaults, a 1,111-node
// Tree(3,10) at the frame tier with telemetry off and the capture
// digest tapped, advanced in meshBatch steps by one caller.
type mesh struct {
	seed int64
	topo sim.Topology
}

func setupMesh(seed int64, _ int) (workload, error) {
	if err := warmLazyTables(); err != nil {
		return nil, err
	}
	m := &mesh{seed: seed, topo: sim.Tree(3, 10)}
	if _, _, err := m.build(nil); err != nil {
		return nil, err
	}
	return m, nil
}

// build instantiates the network as wazabeesim does and taps a digest
// recorder onto every channel in use. With cur non-nil each Record
// call is a capture.digest span in the trace *cur points at.
func (m *mesh) build(cur **obs.Trace) (*sim.Network, *sim.DigestRecorder, error) {
	nw, err := sim.New(m.topo, sim.Config{
		Seed:           m.seed,
		SNRdB:          25,
		Fidelity:       radio.FidelityFrame,
		BeaconInterval: 2 * time.Second,
		DataInterval:   2 * time.Second,
		Registry:       obs.NewRegistry(),
		Flight:         obs.NewFlight(256),
		Chip:           "cc2652",
	})
	if err != nil {
		return nil, nil, err
	}
	rec := sim.NewDigestRecorder()
	tap := rec.Record
	if cur != nil {
		tap = func(fc sim.FrameCapture) {
			defer (*cur).Start("capture.digest").End()
			rec.Record(fc)
		}
	}
	tapped := map[int]bool{}
	for _, n := range m.topo.Nodes {
		if !tapped[n.Channel] {
			tapped[n.Channel] = true
			nw.Tap(n.Channel, tap)
		}
	}
	return nw, rec, nil
}

// batchEnds lists the virtual instants Network.Run advances to, the
// loop of wazabeesim.
func batchEnds() []time.Duration {
	var ends []time.Duration
	for at := meshBatch; at < meshVirtual; at += meshBatch {
		ends = append(ends, at)
	}
	return append(ends, meshVirtual)
}

// round builds a fresh network (untimed: that is set-up, sim.new_ms)
// and times the batches.
func (m *mesh) round(_ context.Context, l *layers) (roundResult, error) {
	ends := batchEnds()
	r := roundResult{ops: meshVirtual.Seconds()}
	var cur *obs.Trace
	var tracedCur **obs.Trace
	if l != nil {
		tracedCur = &cur
	}
	began := time.Now()
	nw, rec, err := m.build(tracedCur)
	if err != nil {
		return r, err
	}
	if l != nil {
		l.note("sim.new_ms", float64(time.Since(began))/float64(time.Millisecond))
	}

	watch := startWatch()
	if l == nil {
		for _, at := range ends {
			nw.Run(at)
		}
	} else {
		joined := false
		var joinNs, steadyNs float64
		steady := 0
		for _, at := range ends {
			batchStart := time.Now()
			cur = obs.NewTrace("sim.run")
			root := cur.Start("sim.run")
			nw.Run(at)
			d := root.End()
			l.add(cur, time.Since(batchStart))
			if joined {
				steadyNs += float64(d)
				steady++
				continue
			}
			joinNs += float64(d)
			s := nw.Stats()
			joined = float64(s.Joined) >= meshJoined*float64(s.Nodes)
		}
		if !joined || steady == 0 {
			return r, fmt.Errorf("mesh: fewer than %.0f%% of nodes joined within %v", 100*meshJoined, meshVirtual)
		}
		l.note("sim.join_ms", joinNs/1e6)
		l.note("sim.steady_ms_per_virtual_s", steadyNs/1e6/float64(steady))
	}
	r.wall, r.cpu = watch.stop()

	s := nw.Stats()
	r.allocOps = float64(s.Events)
	r.output = fmt.Sprintf("%s frames=%d beacons=%d data=%d acks=%d commands=%d collisions=%d erasures=%d joins=%d readings=%d",
		rec.Sum(), s.Frames, s.Beacons, s.DataFrames, s.Acks, s.Commands, s.Collisions, s.Erasures, s.Joins, s.Readings)
	r.counts = map[string]float64{
		"sim.events":         float64(s.Events),
		"sim.frames":         float64(s.Frames),
		"sim.collisions":     float64(s.Collisions),
		"sim.heap_max_depth": float64(s.HeapDepth),
	}
	return r, nil
}

func (m *mesh) layerMetrics(l *layers, untraced []roundResult) (map[string]float64, error) {
	var cpuNs, events float64
	for _, r := range untraced {
		cpuNs += float64(r.cpu)
		events += r.counts["sim.events"]
	}
	return map[string]float64{
		"sim.new_ms":                  median(l.samples["sim.new_ms"]),
		"sim.join_ms":                 median(l.samples["sim.join_ms"]),
		"sim.steady_ms_per_virtual_s": median(l.samples["sim.steady_ms_per_virtual_s"]),
		"sim.ns_per_event":            cpuNs / events,
		"capture.digest.share":        l.share("capture.digest"),
	}, nil
}
