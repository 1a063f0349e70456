package sim

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"wazabee/internal/obs"
)

// TestSimConcurrentSnapshots is the `make racesim` workload: one
// goroutine advances a two-PAN mesh in batches while the test goroutine
// polls what the batch boundaries publish — the DebugHandler snapshot
// and the registry's Prometheus text, as wazabeesim -metrics-addr serves
// them — under the race detector.
func TestSimConcurrentSnapshots(t *testing.T) {
	topo := Topology{Nodes: []NodeSpec{
		{Role: RoleCoordinator, Parent: -1, Channel: 14, PAN: 0x1111},
		{Role: RoleCoordinator, Parent: -1, Channel: 20, PAN: 0x2222},
	}}
	for i := 0; i < 12; i++ {
		parent, channel, pan := 0, 14, uint16(0x1111)
		if i%2 == 1 {
			parent, channel, pan = 1, 20, 0x2222
		}
		topo.Nodes = append(topo.Nodes, NodeSpec{Role: RoleEndDevice, Parent: parent, Channel: channel, PAN: pan})
	}
	reg := obs.NewRegistry()
	nw, err := New(topo, Config{Seed: 5, Registry: reg, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	h := nw.DebugHandler()
	poll := func() Snapshot {
		t.Helper()
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/sim", nil))
		var snap Snapshot
		if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
			t.Fatalf("snapshot JSON: %v", err)
		}
		_ = reg.PrometheusText()
		return snap
	}

	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		for at := time.Second; at <= 30*time.Second; at += time.Second {
			nw.Run(at)
		}
	}()
	var last Snapshot
	for running := true; running; {
		select {
		case <-runDone:
			running = false
		default:
		}
		snap := poll()
		if snap.VirtualTime < last.VirtualTime || snap.Stats.Frames < last.Stats.Frames {
			t.Fatalf("snapshot went back: t=%v frames=%d after t=%v frames=%d",
				snap.VirtualTime, snap.Stats.Frames, last.VirtualTime, last.Stats.Frames)
		}
		last = snap
	}

	final := nw.Stats()
	if final.Frames == 0 || final.Joined != final.Nodes {
		t.Fatalf("degenerate run: %d frames, %d/%d joined", final.Frames, final.Joined, final.Nodes)
	}
	snap := poll()
	if snap.Stats != final || len(snap.Nodes) != len(topo.Nodes) {
		t.Fatalf("snapshot after the last batch = %+v (%d nodes), want stats %+v", snap.Stats, len(snap.Nodes), final)
	}
	if got := reg.Counter("wazabee_sim_events_total").Value(); got != final.Events {
		t.Fatalf("wazabee_sim_events_total = %d, want %d", got, final.Events)
	}
}
