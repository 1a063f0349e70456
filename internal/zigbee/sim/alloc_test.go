package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"wazabee/internal/obs"
)

// TestSteadyStateRunAllocations checks that a joined mesh's event loop
// allocates nothing per event: a Run that advances 10 s of virtual time
// allocates exactly as often as one that advances 1 s, so everything
// left is the per-batch work (the run span, the gauges, the telemetry
// publish). Outgoing and transmission records, frames, payloads and
// PSDUs are all recycled.
func TestSteadyStateRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		name string
		topo Topology
	}{
		{"star-4", Star(4)},
		{"tree-3-4", Tree(3, 4)},
	} {
		for _, telemetry := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/telemetry=%v", tc.name, telemetry), func(t *testing.T) {
				reg := obs.NewRegistry()
				nw, err := New(tc.topo, Config{Seed: 7, Telemetry: telemetry, Registry: reg, Flight: obs.NewFlight(64)})
				if err != nil {
					t.Fatal(err)
				}
				nw.Run(30 * time.Second)
				if s := nw.Stats(); s.Joined != s.Nodes {
					t.Fatalf("%d of %d nodes joined after 30 s", s.Joined, s.Nodes)
				}
				advance := func(d time.Duration) float64 {
					return testing.AllocsPerRun(5, func() { nw.Run(nw.Now() + d) })
				}
				// Telemetry registers a node's or link's counter series
				// the first time it moves, and in the tree some links see
				// their first erasure or collision long after the join.
				// That allocates once per series, not per event, so a
				// measurement that registered a series is taken again
				// further on.
				series := func() int { return strings.Count(reg.PrometheusText(), "\n") }
				for attempt := 1; ; attempt++ {
					before := series()
					short := advance(time.Second)
					long := advance(10 * time.Second)
					if series() != before {
						if attempt == 10 {
							t.Fatal("every measurement registered new counter series")
						}
						continue
					}
					if long != short {
						t.Errorf("a 10 s Run allocates %v times, a 1 s Run %v: the event loop allocates per event", long, short)
					}
					break
				}
			})
		}
	}
}
