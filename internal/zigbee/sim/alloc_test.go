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
// PSDUs are all recycled. With a registry the per-batch work allocates
// at most once, for the closure obs.Stage returns: its registry lookups
// are hits. Without a registry, flight recorder or trace, Run opens no
// stage and mirrors nothing, so it allocates nothing at all.
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
			for _, withRegistry := range []bool{true, false} {
				name := fmt.Sprintf("%s/telemetry=%v", tc.name, telemetry)
				cfg := Config{Seed: 7, Telemetry: telemetry}
				var reg *obs.Registry
				limit := 0.0
				if withRegistry {
					reg = obs.NewRegistry()
					cfg.Registry, cfg.Flight = reg, obs.NewFlight(64)
					limit = 1
				} else {
					name += "/no-registry"
				}
				t.Run(name, func(t *testing.T) {
					nw, err := New(tc.topo, cfg)
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
					// Telemetry creates a link's ledger the first time it
					// carries a frame, and registers a node's or link's
					// counter series the first time it moves; in the tree
					// some links see their first erasure or collision long
					// after the join. That allocates once per link or
					// series, not per event, so a measurement that grew
					// either is taken again further on.
					grown := func() int {
						n := len(nw.LinkStats())
						if reg != nil {
							n += strings.Count(reg.PrometheusText(), "\n")
						}
						return n
					}
					for attempt := 1; ; attempt++ {
						before := grown()
						short := advance(time.Second)
						long := advance(10 * time.Second)
						if grown() != before {
							if attempt == 10 {
								t.Fatal("every measurement created new links or counter series")
							}
							continue
						}
						if long != short {
							t.Errorf("a 10 s Run allocates %v times, a 1 s Run %v: the event loop allocates per event", long, short)
						}
						if short > limit {
							t.Errorf("a 1 s Run allocates %v times, want at most %v", short, limit)
						}
						break
					}
				})
			}
		}
	}
}
