package wazabee

// Virtual-time simulator benchmark: the event-loop throughput number
// behind the "thousand-node mesh, minutes of traffic per wall-clock
// second" claim. The extra metrics report simulated frames and scheduler
// events per wall second alongside ns/op; perfbench's mesh-tree workload
// is the recorded figure.

import (
	"io"
	"testing"
	"time"

	"wazabee/internal/zigbee/sim"
)

// benchSimEventLoop simulates 60 virtual seconds of the 1,111-node
// acceptance mesh (Tree(3,10): full association, 2-second beacon and
// data cadences, CSMA-CA, multihop forwarding) per iteration under the
// given instrumentation config.
func benchSimEventLoop(b *testing.B, cfg sim.Config) {
	topo := sim.Tree(3, 10)
	const virtual = 60 * time.Second
	cfg.Seed = 42

	b.ReportAllocs()
	b.ResetTimer()
	var frames, events uint64
	for i := 0; i < b.N; i++ {
		nw, err := sim.New(topo, cfg)
		if err != nil {
			b.Fatal(err)
		}
		nw.Run(virtual)
		if err := nw.CloseTrace(); err != nil {
			b.Fatal(err)
		}
		s := nw.Stats()
		frames += s.Frames
		events += s.Events
	}
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(frames)/elapsed, "frames/s")
		b.ReportMetric(float64(events)/elapsed, "events/s")
	}
	b.ReportMetric(virtual.Seconds()*float64(b.N)/elapsed, "virtual_s/s")
}

// BenchmarkSimEventLoop is the uninstrumented baseline: the observatory
// off, every telemetry hook a nil check.
func BenchmarkSimEventLoop(b *testing.B) {
	benchSimEventLoop(b, sim.Config{})
}

// BenchmarkSimEventLoopObservatory runs with per-node/per-link counters
// and the radio energy accountant enabled — the ISSUE 8 budget is under
// 10% over the baseline.
func BenchmarkSimEventLoopObservatory(b *testing.B) {
	benchSimEventLoop(b, sim.Config{Telemetry: true})
}

// BenchmarkSimEventLoopTraced additionally streams the Chrome trace
// (discarded), pricing the full export path.
func BenchmarkSimEventLoopTraced(b *testing.B) {
	benchSimEventLoop(b, sim.Config{Telemetry: true, TraceWriter: io.Discard})
}
