package wazabee

// Hub publish-path benchmarks: the latency-stamping overhead budget.
// BenchmarkHubPublishUnstamped is the baseline fan-out cost;
// BenchmarkHubPublishLatencyStamped adds an Origin stamp, which turns
// on the emit→publish histogram observation plus the per-subscriber
// queue-entry stamping. The observability layer's contract is that the
// stamped path stays within a few percent of the baseline.

import (
	"testing"
	"time"

	"wazabee/internal/capture"
	"wazabee/internal/obs"
)

// benchHub builds a hub with the daemon's steady-state fan-out shape —
// two subscribers (the pcap tee plus one network listener) — with
// queues deep enough that publishing b.N records only ever hits the
// drop-oldest path after they fill once: per-op work is then constant
// (evict + enqueue per subscriber) and comparable between the stamped
// and unstamped runs.
func benchHub(b *testing.B) (*capture.Hub, capture.Record) {
	b.Helper()
	hub := capture.NewHub(obs.NewRegistry())
	hub.Flight = obs.NewFlight(64)
	for _, name := range []string{"pcap", "tcp:bench"} {
		if _, err := hub.Subscribe(name, 256); err != nil {
			b.Fatal(err)
		}
	}
	rec := capture.Record{
		At:      time.Now(),
		Channel: 15,
		Seq:     1,
		Decoder: "wazabee",
		PSDU:    benchPSDU(b, []byte{0xca, 0xfe, 0x00, 0x42}),
	}
	return hub, rec
}

// BenchmarkHubPublishUnstamped is the pre-observability publish cost:
// no Origin, so only queue-entry stamping and the fan-out itself run.
func BenchmarkHubPublishUnstamped(b *testing.B) {
	hub, rec := benchHub(b)
	defer hub.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hub.Publish(rec)
	}
}

// BenchmarkHubPublishLatencyStamped publishes Origin-stamped records,
// exercising the full latency instrumentation on the publish path.
// Compare its ns/op against the unstamped baseline.
func BenchmarkHubPublishLatencyStamped(b *testing.B) {
	hub, rec := benchHub(b)
	defer hub.Close()
	rec.Origin = time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hub.Publish(rec)
	}
}
