package obs

import "time"

// Pipeline latency instrumentation (§7 catalogue: wazabee_latency_*).
//
// Every live capture is stamped with a monotonic origin time the moment
// the victim network emits it (sim.LiveCapture.At). The stamp rides
// the in-memory side of capture.Record — it is never serialised — and
// each stage of the delivery path observes its distance from the origin
// into one shared histogram family, labelled by stage:
//
//	stage="medium"   radio.Medium.Deliver wall time (channel simulation)
//	stage="demod"    emission → receiver verdict (per decoder)
//	stage="publish"  emission → capture.Hub.Publish accepted
//	stage="queue"    per-subscriber queue residency (offer → pop)
//	stage="deliver"  emission → subscriber pop (end-to-end, per subscriber)
//
// The medium stage is self-timed rather than origin-anchored: it
// measures the cost of the channel simulation itself, so the daemon's
// emit→demod numbers can be decomposed into medium vs DSP cost.
//
// The deliver stage is the delivery-latency SLO: its p50/p99 per
// subscriber is what the multi-tenant scaling work is judged against.
// Records without an origin stamp (replayed captures, bare test
// records) skip the origin-anchored stages; queue residency is observed
// regardless, since it needs no origin.

// LatencySecondsMetric is the shared histogram family for pipeline
// latencies; the position in the pipeline is carried in the "stage"
// label, further qualified by "decoder" or "subscriber" where the stage
// is per-decoder or per-subscriber.
const LatencySecondsMetric = "wazabee_latency_seconds"

// LatencyBuckets is the bucket layout of the latency family: 1 µs to
// ~67 s in powers of two — fine enough to separate the DSP stages from
// queue residency, wide enough that a stalled subscriber still lands in
// a finite bucket.
var LatencyBuckets = ExponentialBuckets(1e-6, 2, 27)

// LatencyHistogram returns (creating if needed) the latency histogram
// for one pipeline stage, with optional extra label pairs. reg nil
// falls back to the process default registry.
func LatencyHistogram(reg *Registry, stage string, labelPairs ...string) *Histogram {
	pairs := append([]string{"stage", stage}, labelPairs...)
	return Or(reg).Histogram(LatencySecondsMetric, LatencyBuckets, pairs...)
}

// DurationSeconds converts a duration to float seconds with one
// multiply. time.Duration.Seconds splits whole seconds from the
// nanosecond remainder (two integer divisions) to stay exact past ~104
// days; latency observations never get there, and the per-record
// observation sites are hot enough that the divisions show up in the
// publish benchmark.
func DurationSeconds(d time.Duration) float64 {
	return float64(d) * 1e-9
}

// ObserveLatency records the distance from origin to now into the
// stage's histogram. A zero origin (an unstamped record) is a no-op, so
// callers can call it unconditionally; core.Receiver.ReceiveStatsAt
// does, once per receive. Paths that observe per record (Hub.Publish,
// Subscription.pop) pre-resolve their histogram once and observe
// directly.
func ObserveLatency(reg *Registry, stage string, origin time.Time, labelPairs ...string) {
	if origin.IsZero() {
		return
	}
	LatencyHistogram(reg, stage, labelPairs...).Observe(DurationSeconds(time.Since(origin)))
}
