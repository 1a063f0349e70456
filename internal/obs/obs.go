// Package obs is the observability substrate of the reproduction: a
// dependency-free metrics registry (counters, gauges, fixed-bucket
// histograms with quantile estimation), a lightweight span tracer for
// timing named pipeline stages, and the glue that lets every layer of
// the TX→medium→RX attack path report what it saw without coupling the
// DSP code to any particular consumer.
//
// The registry encodes to both the Prometheus text exposition format
// (for scraping or the -metrics-addr flag of the commands) and a JSON
// snapshot (for programmatic inspection, expvar-style). The tracer
// renders a flame-ordered text tree.
//
// Everything is safe for concurrent use; counters and gauges are
// lock-free, histograms take a short per-histogram lock. All of it is
// standard library only, matching the module's empty dependency set.
package obs

import "time"

// defaultRegistry is the process-wide registry instrumented code falls
// back to when no explicit registry is wired in.
var defaultRegistry = NewRegistry()

// Default returns the process-wide default registry.
func Default() *Registry {
	return defaultRegistry
}

// StageSecondsMetric is the shared histogram name for per-stage pipeline
// timings; the stage is carried in the "stage" label so one metric family
// covers modulate, medium, AA-correlate, demod, despread and decode.
const StageSecondsMetric = "wazabee_stage_seconds"

// Stage times one named pipeline stage: it opens a span on tr (when tr is
// non-nil), and on completion observes the elapsed seconds into the
// reg's per-stage duration histogram (when reg is non-nil). Use it as
//
//	done := obs.Stage(reg, tr, "demod")
//	... stage work ...
//	done()
func Stage(reg *Registry, tr *Trace, stage string) func() {
	var span *Span
	if tr != nil {
		span = tr.Start(stage)
	}
	start := time.Now()
	return func() {
		elapsed := time.Since(start)
		if span != nil {
			span.End()
		}
		if reg != nil {
			reg.Histogram(StageSecondsMetric, DurationBuckets, "stage", stage).
				Observe(elapsed.Seconds())
		}
	}
}

// Or returns reg when non-nil and the process default registry
// otherwise — the idiom instrumented structs use to resolve their
// optional Obs field.
func Or(reg *Registry) *Registry {
	if reg != nil {
		return reg
	}
	return defaultRegistry
}
