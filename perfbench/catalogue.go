package main

import (
	"context"
	"time"
)

// roundResult is one unit of timed work: a Table III grid, a mesh run
// or a campaign matrix.
type roundResult struct {
	ops      float64       // frames, virtual seconds or trials
	allocOps float64       // what alloc.*_per_op divides by: frames, events or trials
	wall     time.Duration // timed part of the round
	cpu      time.Duration // process CPU time, all threads, over the same part
	output   string        // simulated result, checked against the pin
	counts   map[string]float64
}

// workload is one prepared benchmark workload.
type workload interface {
	// round runs one unit of timed work. With l non-nil it records one
	// trace per frame, batch or trial into l.
	round(ctx context.Context, l *layers) (roundResult, error)
	// layerMetrics derives the workload's own per-layer metrics from a
	// traced pass and the untraced pass over the same rounds.
	layerMetrics(l *layers, untraced []roundResult) (map[string]float64, error)
}

// workloadDef describes a workload and how to set it up. Setup is what
// setup_s times: everything from process start to the first timed op.
type workloadDef struct {
	name string
	// opName is the throughput's name in the workload's own unit.
	opName string
	// defaultSeed is the seed of the CLI the workload copies; the
	// output is pinned for it.
	defaultSeed int64
	// pinned is the output at defaultSeed.
	pinned string
	// parallel workloads run one caller per runner worker.
	parallel bool
	setup    func(seed int64, workers int) (workload, error)
}

var workloads = []workloadDef{
	{
		name: "table3-iq", opName: "frames_per_s", defaultSeed: 1, parallel: true,
		pinned: "40348a36384526e665a1da2fd292263a8de2a03594de289f5f55c8c6e205d534",
		setup:  setupTable3,
	},
	{
		name: "mesh-tree", opName: "virtual_s_per_s", defaultSeed: 42,
		pinned: "1a9efffa4c3589d90453e0882ee4c71df39e03699707cbc377e38da2ca297bc4 frames=207842 beacons=4056 data=122115 acks=75392 commands=6279 collisions=49211 erasures=0 joins=1099 readings=13336",
		setup:  setupMesh,
	},
	{
		name: "campaign-matrix", opName: "trials_per_s", defaultSeed: 42, parallel: true,
		pinned: "7af392700329394d14601238662abedd3920730d87c7482fdd807c1fa2d1824d",
		setup:  setupCampaign,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// sampledSpans are the spans whose per-span times feed percentiles;
// every other span only contributes its self-time sum.
var sampledSpans = []string{
	"experiment.trial", "experiment.trial_setup",
	"ieee802154.modulate", "core.modulate", "radio.medium", "core.receive", "ieee802154.demodulate",
	"campaign.trial", "campaign.setup", "campaign.run", "campaign.score",
}

// metricDef is one catalogue entry. owner names the workload that
// measures it; empty means every workload.
type metricDef struct {
	name, unit, better, owner string
}

// endToEnd is measured with tracing off, on every workload. Both are
// CPU times: on a shared host the wall clock also runs while the
// hypervisor serves other guests, which moved wall-clock throughput by
// more than half between runs of the same code. Wall-clock throughput
// and peak RSS are printed beside them; peak RSS moves by half its value
// between runs as the garbage collector's timing shifts.
var endToEnd = []metricDef{
	{"ops_per_cpu_s", "1/s", "higher", ""},
	{"setup_s", "s", "lower", ""},
}

const (
	table3Owner   = "table3-iq"
	meshOwner     = "mesh-tree"
	campaignOwner = "campaign-matrix"
)

// perLayer is measured by the traced run. A workload reports 0 for a
// metric it does not own: that layer does no work there.
var perLayer = []metricDef{
	{"experiment.trial_us.p50", "us", "lower", table3Owner},
	{"experiment.trial_us.p99", "us", "lower", table3Owner},
	{"experiment.trial_setup_us.p50", "us", "lower", table3Owner},
	{"experiment.trial_setup.share", "ratio", "lower", table3Owner},
	{"ieee802154.modulate_us.p50", "us", "lower", table3Owner},
	{"ieee802154.modulate_us.p99", "us", "lower", table3Owner},
	{"ieee802154.modulate.share", "ratio", "lower", table3Owner},
	{"core.modulate_us.p50", "us", "lower", table3Owner},
	{"core.modulate_us.p99", "us", "lower", table3Owner},
	{"core.modulate.share", "ratio", "lower", table3Owner},
	{"radio.medium_us.p50", "us", "lower", table3Owner},
	{"radio.medium_us.p99", "us", "lower", table3Owner},
	{"radio.medium.share", "ratio", "lower", table3Owner},
	{"core.receive_us.p50", "us", "lower", table3Owner},
	{"core.receive_us.p99", "us", "lower", table3Owner},
	{"core.receive.share", "ratio", "lower", table3Owner},
	{"ieee802154.demodulate_us.p50", "us", "lower", table3Owner},
	{"ieee802154.demodulate_us.p99", "us", "lower", table3Owner},
	{"ieee802154.demodulate.share", "ratio", "lower", table3Owner},
	{"experiment.frames_valid", "count", "higher", table3Owner},
	{"experiment.frames_corrupted", "count", "lower", table3Owner},
	{"experiment.frames_not_received", "count", "lower", table3Owner},

	{"sim.new_ms", "ms", "lower", meshOwner},
	{"sim.join_ms", "ms", "lower", meshOwner},
	{"sim.steady_ms_per_virtual_s", "ms", "lower", meshOwner},
	{"sim.ns_per_event", "ns", "lower", meshOwner},
	{"capture.digest.share", "ratio", "lower", meshOwner},
	{"sim.events", "count", "lower", meshOwner},
	{"sim.frames", "count", "higher", meshOwner},
	{"sim.collisions", "count", "lower", meshOwner},
	{"sim.heap_max_depth", "count", "lower", meshOwner},

	{"campaign.trial_ms.p50", "ms", "lower", campaignOwner},
	{"campaign.trial_ms.p99", "ms", "lower", campaignOwner},
	{"campaign.setup_us.p50", "us", "lower", campaignOwner},
	{"campaign.setup_us.p99", "us", "lower", campaignOwner},
	{"campaign.run_ms.p50", "ms", "lower", campaignOwner},
	{"campaign.run_ms.p99", "ms", "lower", campaignOwner},
	{"campaign.run_ms.benign-baseline.p50", "ms", "lower", campaignOwner},
	{"campaign.run_ms.scenario-a-injection.p50", "ms", "lower", campaignOwner},
	{"campaign.run_ms.channel-migration.p50", "ms", "lower", campaignOwner},
	{"campaign.run_ms.association-flood.p50", "ms", "lower", campaignOwner},
	{"campaign.run_ms.energy-depletion.p50", "ms", "lower", campaignOwner},
	{"campaign.run_ms.sleep-deprivation.p50", "ms", "lower", campaignOwner},
	{"campaign.run_ms.replay-impersonation.p50", "ms", "lower", campaignOwner},
	{"campaign.score_us.p50", "us", "lower", campaignOwner},
	{"campaign.impact_s", "s", "lower", campaignOwner},
	{"campaign.trials", "count", "higher", campaignOwner},

	{"runner.busy_ratio", "ratio", "higher", ""},
	{"alloc.allocs_per_op", "count", "lower", ""},
	{"alloc.bytes_per_op", "B", "lower", ""},
	{"gc.cpu_ratio", "ratio", "lower", ""},
	{"trace.overhead_ratio", "ratio", "lower", ""},
}
