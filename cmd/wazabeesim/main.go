// wazabeesim runs the virtual-time discrete-event Zigbee mesh simulator
// from the command line: generate a seeded topology, simulate minutes of
// 802.15.4 traffic (association, beaconing, CSMA-CA data reporting,
// PAN-ID conflicts) in wall-clock seconds, and print the run's stats and
// capture digest. Two invocations with the same flags are byte-identical
// — the digest doubles as a regression oracle across machines.
//
//	wazabeesim -topology tree -depth 3 -fanout 10 -duration 60s
//	wazabeesim -topology star -nodes 100 -seed 7 -json
//	wazabeesim -topology random -nodes 500 -duration 2m -digest=false
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"sort"
	"time"

	"wazabee/internal/obs"
	"wazabee/internal/radio"
	"wazabee/internal/zigbee/sim"
)

type config struct {
	topology string
	nodes    int
	depth    int
	fanout   int
	seed     int64
	duration time.Duration
	batch    time.Duration
	snrDB    float64
	beacon   time.Duration
	data     time.Duration
	fidelity string
	digest   bool
	jsonOut  bool
	progress bool

	// observatory flags
	telemetry     bool
	tracePath     string
	validateTrace bool
	energy        bool
	chip          string
	nodeReport    int
	metricsAddr   string
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "wazabeesim: %v\n", err)
		os.Exit(1)
	}
}

func registerFlags(fs *flag.FlagSet, cfg *config) {
	fs.StringVar(&cfg.topology, "topology", "tree", "mesh shape: star, tree or random")
	fs.IntVar(&cfg.nodes, "nodes", 100, "node count for star (children) and random topologies")
	fs.IntVar(&cfg.depth, "depth", 3, "tree depth (tree topology)")
	fs.IntVar(&cfg.fanout, "fanout", 10, "tree fanout (tree topology)")
	fs.Int64Var(&cfg.seed, "seed", 42, "run seed; same seed, same flags -> byte-identical run")
	fs.DurationVar(&cfg.duration, "duration", 60*time.Second, "virtual time to simulate")
	fs.DurationVar(&cfg.batch, "batch", time.Second, "virtual-time batch per scheduler advance (telemetry cadence; any value yields the identical run)")
	fs.Float64Var(&cfg.snrDB, "snr", 25, "per-link SNR in dB for the erasure model")
	fs.StringVar(&cfg.fidelity, "fidelity", "frame", "delivery tier: frame (one calibrated erasure draw per frame) or symbol (per-symbol chip-error draws through the real despreader)")
	fs.DurationVar(&cfg.beacon, "beacon-interval", 2*time.Second, "coordinator/router beacon cadence")
	fs.DurationVar(&cfg.data, "data-interval", 2*time.Second, "sensor reporting cadence")
	fs.BoolVar(&cfg.digest, "digest", true, "fold every capture into a sha256 digest and print it")
	fs.BoolVar(&cfg.jsonOut, "json", false, "emit the summary as JSON instead of text")
	fs.BoolVar(&cfg.progress, "progress", false, "log joined/frame counts each simulated second")
	fs.BoolVar(&cfg.telemetry, "telemetry", false, "enable the simulation observatory (per-node/per-link counters, energy accountant); implied by -trace, -energy and -node-report")
	fs.StringVar(&cfg.tracePath, "trace", "", "stream a Chrome trace-event JSON of the run here (load in ui.perfetto.dev); implies -telemetry")
	fs.BoolVar(&cfg.validateTrace, "validate-trace", false, "parse the written trace back and fail on malformed JSON (CI hook)")
	fs.BoolVar(&cfg.energy, "energy", false, "print the per-node radio energy report; implies -telemetry")
	fs.StringVar(&cfg.chip, "chip", "cc2652", "energy-accountant current-draw profile: cc2652 or nrf52840")
	fs.IntVar(&cfg.nodeReport, "node-report", 0, "print the top-N nodes by energy in the text report; implies -telemetry")
	fs.StringVar(&cfg.metricsAddr, "metrics-addr", "", "serve /metrics, /debug/sim and net/http/pprof on this address during the run (empty disables)")
}

// buildTopology resolves the topology flags into a node list.
func buildTopology(cfg config) (sim.Topology, error) {
	if cfg.nodes < 0 {
		return sim.Topology{}, fmt.Errorf("negative -nodes %d", cfg.nodes)
	}
	switch cfg.topology {
	case "star":
		return sim.Star(cfg.nodes), nil
	case "tree":
		// sim.Tree clamps these to 1; a CLI run must simulate the tree
		// it was asked for or fail.
		if cfg.depth < 1 {
			return sim.Topology{}, fmt.Errorf("-depth %d < 1", cfg.depth)
		}
		if cfg.fanout < 1 {
			return sim.Topology{}, fmt.Errorf("-fanout %d < 1", cfg.fanout)
		}
		return sim.Tree(cfg.depth, cfg.fanout), nil
	case "random":
		return sim.Random(cfg.nodes, cfg.seed), nil
	default:
		return sim.Topology{}, fmt.Errorf("unknown topology %q (want star, tree or random)", cfg.topology)
	}
}

// heapReport is the scheduler's high-water marks in the run report.
type heapReport struct {
	MaxDepth int           `json:"max_depth"`
	Pending  int           `json:"pending"`
	Executed uint64        `json:"executed"`
	MaxLag   time.Duration `json:"max_lag_ns"`
}

// summary is the machine-readable run report.
type summary struct {
	Topology     string        `json:"topology"`
	Nodes        int           `json:"nodes"`
	Coordinators int           `json:"coordinators"`
	Routers      int           `json:"routers"`
	EndDevices   int           `json:"end_devices"`
	Seed         int64         `json:"seed"`
	VirtualTime  time.Duration `json:"virtual_ns"`
	WallTime     time.Duration `json:"wall_ns"`
	Speedup      float64       `json:"speedup"`
	Stats        sim.Stats     `json:"stats"`
	Digest       string        `json:"digest,omitempty"`
	DigestFrames uint64        `json:"digest_frames,omitempty"`
	MaxEventLag  time.Duration `json:"max_event_lag_ns"`
	Heap         heapReport    `json:"heap"`

	// Energy totals, present when the observatory is enabled.
	Chip              string             `json:"chip,omitempty"`
	EnergyMicrojoules float64            `json:"energy_microjoules,omitempty"`
	RadioSeconds      map[string]float64 `json:"radio_seconds,omitempty"`
}

// validateTrace parses a written trace back and checks it is a
// well-formed Chrome trace-event document with at least one event — the
// CI smoke hook, so the pipeline needs no external JSON tooling.
func validateTrace(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("validate trace: %w", err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("validate trace %s: %w", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("validate trace %s: no trace events", path)
	}
	for i, ev := range doc.TraceEvents {
		if _, ok := ev["ph"].(string); !ok {
			return fmt.Errorf("validate trace %s: event %d missing phase", path, i)
		}
	}
	return nil
}

func run(args []string, out, errOut io.Writer) error {
	cfg := config{}
	fs := flag.NewFlagSet("wazabeesim", flag.ContinueOnError)
	fs.SetOutput(errOut)
	registerFlags(fs, &cfg)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.duration <= 0 {
		return fmt.Errorf("non-positive -duration %v", cfg.duration)
	}
	if cfg.batch <= 0 {
		cfg.batch = cfg.duration
	}

	topo, err := buildTopology(cfg)
	if err != nil {
		return err
	}
	telemetryOn := cfg.telemetry || cfg.tracePath != "" || cfg.energy || cfg.nodeReport > 0

	var traceFile *os.File
	if cfg.tracePath != "" {
		traceFile, err = os.Create(cfg.tracePath)
		if err != nil {
			return fmt.Errorf("create -trace file: %w", err)
		}
		defer traceFile.Close()
	}

	reg := obs.NewRegistry()
	flight := obs.NewFlight(256)
	fid, err := radio.ParseFidelity(cfg.fidelity)
	if err != nil {
		return err
	}
	if fid == radio.FidelityIQ {
		return fmt.Errorf("-fidelity iq is not supported by the mesh simulator (use symbol or frame)")
	}

	simCfg := sim.Config{
		Seed:           cfg.seed,
		SNRdB:          cfg.snrDB,
		Fidelity:       fid,
		BeaconInterval: cfg.beacon,
		DataInterval:   cfg.data,
		Registry:       reg,
		Flight:         flight,
		Telemetry:      telemetryOn,
		Chip:           cfg.chip,
	}
	if traceFile != nil {
		simCfg.TraceWriter = traceFile
	}
	nw, err := sim.New(topo, simCfg)
	if err != nil {
		return err
	}

	if cfg.metricsAddr != "" {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		obs.RegisterBuildInfo(reg)
		obs.StartRuntimeSampler(ctx, reg, 0)
		ln, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg)
		mux.Handle("/healthz", obs.NewHealth(reg).Healthz()) // liveness only: no components
		mux.Handle("/debug/sim", nw.DebugHandler())
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		srv := &http.Server{Handler: mux}
		go func() {
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(errOut, "wazabeesim: metrics server: %v\n", err)
			}
		}()
		defer srv.Close()
		fmt.Fprintf(errOut, "wazabeesim: serving /metrics, /healthz, /debug/sim and /debug/pprof on %s\n", ln.Addr())
	}

	var rec *sim.DigestRecorder
	if cfg.digest {
		rec = sim.NewDigestRecorder()
		channels := map[int]bool{}
		for _, n := range topo.Nodes {
			if !channels[n.Channel] {
				channels[n.Channel] = true
				nw.Tap(n.Channel, rec.Record)
			}
		}
	}

	start := time.Now()
	for at := cfg.batch; at < cfg.duration; at += cfg.batch {
		nw.Run(at)
		if cfg.progress {
			s := nw.Stats()
			fmt.Fprintf(errOut, "t=%v joined=%d/%d frames=%d collisions=%d\n",
				s.VirtualTime, s.Joined, s.Nodes, s.Frames, s.Collisions)
		}
	}
	nw.Run(cfg.duration)
	wall := time.Since(start)

	if err := nw.CloseTrace(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if cfg.validateTrace {
			if err := validateTrace(cfg.tracePath); err != nil {
				return err
			}
		}
	}

	stats := nw.Stats()
	sched := nw.Scheduler()
	coord, routers, endDev := topo.Counts()
	sum := summary{
		Topology:     cfg.topology,
		Nodes:        stats.Nodes,
		Coordinators: coord,
		Routers:      routers,
		EndDevices:   endDev,
		Seed:         cfg.seed,
		VirtualTime:  stats.VirtualTime,
		WallTime:     wall,
		Speedup:      stats.VirtualTime.Seconds() / wall.Seconds(),
		Stats:        stats,
		MaxEventLag:  sched.MaxLag(),
		Heap: heapReport{
			MaxDepth: sched.MaxDepth(),
			Pending:  sched.Len(),
			Executed: sched.Executed(),
			MaxLag:   sched.MaxLag(),
		},
	}
	if rec != nil {
		sum.Digest = rec.Sum()
		sum.DigestFrames = rec.Frames()
	}
	var snap *sim.Snapshot
	if telemetryOn {
		snap = nw.Snapshot()
		sum.Chip = snap.Chip
		sum.EnergyMicrojoules = snap.EnergyMicrojoules
		sum.RadioSeconds = snap.RadioSeconds
	}

	if cfg.jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(sum)
	}

	fmt.Fprintf(out, "topology %s: %d nodes (%d coordinator, %d routers, %d end devices), seed %d\n",
		cfg.topology, sum.Nodes, coord, routers, endDev, cfg.seed)
	fmt.Fprintf(out, "simulated %v in %v wall (%.0fx real time)\n",
		stats.VirtualTime, wall.Round(time.Millisecond), sum.Speedup)
	fmt.Fprintf(out, "joined %d/%d  frames %d (beacons %d, data %d, acks %d, commands %d)\n",
		stats.Joined, stats.Nodes, stats.Frames, stats.Beacons, stats.DataFrames, stats.Acks, stats.Commands)
	fmt.Fprintf(out, "collisions %d  backoffs %d  cca-failures %d  retries %d  ack-failures %d  erasures %d  deaf-misses %d\n",
		stats.Collisions, stats.Backoffs, stats.CCAFailures, stats.Retries, stats.AckFailures, stats.Erasures, stats.DeafMisses)
	fmt.Fprintf(out, "readings %d  forwarded %d  joins %d  pan-conflicts %d\n",
		stats.Readings, stats.Forwarded, stats.Joins, stats.PANConflicts)
	fmt.Fprintf(out, "events %d  heap-depth max %d  heap-lag max %v\n", stats.Events, stats.HeapDepth, sum.MaxEventLag)
	if snap != nil && (cfg.energy || cfg.nodeReport > 0) {
		fmt.Fprintf(out, "energy %.1f µJ total over %d nodes (%s profile): tx %.3fs rx %.3fs cca %.3fs turnaround %.3fs idle %.3fs\n",
			snap.EnergyMicrojoules, len(snap.Nodes), snap.Chip,
			snap.RadioSeconds["tx"], snap.RadioSeconds["rx"], snap.RadioSeconds["cca"],
			snap.RadioSeconds["turnaround"], snap.RadioSeconds["idle"])
	}
	if snap != nil && cfg.nodeReport > 0 {
		view := *snap
		view.Links = nil
		view.Nodes = sim.TopNodesByEnergy(view.Nodes, cfg.nodeReport)
		sim.WriteSnapshotText(out, &view)
	}
	if traceFile != nil {
		fmt.Fprintf(out, "trace written to %s — load it in ui.perfetto.dev or chrome://tracing\n", cfg.tracePath)
	}
	if rec != nil {
		fmt.Fprintf(out, "digest sha256:%s over %d captures\n", rec.Sum(), rec.Frames())
	}
	if evs := flight.Snapshot(); len(evs) > 0 {
		sort.Slice(evs, func(i, j int) bool { return evs[i].At.Before(evs[j].At) })
		fmt.Fprintf(out, "flight recorder (%d entries, last %d shown):\n", len(evs), min(3, len(evs)))
		for _, ev := range evs[max(0, len(evs)-3):] {
			fmt.Fprintf(out, "  %s %s: %s\n", ev.Kind, ev.Component, ev.Detail)
		}
	}
	return nil
}
