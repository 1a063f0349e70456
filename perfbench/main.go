// Command perfbench is the repository's benchmark. It runs one of three
// closed-loop workloads for a fixed wall-clock budget, checks every
// simulated result against the value pinned for the workload's default
// seed, and prints its metrics, the last line being one JSON object:
//
//	perfbench --workload table3-iq --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics with tracing off. --trace 1
// runs the same rounds untraced and then traced, with one span tree per
// frame, batch or trial, and reports per-layer self times instead.
//
//	perfbench compare OLD NEW
//
// compares two files of saved runs and refuses runs made with
// different GOMAXPROCS or worker counts. README.md describes the
// workloads and every metric.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"wazabee/internal/radio"
)

// setupProbes is how many fresh processes setup_s is the median of.
const setupProbes = 11

// minRounds is the fewest rounds a pass runs, however short --seconds.
// Three rounds give every p99 of the traced run at least 1,000 samples:
// 1,536 frames per side of table3-iq, 1,365 campaign trials.
const minRounds = 3

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], out)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "table3-iq, mesh-tree or campaign-matrix")
	seed := fs.Int64("seed", 0, "workload seed; 0 selects the workload's default, whose output is pinned")
	seconds := fs.Float64("seconds", 10, "wall-clock seconds one pass measures")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced run")
	setupChild := fs.Bool("setup-child", false, "set up the workload, print ready and exit (setup_s probes)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	def, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown -workload %q (table3-iq, mesh-tree, campaign-matrix)", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds %g: want > 0", *seconds)
	}
	if *seed == 0 {
		*seed = def.defaultSeed
	}
	h := currentHost(def)
	if *setupChild {
		if _, err := def.setup(*seed, h.Workers); err != nil {
			return err
		}
		_, err := fmt.Fprintln(out, "ready")
		return err
	}

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	probe := func() (time.Duration, error) { return probeSetup(exe, def.name, *seed) }
	rc := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, host: h, probe: probe}
	res, err := measure(context.Background(), def, rc, out)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(out, "%s\n", line); err != nil {
		return err
	}
	if !res.Correct {
		return errors.New("output check failed")
	}
	return nil
}

// host is recorded with every result: runs are only comparable on the
// same GOMAXPROCS and worker count.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
}

func currentHost(def workloadDef) host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: 1, Go: runtime.Version(), CPU: "unknown"}
	if def.parallel {
		h.Workers = h.GOMAXPROCS
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	host    host
	// probe times one set-up from a cold start.
	probe func() (time.Duration, error)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// checker compares each round's output with the pinned one, or, for a
// seed without a pin, with the first round's; counts must repeat too.
type checker struct {
	want   string
	counts map[string]float64
	log    io.Writer
}

func (c *checker) check(r roundResult) bool {
	if c.want == "" {
		c.want = r.output
	}
	if r.output != c.want {
		fmt.Fprintf(c.log, "output check: got %s, want %s\n", r.output, c.want)
		return false
	}
	if c.counts == nil {
		c.counts = r.counts
	}
	for k, v := range c.counts {
		if r.counts[k] != v {
			fmt.Fprintf(c.log, "output check: %s = %g, earlier rounds %g\n", k, r.counts[k], v)
			return false
		}
	}
	return true
}

// pass runs rounds until the deadline (at least minRounds, at most
// limit when limit > 0) and returns the rounds that succeeded and
// passed the output check.
type pass struct {
	ok                []roundResult
	attempted, failed int64
}

func (p *pass) run(ctx context.Context, w workload, l *layers, chk *checker, deadline time.Time, limit int) {
	for n := 0; ; n++ {
		if limit > 0 && n >= limit {
			return
		}
		if limit <= 0 && n >= minRounds && !time.Now().Before(deadline) {
			return
		}
		r, err := w.round(ctx, l)
		p.attempted += int64(r.ops)
		if err != nil {
			fmt.Fprintf(chk.log, "round %d: %v\n", n, err)
			p.failed += int64(r.ops)
			continue
		}
		if !chk.check(r) {
			p.failed += int64(r.ops)
			continue
		}
		p.ok = append(p.ok, r)
	}
}

// measure sets the workload up, runs its passes and returns the result
// line. Human-readable lines go to log first.
func measure(ctx context.Context, def workloadDef, rc runConfig, log io.Writer) (result, error) {
	hostLine, err := json.Marshal(rc.host)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "host %s\n", hostLine)
	w, err := def.setup(rc.seed, rc.host.Workers)
	if err != nil {
		return result{}, fmt.Errorf("%s setup: %w", def.name, err)
	}
	chk := &checker{log: log}
	if rc.seed == def.defaultSeed {
		chk.want = def.pinned
	}
	if rc.trace {
		return measureTraced(ctx, def, w, rc, chk, log)
	}

	var setups []float64
	for i := 0; i < setupProbes; i++ {
		d, err := rc.probe()
		if err != nil {
			return result{}, fmt.Errorf("setup probe: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	var p pass
	p.run(ctx, w, nil, chk, time.Now().Add(rc.seconds), 0)
	if len(p.ok) == 0 {
		return result{}, fmt.Errorf("%s: no round succeeded", def.name)
	}
	var rates, wallRates []float64
	for _, r := range p.ok {
		rates = append(rates, r.ops/r.cpu.Seconds())
		wallRates = append(wallRates, r.ops/r.wall.Seconds())
	}
	res := result{
		Correct:   p.failed == 0,
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics: map[string]metricValue{
			"ops_per_cpu_s": {median(rates), "1/s"},
			"setup_s":       {median(setups), "s"},
		},
	}
	fmt.Fprintf(log, "%s seed %d: %d rounds, output %s\n", def.name, rc.seed, len(p.ok), chk.want)
	fmt.Fprintf(log, "  per-round %s per CPU second: %s\n", def.opName, fmtRates(rates))
	fmt.Fprintf(log, "  per-round %s per wall second: %s\n", def.opName, fmtRates(wallRates))
	fmt.Fprintf(log, "  %-16s %12.4f 1/s per CPU second (ops_per_cpu_s)\n", def.opName, res.Metrics["ops_per_cpu_s"].Value)
	fmt.Fprintf(log, "  %-16s %12.4f 1/s per wall second\n", def.opName, median(wallRates))
	fmt.Fprintf(log, "  %-16s %12.4f s\n", "setup_s", res.Metrics["setup_s"].Value)
	fmt.Fprintf(log, "  %-16s %12.4f MB\n", "peak_rss_mb", peakRSSMB())
	fmt.Fprintf(log, "  %-16s %12.4f ratio (%d of %d ops)\n", "failed_ratio", float64(p.failed)/float64(p.attempted), p.failed, p.attempted)
	return res, nil
}

// measureTraced runs the untraced pass for half the budget, then the
// same rounds traced, and reports the per-layer metrics.
func measureTraced(ctx context.Context, def workloadDef, w workload, rc runConfig, chk *checker, log io.Writer) (result, error) {
	before := readRuntime()
	var plain pass
	plain.run(ctx, w, nil, chk, time.Now().Add(rc.seconds/2), 0)
	after := readRuntime()
	if len(plain.ok) == 0 {
		return result{}, fmt.Errorf("%s: no untraced round succeeded", def.name)
	}

	l := newLayers(sampledSpans...)
	var traced pass
	traced.run(ctx, w, l, chk, time.Time{}, len(plain.ok))
	if len(traced.ok) == 0 {
		return result{}, fmt.Errorf("%s: no traced round succeeded", def.name)
	}
	correct := plain.failed == 0 && traced.failed == 0
	if err := l.reconcile(); err != nil {
		fmt.Fprintln(log, err)
		correct = false
	}

	m, err := w.layerMetrics(l, plain.ok)
	if err != nil {
		return result{}, err
	}
	var plainCPU, tracedCPU, tracedWall, allocOps float64
	for _, r := range plain.ok {
		plainCPU += r.cpu.Seconds()
		allocOps += r.allocOps
	}
	for _, r := range traced.ok {
		tracedCPU += r.cpu.Seconds()
		tracedWall += r.wall.Seconds()
	}
	for k, v := range traced.ok[len(traced.ok)-1].counts {
		m[k] = v
	}
	m["runner.busy_ratio"] = l.rootNs / 1e9 / (tracedWall * float64(rc.host.Workers))
	m["alloc.allocs_per_op"] = float64(after.mallocs-before.mallocs) / allocOps
	m["alloc.bytes_per_op"] = float64(after.bytes-before.bytes) / allocOps
	m["gc.cpu_ratio"] = (after.gcCPU - before.gcCPU) / (after.totalCPU - before.totalCPU)
	m["trace.overhead_ratio"] = (tracedCPU - plainCPU) / plainCPU

	res := result{
		Correct:   correct,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   map[string]metricValue{},
	}
	fmt.Fprintf(log, "%s seed %d: %d rounds untraced, then traced\n", def.name, rc.seed, len(plain.ok))
	for _, d := range perLayer {
		v, ok := m[d.name]
		if !ok && (d.owner == "" || d.owner == def.name) {
			return result{}, fmt.Errorf("%s did not measure %s", def.name, d.name)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
		if ok {
			fmt.Fprintf(log, "  %-42s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	return res, nil
}

// runtimeSample is the process counters alloc.* and gc.cpu_ratio are
// deltas of.
type runtimeSample struct {
	mallocs, bytes  uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
	}
}

// stopwatch reads wall and process CPU time together.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime()} }

// stop returns the wall and CPU time since the watch started.
func (s stopwatch) stop() (wall, cpu time.Duration) {
	return time.Since(s.wall), cpuTime() - s.cpu
}

// cpuTime is the CPU time the process has used on all its threads. The
// kernel books time the hypervisor gives to other guests as steal, not
// to the process, so this clock does not run while the VM waits.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// probeSetup starts a fresh copy of this program that only sets the
// workload up and exits, and returns the CPU time it used: package
// initialisation and lazy tables as well as the workload's own set-up.
// CPU time rather than wall time, because on a shared host the wall
// clock also counts the time the hypervisor gave to other guests.
func probeSetup(exe, name string, seed int64) (time.Duration, error) {
	cmd := exec.Command(exe, "--setup-child", "--workload", name, "--seed", fmt.Sprint(seed))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if readErr != nil || line != "ready\n" {
		return 0, fmt.Errorf("setup child said %q: %v", line, readErr)
	}
	return cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime(), nil
}

// warmLazyTables forces the frame tier's one-time work: the embedded
// calibration table parse and the P[correct|k] Monte-Carlo.
func warmLazyTables() error {
	if _, err := radio.DefaultCalTable(); err != nil {
		return err
	}
	radio.SymbolCorrectProb(0)
	return nil
}
