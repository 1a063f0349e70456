// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON report (BENCH.json), so benchmark history can be
// diffed and the streaming-pipeline before/after allocation comparison
// is queryable without re-parsing the bench text format.
//
// Usage:
//
//	go test -bench . -benchmem -count 5 . | tee bench.out
//	go run ./cmd/benchjson -in bench.out -out BENCH.json
//
// Each benchmark line becomes one entry; repeated -count runs of the
// same benchmark are aggregated (mean over runs, per extra metric too).
// For statistical comparison across revisions, feed the same bench.out
// files to benchstat.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"wazabee/internal/obs"
)

// Result aggregates every run of one benchmark.
type Result struct {
	Name string `json:"name"`
	Runs int    `json:"runs"`
	// Iterations is the mean b.N across runs.
	Iterations float64 `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp / AllocsPerOp come from -benchmem; absent metrics stay
	// zero and are listed in Metrics only when reported.
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds every extra b.ReportMetric unit (valid%, stage
	// timings, ...), mean over runs.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// parse consumes go-test bench output and aggregates per-benchmark sums;
// header key/value lines (goos:, pkg:, ...) fill the report preamble.
func parse(r io.Reader) (*report, error) {
	rep := &report{}
	var lines [][]string

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			continue
		}
		lines = append(lines, fields)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	// Strip the -<GOMAXPROCS> suffix so counts aggregate by name.
	suffix := procsSuffix(lines)
	sums := map[string]*Result{}
	var order []string
	for _, fields := range lines {
		name := strings.TrimSuffix(fields[0], suffix)
		iters, _ := strconv.ParseFloat(fields[1], 64)
		res := sums[name]
		if res == nil {
			res = &Result{Name: name, Metrics: map[string]float64{}}
			sums[name] = res
			order = append(order, name)
		}
		res.Runs++
		res.Iterations += iters
		// The rest of the line is value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp += v
			case "B/op":
				res.BytesPerOp += v
			case "allocs/op":
				res.AllocsPerOp += v
			default:
				res.Metrics[fields[i+1]] += v
			}
		}
	}

	sort.Strings(order)
	for _, name := range order {
		res := sums[name]
		n := float64(res.Runs)
		res.Iterations /= n
		res.NsPerOp /= n
		res.BytesPerOp /= n
		res.AllocsPerOp /= n
		for k := range res.Metrics {
			res.Metrics[k] /= n
		}
		if len(res.Metrics) == 0 {
			res.Metrics = nil
		}
		rep.Benchmarks = append(rep.Benchmarks, *res)
	}
	return rep, nil
}

// procsSuffix returns the "-N" that go test appends to every benchmark
// name when GOMAXPROCS is N > 1, or "" unless every line carries the
// same one. At GOMAXPROCS=1 nothing is appended, so the digits of a
// sub-benchmark such as BenchmarkRunnerSweep/workers-4 are part of its
// name and must stay.
func procsSuffix(lines [][]string) string {
	suffix := ""
	for i, fields := range lines {
		name := fields[0]
		j := strings.LastIndex(name, "-")
		if j <= 0 {
			return ""
		}
		if _, err := strconv.Atoi(name[j+1:]); err != nil {
			return ""
		}
		if i > 0 && name[j:] != suffix {
			return ""
		}
		suffix = name[j:]
	}
	return suffix
}

// historyRecord is one appended line of the benchmark history: the full
// report stamped with when it was taken, so the perf trajectory across
// revisions survives BENCH.json being overwritten every run.
type historyRecord struct {
	At string `json:"at"`
	report
}

// appendHistory appends the report as one compact timestamped JSON
// line — unless the file's last line already holds an identical report
// (timestamp aside), in which case the append is skipped: re-running
// `make bench` without a perf change must not bloat the history with
// duplicate entries. It reports whether a line was written.
func appendHistory(path string, rep *report, at time.Time) (bool, error) {
	if dup, err := lastHistoryMatches(path, rep); err != nil {
		return false, err
	} else if dup {
		return false, nil
	}
	line, err := json.Marshal(historyRecord{At: at.UTC().Format(time.RFC3339), report: *rep})
	if err != nil {
		return false, err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return false, err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return false, err
	}
	return true, f.Close()
}

// lastHistoryMatches reports whether the final line of the history file
// decodes to the same report as rep, ignoring the At timestamp.
// A missing file, an empty file or an unparseable last line all count
// as "no match" — appending is always safe then.
func lastHistoryMatches(path string, rep *report) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return false, err
	}
	if last == "" {
		return false, nil
	}
	var prev historyRecord
	if err := json.Unmarshal([]byte(last), &prev); err != nil {
		return false, nil
	}
	prevJSON, err := json.Marshal(prev.report)
	if err != nil {
		return false, nil
	}
	repJSON, err := json.Marshal(*rep)
	if err != nil {
		return false, err
	}
	return string(prevJSON) == string(repJSON), nil
}

func run(inPath, outPath, historyPath string) error {
	var in io.Reader = os.Stdin
	if inPath != "" && inPath != "-" {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	rep, err := parse(in)
	if err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	if historyPath != "" {
		if _, err := appendHistory(historyPath, rep, time.Now()); err != nil {
			return fmt.Errorf("append history: %w", err)
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "" || outPath == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(outPath, data, 0o644)
}

func main() {
	obs.RegisterBuildInfo(nil)
	inPath := flag.String("in", "-", "bench output file (- for stdin)")
	outPath := flag.String("out", "-", "JSON report path (- for stdout)")
	historyPath := flag.String("history", "", "append the report as one timestamped JSON line here (e.g. BENCH_history.jsonl); empty disables")
	flag.Parse()
	if err := run(*inPath, *outPath, *historyPath); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
