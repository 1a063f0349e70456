// Command benchjson writes BENCH.json, the repository's benchmark
// record, from saved perfbench output:
//
//	benchjson -out BENCH.json table3-iq=bench/table3-iq.txt mesh-tree=bench/mesh-tree.txt
//
// Each workload=file argument names one workload and a file holding the
// stdout of several perfbench runs of it, appended. Like `perfbench
// compare`, benchjson reads only the "host" lines and the {"correct"…}
// result lines. Per workload the record holds the host, the untraced
// run count, attempted and failed ops, the median, Q1 and Q3 of each
// end-to-end metric over the untraced (--trace 0) runs, and every
// per-layer metric of the one traced (--trace 1) run. `make bench`
// makes the runs and writes the record.
//
// Nothing is written when a run is not correct or has failed ops, when
// a result line has no host line before it, when one workload's runs
// differ in GOMAXPROCS or worker count, or when a workload has no
// untraced run.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// host and result mirror the lines perfbench prints.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type savedRun struct {
	host host
	res  result
}

// tracedMarker is the metric only a --trace 1 run reports.
const tracedMarker = "trace.overhead_ratio"

// summary is one end-to-end metric over the untraced runs.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

type workloadRecord struct {
	Host host `json:"host"`
	// Runs is the number of untraced runs the quartiles summarise.
	Runs      int   `json:"runs"`
	Attempted int64 `json:"attempted"`
	// Failed is always 0: a run with failed ops stops the record.
	Failed   int64                  `json:"failed"`
	EndToEnd map[string]summary     `json:"end_to_end"`
	PerLayer map[string]metricValue `json:"per_layer"`
}

type record struct {
	Workloads map[string]workloadRecord `json:"workloads"`
}

// readRuns parses every run in a file of saved output: each run is a
// "host" line followed, later, by its result line.
func readRuns(path string) ([]savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []savedRun
	var h *host
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "host "); ok {
			h = new(host)
			if err := json.Unmarshal([]byte(rest), h); err != nil {
				return nil, fmt.Errorf("%s: host line: %w", path, err)
			}
			continue
		}
		if !strings.HasPrefix(line, `{"correct"`) {
			continue
		}
		if h == nil {
			return nil, fmt.Errorf("%s: result line without a host line", path)
		}
		r := savedRun{host: *h}
		if err := json.Unmarshal([]byte(line), &r.res); err != nil {
			return nil, fmt.Errorf("%s: result line: %w", path, err)
		}
		runs = append(runs, r)
		h = nil
	}
	return runs, sc.Err()
}

// summarise folds one workload's runs into its record.
func summarise(path string, runs []savedRun) (workloadRecord, error) {
	var rec workloadRecord
	values := map[string][]float64{}
	units := map[string]string{}
	for i, r := range runs {
		if r.host.GOMAXPROCS != runs[0].host.GOMAXPROCS || r.host.Workers != runs[0].host.Workers {
			return rec, fmt.Errorf("%s: run %d at GOMAXPROCS=%d workers=%d, run 1 at GOMAXPROCS=%d workers=%d",
				path, i+1, r.host.GOMAXPROCS, r.host.Workers, runs[0].host.GOMAXPROCS, runs[0].host.Workers)
		}
		if !r.res.Correct || r.res.Failed > 0 {
			return rec, fmt.Errorf("%s: run %d is not clean (correct=%t, failed=%d)", path, i+1, r.res.Correct, r.res.Failed)
		}
		rec.Attempted += r.res.Attempted
		if _, traced := r.res.Metrics[tracedMarker]; traced {
			if rec.PerLayer != nil {
				return rec, fmt.Errorf("%s: more than one traced run", path)
			}
			rec.PerLayer = r.res.Metrics
			continue
		}
		rec.Runs++
		for name, m := range r.res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	if rec.Runs == 0 {
		return rec, fmt.Errorf("%s: no untraced run", path)
	}
	rec.Host = runs[0].host
	rec.EndToEnd = map[string]summary{}
	for name, v := range values {
		sort.Float64s(v)
		rec.EndToEnd[name] = summary{Unit: units[name], Median: quantile(v, 0.5), Q1: quantile(v, 0.25), Q3: quantile(v, 0.75)}
	}
	return rec, nil
}

// quantile returns the q-quantile of sorted, interpolating linearly
// between the two nearest ranks: perfbench's rule.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// build reads every workload=file argument and returns the record's
// bytes.
func build(args []string) ([]byte, error) {
	if len(args) == 0 {
		return nil, errors.New("usage: benchjson [-out FILE] workload=file...")
	}
	rec := record{Workloads: map[string]workloadRecord{}}
	for _, arg := range args {
		name, path, ok := strings.Cut(arg, "=")
		if !ok || name == "" || path == "" {
			return nil, fmt.Errorf("argument %q: want workload=file", arg)
		}
		if _, dup := rec.Workloads[name]; dup {
			return nil, fmt.Errorf("workload %s given twice", name)
		}
		runs, err := readRuns(path)
		if err != nil {
			return nil, err
		}
		w, err := summarise(path, runs)
		if err != nil {
			return nil, err
		}
		rec.Workloads[name] = w
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	out := fs.String("out", "-", "record path (- for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	data, err := build(fs.Args())
	if err != nil {
		return err
	}
	if *out == "-" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
