package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// savedRun is one run read back from saved benchmark output.
type savedRun struct {
	host host
	res  result
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
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return runs, nil
}

// compare prints each metric's median over the runs saved in two
// files. It refuses runs made at different GOMAXPROCS or worker
// counts: their throughputs measure different machines.
func compare(args []string, out io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare OLD NEW")
	}
	var sides [2][]savedRun
	for i, path := range args {
		runs, err := readRuns(path)
		if err != nil {
			return err
		}
		sides[i] = runs
	}
	ref := sides[0][0].host
	for i, runs := range sides {
		for _, r := range runs {
			if r.host.GOMAXPROCS != ref.GOMAXPROCS || r.host.Workers != ref.Workers {
				return fmt.Errorf("refusing to compare: %s has a run at GOMAXPROCS=%d workers=%d, %s starts at GOMAXPROCS=%d workers=%d",
					args[i], r.host.GOMAXPROCS, r.host.Workers, args[0], ref.GOMAXPROCS, ref.Workers)
			}
		}
	}
	values := [2]map[string][]float64{{}, {}}
	units := map[string]string{}
	for i, runs := range sides {
		for _, r := range runs {
			for name, m := range r.res.Metrics {
				values[i][name] = append(values[i][name], m.Value)
				units[name] = m.Unit
			}
		}
	}
	var names []string
	for name := range units {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "GOMAXPROCS=%d workers=%d, %d vs %d runs\n", ref.GOMAXPROCS, ref.Workers, len(sides[0]), len(sides[1]))
	fmt.Fprintf(out, "%-42s %14s %14s %9s\n", "metric", "old median", "new median", "change")
	for _, name := range names {
		a, b := values[0][name], values[1][name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		ma, mb := median(a), median(b)
		change := "-"
		if ma != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(mb-ma)/ma)
		}
		fmt.Fprintf(out, "%-42s %14.4f %14.4f %9s %s\n", name, ma, mb, change, units[name])
	}
	return nil
}
