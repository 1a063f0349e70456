package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const sample = `goos: linux
goarch: amd64
pkg: wazabee
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkWazaBeeRX-4 	     200	    261553 ns/op	    225206 aa-correlate-ns/op	    5948 B/op	      90 allocs/op
BenchmarkWazaBeeRX-4 	     220	    241553 ns/op	    215206 aa-correlate-ns/op	    5900 B/op	      90 allocs/op
BenchmarkRxStream-4  	     200	    288145 ns/op	    2448 B/op	      59 allocs/op
PASS
ok  	wazabee	0.245s
`

func TestParseAggregates(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Pkg != "wazabee" || !strings.Contains(rep.CPU, "Xeon") {
		t.Errorf("preamble = %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("%d benchmarks, want 2", len(rep.Benchmarks))
	}
	byName := map[string]Result{}
	for _, b := range rep.Benchmarks {
		byName[b.Name] = b
	}
	rx := byName["BenchmarkWazaBeeRX"]
	if rx.Runs != 2 {
		t.Errorf("runs = %d, want 2 (GOMAXPROCS suffix stripped, counts merged)", rx.Runs)
	}
	if rx.NsPerOp != (261553.0+241553.0)/2 {
		t.Errorf("ns/op mean = %v", rx.NsPerOp)
	}
	if rx.AllocsPerOp != 90 || rx.BytesPerOp != 5924 {
		t.Errorf("mem = %v B/op, %v allocs/op", rx.BytesPerOp, rx.AllocsPerOp)
	}
	if rx.Metrics["aa-correlate-ns/op"] != (225206.0+215206.0)/2 {
		t.Errorf("extra metric = %v", rx.Metrics["aa-correlate-ns/op"])
	}
	stream := byName["BenchmarkRxStream"]
	if stream.Runs != 1 || stream.AllocsPerOp != 59 || stream.Metrics != nil {
		t.Errorf("stream entry = %+v", stream)
	}
	if _, err := parse(strings.NewReader("PASS\n")); err != nil {
		t.Errorf("empty input must parse (error handled by run): %v", err)
	}
}

// TestParseGOMAXPROCSSuffix: only the -N that go test appends to every
// benchmark line is a GOMAXPROCS suffix. At GOMAXPROCS=1 there is none,
// so sub-benchmarks whose names end in digits stay distinct.
func TestParseGOMAXPROCSSuffix(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want map[string]int // benchmark name → runs
	}{
		{
			name: "GOMAXPROCS=1",
			in: `BenchmarkRunnerSweep/workers-4 	       5	 200000000 ns/op
BenchmarkRunnerSweep/workers-4 	       5	 210000000 ns/op
BenchmarkRunnerSweep/workers-8 	       5	 190000000 ns/op
BenchmarkSimEventLoop          	       2	 600000000 ns/op
`,
			want: map[string]int{
				"BenchmarkRunnerSweep/workers-4": 2,
				"BenchmarkRunnerSweep/workers-8": 1,
				"BenchmarkSimEventLoop":          1,
			},
		},
		{
			name: "GOMAXPROCS=2",
			in: `BenchmarkRunnerSweep/workers-4-2 	       5	 200000000 ns/op
BenchmarkRunnerSweep/workers-4-2 	       5	 210000000 ns/op
BenchmarkRunnerSweep/workers-8-2 	       5	 190000000 ns/op
BenchmarkSimEventLoop-2          	       2	 600000000 ns/op
`,
			want: map[string]int{
				"BenchmarkRunnerSweep/workers-4": 2,
				"BenchmarkRunnerSweep/workers-8": 1,
				"BenchmarkSimEventLoop":          1,
			},
		},
		{
			name: "GOMAXPROCS=1 single sub-benchmark",
			in: `BenchmarkRunnerSweep/workers-4 	       5	 200000000 ns/op
BenchmarkSimEventLoop          	       2	 600000000 ns/op
`,
			want: map[string]int{
				"BenchmarkRunnerSweep/workers-4": 1,
				"BenchmarkSimEventLoop":          1,
			},
		},
		{
			name: "-cpu 1,2",
			in: `BenchmarkSimEventLoop   	       2	 600000000 ns/op
BenchmarkSimEventLoop-2 	       2	 400000000 ns/op
`,
			want: map[string]int{
				"BenchmarkSimEventLoop":   1,
				"BenchmarkSimEventLoop-2": 1,
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep, err := parse(strings.NewReader(c.in))
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]int{}
			for _, b := range rep.Benchmarks {
				got[b.Name] = b.Runs
			}
			if len(got) != len(c.want) {
				t.Fatalf("benchmarks %v, want %v", got, c.want)
			}
			for name, runs := range c.want {
				if got[name] != runs {
					t.Errorf("%s: runs %d, want %d (all: %v)", name, got[name], runs, got)
				}
			}
		})
	}
}

// TestHistoryAppends checks the perf-trajectory log: each run with new
// numbers appends one timestamped JSON line, never truncating earlier
// entries, while a rerun with identical numbers is deduplicated (see
// TestHistoryDedupesConsecutiveDuplicates).
func TestHistoryAppends(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.out")
	hist := filepath.Join(dir, "BENCH_history.jsonl")
	// Two runs with different numbers: both must survive.
	changed := strings.Replace(sample, "288145 ns/op", "250000 ns/op", 1)
	for i, text := range []string{sample, changed} {
		if err := os.WriteFile(in, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(in, filepath.Join(dir, "BENCH.json"), hist); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	f, err := os.Open(hist)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines++
		var rec struct {
			At         string   `json:"at"`
			Goos       string   `json:"goos"`
			Benchmarks []Result `json:"benchmarks"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("history line %d is not valid JSON: %v", lines, err)
		}
		if _, err := time.Parse(time.RFC3339, rec.At); err != nil {
			t.Fatalf("history line %d timestamp %q: %v", lines, rec.At, err)
		}
		if rec.Goos != "linux" || len(rec.Benchmarks) != 2 {
			t.Fatalf("history line %d lost the report: %+v", lines, rec)
		}
	}
	if lines != 2 {
		t.Fatalf("%d history lines after two runs, want 2", lines)
	}
}

// TestHistoryDedupesConsecutiveDuplicates checks that re-running the
// converter over unchanged bench numbers does not grow the history: the
// last line already carries that report (timestamp aside), so the append
// is skipped. A later run with different numbers must append again.
func TestHistoryDedupesConsecutiveDuplicates(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.out")
	hist := filepath.Join(dir, "BENCH_history.jsonl")
	lines := func() int {
		f, err := os.Open(hist)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		n := 0
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if strings.TrimSpace(sc.Text()) != "" {
				n++
			}
		}
		return n
	}

	if err := os.WriteFile(in, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := run(in, filepath.Join(dir, "BENCH.json"), hist); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if got := lines(); got != 1 {
		t.Fatalf("%d history lines after three identical runs, want 1 (duplicates must dedupe)", got)
	}

	changed := strings.Replace(sample, "288145 ns/op", "123456 ns/op", 1)
	if err := os.WriteFile(in, []byte(changed), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(in, filepath.Join(dir, "BENCH.json"), hist); err != nil {
		t.Fatal(err)
	}
	if got := lines(); got != 2 {
		t.Fatalf("%d history lines after a changed report, want 2", got)
	}
	// And duplicates of the *new* last line dedupe too.
	if err := run(in, filepath.Join(dir, "BENCH.json"), hist); err != nil {
		t.Fatal(err)
	}
	if got := lines(); got != 2 {
		t.Fatalf("%d history lines after re-running the changed report, want 2", got)
	}
}
