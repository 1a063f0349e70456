package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const (
	hostLine    = `host {"nproc":2,"gomaxprocs":2,"workers":2,"go":"go1.24.0","cpu":"Test CPU"}`
	hostSerial  = `host {"nproc":2,"gomaxprocs":2,"workers":1,"go":"go1.24.0","cpu":"Test CPU"}`
	hostWide    = `host {"nproc":4,"gomaxprocs":4,"workers":4,"go":"go1.24.0","cpu":"Test CPU"}`
	tracedTable = `{"correct":true,"attempted":3072,"failed":0,"metrics":{"core.receive.share":{"value":0.25,"unit":"ratio"},"trace.overhead_ratio":{"value":0.125,"unit":"ratio"}}}`
)

// untraced is a --trace 0 result line.
func untraced(ops, setup string) string {
	return `{"correct":true,"attempted":1024,"failed":0,"metrics":{"ops_per_cpu_s":{"value":` + ops + `,"unit":"1/s"},"setup_s":{"value":` + setup + `,"unit":"s"}}}`
}

// saved joins perfbench output lines, with the human-readable lines
// perfbench prints between host and result that benchjson skips.
func saved(lines ...string) string {
	var b strings.Builder
	for _, l := range lines {
		if strings.HasPrefix(l, "{") {
			b.WriteString("table3-iq seed 1: 3 rounds, output sha256:00\n")
		}
		b.WriteString(l + "\n")
	}
	return b.String()
}

// fixture writes one file per workload and returns the workload=file
// arguments.
func fixture(t *testing.T, files map[string]string) []string {
	t.Helper()
	dir := t.TempDir()
	var args []string
	for name, body := range files {
		path := filepath.Join(dir, name+".txt")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		args = append(args, name+"="+path)
	}
	sort.Strings(args)
	return args
}

// The fixture's end-to-end figures are exact binary fractions, so the
// expected record is exact. Worked by hand for table3-iq ops_per_cpu_s
// over {600, 640}: position 0.5·(2−1) = 0.5 gives the median
// 600 + 0.5·40 = 620, and position 0.25 gives Q1 = 600 + 0.25·40 = 610.
const wantRecord = `{
  "workloads": {
    "mesh-tree": {
      "host": {
        "nproc": 2,
        "gomaxprocs": 2,
        "workers": 1,
        "go": "go1.24.0",
        "cpu": "Test CPU"
      },
      "runs": 2,
      "attempted": 2560,
      "failed": 0,
      "end_to_end": {
        "ops_per_cpu_s": {
          "unit": "1/s",
          "median": 148,
          "q1": 147,
          "q3": 149
        },
        "setup_s": {
          "unit": "s",
          "median": 0.046875,
          "q1": 0.0390625,
          "q3": 0.0546875
        }
      },
      "per_layer": {
        "sim.ns_per_event": {
          "value": 80,
          "unit": "ns"
        },
        "trace.overhead_ratio": {
          "value": 0.5,
          "unit": "ratio"
        }
      }
    },
    "table3-iq": {
      "host": {
        "nproc": 2,
        "gomaxprocs": 2,
        "workers": 2,
        "go": "go1.24.0",
        "cpu": "Test CPU"
      },
      "runs": 2,
      "attempted": 5120,
      "failed": 0,
      "end_to_end": {
        "ops_per_cpu_s": {
          "unit": "1/s",
          "median": 620,
          "q1": 610,
          "q3": 630
        },
        "setup_s": {
          "unit": "s",
          "median": 0.625,
          "q1": 0.5625,
          "q3": 0.6875
        }
      },
      "per_layer": {
        "core.receive.share": {
          "value": 0.25,
          "unit": "ratio"
        },
        "trace.overhead_ratio": {
          "value": 0.125,
          "unit": "ratio"
        }
      }
    }
  }
}
`

func goodFiles() map[string]string {
	return map[string]string{
		"table3-iq": saved(hostLine, untraced("640", "0.5"), hostLine, untraced("600", "0.75"), hostLine, tracedTable),
		"mesh-tree": saved(hostSerial, untraced("146", "0.0625"), hostSerial,
			`{"correct":true,"attempted":512,"failed":0,"metrics":{"sim.ns_per_event":{"value":80,"unit":"ns"},"trace.overhead_ratio":{"value":0.5,"unit":"ratio"}}}`,
			hostSerial, untraced("150", "0.03125")),
	}
}

func TestConvertFixture(t *testing.T) {
	args := fixture(t, goodFiles())
	out := filepath.Join(t.TempDir(), "BENCH.json")
	if err := run(append([]string{"-out", out}, args...), nil); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != wantRecord {
		t.Errorf("record:\n%s\nwant:\n%s", got, wantRecord)
	}
}

// TestConvertReproducible: the same files, in either argument order,
// give the same bytes.
func TestConvertReproducible(t *testing.T) {
	args := fixture(t, goodFiles())
	var first, second bytes.Buffer
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{args[1], args[0]}, &second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Errorf("second conversion differs:\n%s\nfirst:\n%s", second.String(), first.String())
	}
}

func TestConvertRefuses(t *testing.T) {
	traced := tracedTable
	cases := []struct {
		name  string
		files map[string]string
		args  []string // extra arguments after the fixture's
		want  string
	}{
		{"result without host", map[string]string{"w": saved(untraced("1", "1"))}, nil, "without a host line"},
		{"second result without host", map[string]string{"w": saved(hostLine, untraced("1", "1"), untraced("2", "1"))}, nil, "without a host line"},
		{"GOMAXPROCS differs", map[string]string{"w": saved(hostLine, untraced("1", "1"), hostWide, untraced("2", "1"))}, nil, "GOMAXPROCS=4"},
		{"workers differ", map[string]string{"w": saved(hostLine, untraced("1", "1"), hostSerial, untraced("2", "1"))}, nil, "workers=1"},
		{"traced run at other workers", map[string]string{"w": saved(hostLine, untraced("1", "1"), hostSerial, traced)}, nil, "workers=1"},
		{"not correct", map[string]string{"w": saved(hostLine, strings.Replace(untraced("1", "1"), `"correct":true`, `"correct":false`, 1))}, nil, "not clean"},
		{"failed ops", map[string]string{"w": saved(hostLine, strings.Replace(untraced("1", "1"), `"failed":0`, `"failed":3`, 1))}, nil, "not clean"},
		{"failed traced run", map[string]string{"w": saved(hostLine, untraced("1", "1"), hostLine, strings.Replace(traced, `"failed":0`, `"failed":1`, 1))}, nil, "not clean"},
		{"only a traced run", map[string]string{"w": saved(hostLine, traced)}, nil, "no untraced run"},
		{"no runs", map[string]string{"w": "perfbench: build failed\n"}, nil, "no untraced run"},
		{"two traced runs", map[string]string{"w": saved(hostLine, untraced("1", "1"), hostLine, traced, hostLine, traced)}, nil, "more than one traced run"},
		{"bad host line", map[string]string{"w": "host {\n" + untraced("1", "1") + "\n"}, nil, "host line"},
		{"bad result line", map[string]string{"w": hostLine + "\n" + `{"correct":tru}` + "\n"}, nil, "result line"},
		{"no arguments", nil, nil, "usage"},
		{"argument without =", nil, []string{"table3-iq"}, "want workload=file"},
		{"empty workload", nil, []string{"=x.txt"}, "want workload=file"},
		{"empty file", nil, []string{"table3-iq="}, "want workload=file"},
		{"missing file", nil, []string{"w=" + filepath.Join(t.TempDir(), "absent.txt")}, "no such file"},
		{"repeated workload", map[string]string{"w": saved(hostLine, untraced("1", "1"))}, []string{"w=elsewhere.txt"}, "given twice"},
		{"unknown flag", nil, []string{"-in", "bench.out"}, "flag provided but not defined"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := append(fixture(t, c.files), c.args...)
			out := filepath.Join(t.TempDir(), "BENCH.json")
			var stdout bytes.Buffer
			err := run(append([]string{"-out", out}, args...), &stdout)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want one containing %q", err, c.want)
			}
			if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
				t.Errorf("-out file written despite the error (stat: %v)", statErr)
			}
			if stdout.Len() != 0 {
				t.Errorf("wrote to stdout: %q", stdout.String())
			}
		})
	}
}

// TestCommittedRecordMatchesBenchmark pins the checked-in BENCH.json to
// BENCHMARK.json: the same workloads, every end-to-end metric with its
// unit and ordered quartiles over at least five clean runs, and every
// per-layer metric. A BENCHMARK.json change without a `make bench`
// fails here.
func TestCommittedRecordMatchesBenchmark(t *testing.T) {
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	// Unknown fields are refused, so nothing but this program's record
	// (no go-test benchmark entry, say) can sit in the file.
	data, err = os.ReadFile("../../BENCH.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec record
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		t.Fatalf("BENCH.json: %v", err)
	}
	if len(rec.Workloads) != len(bench.Workloads) {
		t.Errorf("BENCH.json has %d workloads, BENCHMARK.json %d", len(rec.Workloads), len(bench.Workloads))
	}
	for _, wl := range bench.Workloads {
		w, ok := rec.Workloads[wl.Name]
		if !ok {
			t.Errorf("BENCH.json lacks workload %s", wl.Name)
			continue
		}
		if w.Runs < 5 || w.Failed != 0 {
			t.Errorf("%s: %d runs, %d failed; want at least 5 and 0", wl.Name, w.Runs, w.Failed)
		}
		for _, m := range bench.EndToEnd {
			s, ok := w.EndToEnd[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: no end-to-end %s", wl.Name, m.Name)
			case s.Unit != m.Unit:
				t.Errorf("%s: %s in %q, BENCHMARK.json says %q", wl.Name, m.Name, s.Unit, m.Unit)
			case !(s.Q1 <= s.Median && s.Median <= s.Q3):
				t.Errorf("%s: %s quartiles out of order: Q1 %g, median %g, Q3 %g", wl.Name, m.Name, s.Q1, s.Median, s.Q3)
			}
		}
		for _, m := range bench.PerLayer {
			v, ok := w.PerLayer[m.Name]
			if !ok {
				t.Errorf("%s: no per-layer %s", wl.Name, m.Name)
			} else if v.Unit != m.Unit {
				t.Errorf("%s: %s in %q, BENCHMARK.json says %q", wl.Name, m.Name, v.Unit, m.Unit)
			}
		}
	}
}
