package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRunSmoke drives the CLI end-to-end on a small mesh and checks the
// human-readable summary carries the load-bearing numbers.
func TestRunSmoke(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-topology", "star", "-nodes", "5", "-duration", "10s"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	text := out.String()
	for _, want := range []string{"topology star: 6 nodes", "joined 6/6", "digest sha256:"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestRunDeterministicDigest pins the CLI-level determinism claim: two
// invocations with identical flags print the identical digest, and a
// different seed prints a different one.
func TestRunDeterministicDigest(t *testing.T) {
	digest := func(seed string) string {
		var out, errOut bytes.Buffer
		if err := run([]string{"-topology", "tree", "-depth", "2", "-fanout", "4",
			"-seed", seed, "-duration", "15s"}, &out, &errOut); err != nil {
			t.Fatal(err)
		}
		m := regexp.MustCompile(`sha256:([0-9a-f]{64})`).FindStringSubmatch(out.String())
		if m == nil {
			t.Fatalf("no digest in output:\n%s", out.String())
		}
		return m[1]
	}
	a, b, c := digest("42"), digest("42"), digest("43")
	if a != b {
		t.Fatalf("same-seed digests differ: %s vs %s", a, b)
	}
	if a == c {
		t.Fatal("different seeds produced the same digest")
	}
}

func TestRunJSONSummary(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-topology", "random", "-nodes", "30", "-duration", "10s", "-json"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	var sum summary
	if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
		t.Fatalf("summary is not valid JSON: %v\n%s", err, out.String())
	}
	if sum.Nodes != 30 || sum.Stats.Frames == 0 || sum.Digest == "" {
		t.Fatalf("implausible summary: %+v", sum)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-topology", "mesh"},
		{"-duration", "0s"},
		{"-energy", "-chip", "esp32"},
		// Negative sizes must be flag errors, not generator panics.
		{"-topology", "star", "-nodes", "-3"},
		{"-topology", "tree", "-nodes", "-1"},
		{"-topology", "random", "-nodes", "-10"},
		// A tree the generator would silently clamp.
		{"-topology", "tree", "-depth", "0"},
		{"-topology", "tree", "-depth", "-1"},
		{"-topology", "tree", "-fanout", "0"},
		// A NaN SNR once panicked in the calibration-table lookup.
		{"-topology", "star", "-nodes", "2", "-snr", "NaN"},
		{"-topology", "star", "-nodes", "2", "-snr", "-Inf"},
		// Values sim.Config or the batch loop would silently replace.
		{"-topology", "star", "-nodes", "2", "-batch", "-1s"},
		{"-topology", "star", "-nodes", "2", "-beacon-interval", "0s"},
		{"-topology", "star", "-nodes", "2", "-beacon-interval", "-2s"},
		{"-topology", "star", "-nodes", "2", "-data-interval", "0s"},
		{"-topology", "star", "-nodes", "2", "-data-interval", "-2s"},
	} {
		var out, errOut bytes.Buffer
		if err := run(args, &out, &errOut); err == nil {
			t.Errorf("run(%v) accepted invalid input", args)
		}
		if out.Len() > 0 {
			t.Errorf("run(%v) simulated before failing:\n%s", args, out.String())
		}
	}
}

// TestRunTraceExport drives the observatory flags end-to-end: the trace
// file validates as Chrome trace-event JSON, is byte-identical across
// two same-seed runs, and the energy/node reports land in the output.
func TestRunTraceExport(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(path string) (string, string) {
		var out, errOut bytes.Buffer
		err := run([]string{"-topology", "tree", "-depth", "2", "-fanout", "3",
			"-duration", "10s", "-trace", path, "-validate-trace",
			"-energy", "-node-report", "3"}, &out, &errOut)
		if err != nil {
			t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data), out.String()
	}
	traceA, textA := runOnce(filepath.Join(dir, "a.json"))
	traceB, _ := runOnce(filepath.Join(dir, "b.json"))
	if traceA != traceB {
		t.Fatal("same-seed traces differ byte-for-byte")
	}
	for _, want := range []string{"energy ", "µJ total", "cc2652", "sim observatory", "trace written to"} {
		if !strings.Contains(textA, want) {
			t.Errorf("output missing %q:\n%s", want, textA)
		}
	}
}

// TestRunJSONCarriesObservatory checks the machine-readable summary
// gains the heap high-water marks and, with telemetry on, energy totals.
func TestRunJSONCarriesObservatory(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-topology", "star", "-nodes", "5", "-duration", "10s",
		"-telemetry", "-json"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	var sum summary
	if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
		t.Fatalf("summary is not valid JSON: %v\n%s", err, out.String())
	}
	if sum.Heap.Executed == 0 || sum.Heap.MaxDepth == 0 {
		t.Fatalf("heap report empty: %+v", sum.Heap)
	}
	if sum.EnergyMicrojoules <= 0 || sum.Chip != "cc2652" {
		t.Fatalf("energy report missing: chip=%q energy=%v", sum.Chip, sum.EnergyMicrojoules)
	}
	if sum.Stats.Retries == 0 && sum.RadioSeconds["tx"] <= 0 {
		t.Fatalf("radio seconds missing: %+v", sum.RadioSeconds)
	}
}

// TestRunMetricsAddr checks -metrics-addr binds, announces its address
// and serves the run without disturbing it; a bad address errors out.
func TestRunMetricsAddr(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-topology", "star", "-nodes", "4", "-duration", "5s",
		"-telemetry", "-metrics-addr", "127.0.0.1:0"}, &out, &errOut); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	if !regexp.MustCompile(`serving /metrics, /healthz, /debug/sim and /debug/pprof on 127\.0\.0\.1:\d+`).MatchString(errOut.String()) {
		t.Fatalf("no metrics-server announcement on stderr:\n%s", errOut.String())
	}

	var o, e bytes.Buffer
	if err := run([]string{"-duration", "1s", "-metrics-addr", "256.0.0.1:0"}, &o, &e); err == nil {
		t.Fatal("bad -metrics-addr accepted")
	}
}
