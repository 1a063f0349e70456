package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wazabee/internal/radio"
)

// TestRunRejectsBadFlags checks that invalid input fails before the fit
// writes anything: an error, which main turns into exit status 1 (not
// the flag package's 2), and no file at -out.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, bad := range [][]string{
		{"-no-such-flag"},
		{"-frames", "0"},
		{"-sps", "0"},
		{"stray"},
	} {
		path := filepath.Join(t.TempDir(), "t.txt")
		args := append([]string{"-q", "-out", path}, bad...)
		var out, errOut bytes.Buffer
		if err := run(args, &out, &errOut); err == nil {
			t.Errorf("run(%v) accepted invalid input", bad)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("run(%v) wrote %s before failing (stat: %v)", bad, path, err)
		}
		if out.Len() > 0 {
			t.Errorf("run(%v) reported an outcome:\n%s", bad, out.String())
		}
	}
}

// TestRunWriteThenCheck writes a one-frame-per-cell table, checks it
// against a fresh fit, and checks that a single changed tally digit is
// caught as drift naming the file, the profile and the grid cell.
func TestRunWriteThenCheck(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.txt")
	var out, errOut bytes.Buffer
	if err := run([]string{"-q", "-frames", "1", "-out", path}, &out, &errOut); err != nil {
		t.Fatalf("write: %v\n%s", err, errOut.String())
	}
	if err := run([]string{"-q", "-frames", "1", "-out", path, "-check"}, &out, &errOut); err != nil {
		t.Fatalf("check of a fresh write: %v", err)
	}
	if !strings.Contains(out.String(), "matches a fresh fit") {
		t.Errorf("check printed %q, want a match report", out.String())
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	table, err := radio.ParseCalTable(data)
	if err != nil {
		t.Fatal(err)
	}
	// The first profile's first cell line follows its name and three
	// axis lines; with one frame per cell its fail count is 0 or 1.
	lines := strings.SplitAfter(string(data), "\n")
	name := strings.TrimSpace(strings.TrimPrefix(lines[1], "profile "))
	p := table.Profiles[name]
	if p == nil {
		t.Fatalf("line 2 %q names no profile", lines[1])
	}
	lines[5] = map[byte]string{'0': "1", '1': "0"}[lines[5][0]] + lines[5][1:]
	bad := filepath.Join(dir, "drifted.txt")
	if err := os.WriteFile(bad, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-q", "-frames", "1", "-out", bad, "-check"}, &out, &errOut)
	if err == nil {
		t.Fatal("-check accepted a table with one tally changed")
	}
	cell := fmt.Sprintf("(SNR %g dB, |CFO| %g Hz, WiFi %g)", p.SNRdB[0], p.CFOHz[0], p.WiFi[0])
	for _, want := range []string{bad, fmt.Sprintf("profile %q", name), cell, "95% CI"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("drift error does not name %s:\n%v", want, err)
		}
	}
}
