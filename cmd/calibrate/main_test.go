package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
		path := filepath.Join(t.TempDir(), "t.json")
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
// against a fresh fit, and checks that a single changed byte is caught
// as drift naming the file.
func TestRunWriteThenCheck(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.json")
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
	i := bytes.IndexByte(data, '1') // the "version": 1 digit
	if i < 0 {
		t.Fatalf("no digit to flip in %s", path)
	}
	data[i] = '2'
	bad := filepath.Join(dir, "drifted.json")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-q", "-frames", "1", "-out", bad, "-check"}, &out, &errOut)
	if err == nil {
		t.Fatal("-check accepted a table with one byte changed")
	}
	if !strings.Contains(err.Error(), bad) {
		t.Errorf("drift error %q does not name %s", err, bad)
	}
}
