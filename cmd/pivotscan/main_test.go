package main

import (
	"bytes"
	"testing"
)

// pivotscanBase is a valid invocation that finishes in well under a second,
// so a bad setting that slipped through shows up as a completed run.
var pivotscanBase = []string{"-bursts", "2"}

func TestRunBaseline(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(pivotscanBase, &out, &errOut); err != nil {
		t.Fatalf("run(%v): %v", pivotscanBase, err)
	}
	if out.Len() == 0 {
		t.Fatalf("run(%v) printed nothing", pivotscanBase)
	}
}

// TestRunRejectsBadFlags checks that invalid input fails before any
// trial runs: an error, which main turns into exit status 1, and nothing
// on stdout.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, bad := range [][]string{
		{"-workers", "-3"},
		{"-bursts", "1", "-workers", "-3"},
		{"-ci", "NaN"},
		{"-ci", "-1"},
		{"-ci", "+Inf"},
		{"-ci", "-Inf"},
		{"-bursts", "0"},
		{"-fidelity", "frame"}, // no such flag: the survey only exists at IQ
		{"-no-such-flag"},
	} {
		args := append(append([]string(nil), pivotscanBase...), bad...)
		var out, errOut bytes.Buffer
		if err := run(args, &out, &errOut); err == nil {
			t.Errorf("run(%v) accepted invalid input", bad)
		}
		if out.Len() > 0 {
			t.Errorf("run(%v) ran before failing:\n%s", bad, out.String())
		}
	}
}
