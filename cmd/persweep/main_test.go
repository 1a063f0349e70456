package main

import (
	"bytes"
	"testing"
)

// persweepBase is a valid invocation that finishes in well under a second,
// so a bad setting that slipped through shows up as a completed run.
var persweepBase = []string{"-frames", "1", "-fidelity", "frame"}

func TestRunBaseline(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(persweepBase, &out, &errOut); err != nil {
		t.Fatalf("run(%v): %v", persweepBase, err)
	}
	if out.Len() == 0 {
		t.Fatalf("run(%v) printed nothing", persweepBase)
	}
}

// TestRunRejectsBadFlags checks that invalid input fails before any
// trial runs: an error, which main turns into exit status 1, and nothing
// on stdout.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, bad := range [][]string{
		{"-workers", "-3"},
		{"-ci", "NaN"},
		{"-ci", "-1"},
		{"-ci", "+Inf"},
		{"-ci", "-Inf"},
		{"-frames", "0"},
		{"-fidelity", "bogus"},
		{"-no-such-flag"},
	} {
		args := append(append([]string(nil), persweepBase...), bad...)
		var out, errOut bytes.Buffer
		if err := run(args, &out, &errOut); err == nil {
			t.Errorf("run(%v) accepted invalid input", bad)
		}
		if out.Len() > 0 {
			t.Errorf("run(%v) ran before failing:\n%s", bad, out.String())
		}
	}
}
