package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags checks that invalid input fails before the
// sweep starts: an error, and nothing on stdout (the ROC table and the
// digest are printed only after the sweep).
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-scenarios", "no-such-scenario"},
		{"-fidelity", "iq"},
		{"-trials", "0"},
		{"-workers", "-1"},
		{"-thresholds", "NaN"},
		{"-thresholds", "0.2,+Inf"},
		{"-thresholds", "-0.3"},
		{"-thresholds", "0.2,abc"},
		{"-snr", "NaN"},
		{"-snr", "-Inf"},
		// Values campaign.Options would silently replace by defaults.
		{"-duration", "-1s"},
		{"-devices", "-2"},
		{"-impact", "-1"},
	} {
		var out, errOut bytes.Buffer
		if err := run(args, &out, &errOut); err == nil {
			t.Errorf("run(%v) accepted invalid input", args)
		}
		if out.Len() > 0 {
			t.Errorf("run(%v) swept before failing:\n%s", args, out.String())
		}
	}
}

func TestRunList(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-list"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"benign-baseline", "scenario-a-injection", "channel-migration"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %q:\n%s", want, out.String())
		}
	}
}
