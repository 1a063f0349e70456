package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestOverAir runs one frame across each side's link and the link
// sounder, checking what each prints.
func TestOverAir(t *testing.T) {
	for _, c := range []struct {
		args []string
		want []string
	}{
		{[]string{"tx"}, []string{
			"WazaBee TX on nRF52832: 15-byte PSDU",
			"802.15.4 RX (RZUSBStick): frame received",
			"PSDU: 418801341242006300cafe004248c2",
		}},
		{[]string{"rx"}, []string{
			"802.15.4 TX (RZUSBStick): 15-byte PSDU",
			"WazaBee RX on nRF52832: frame received",
			"PSDU: 418801341242006300cafe004248c2",
		}},
		{[]string{"tx", "-metrics"}, []string{
			"frame received",
			"=== span trace ===\ntrace wazabee tx, nRF52832, channel 14\n  modulate ",
			"\n  medium ",
			"\n  demod ",
			"\n  despread ",
			"wazabee_frames_transmitted_total 1",
		}},
		{[]string{"link", "-frames", "2"}, []string{
			"sounding channel 14 (2420 MHz), nRF52832 receiving, 2 frames",
			"per-channel aggregate:",
		}},
	} {
		var out, errOut bytes.Buffer
		if err := run(c.args, &out, &errOut); err != nil {
			t.Fatalf("run(%v): %v", c.args, err)
		}
		for _, w := range c.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("run(%v) output lacks %q:\n%s", c.args, w, out.String())
			}
		}
	}
}

// TestLinkRejectsNonFiniteSNR: a NaN or -Inf -snr must fail before the
// table header is printed, not sound the link with all-NaN captures and
// report every frame as lost.
func TestLinkRejectsNonFiniteSNR(t *testing.T) {
	for _, snr := range []string{"NaN", "-Inf"} {
		var out, errOut bytes.Buffer
		if err := run([]string{"link", "-frames", "2", "-snr", snr}, &out, &errOut); err == nil {
			t.Errorf("link -snr %s: expected an error", snr)
		}
		if out.Len() > 0 {
			t.Errorf("link -snr %s printed before failing:\n%s", snr, out.String())
		}
	}
}

// TestRunRejectsBadInput checks that invalid input fails before anything
// goes on the air: an error, which main turns into exit status 1, and
// nothing on stdout.
func TestRunRejectsBadInput(t *testing.T) {
	for _, bad := range [][]string{
		{"tx", "-snr", "NaN"},
		{"tx", "-snr", "-Inf"},
		{"rx", "-snr", "NaN"},
		{"rx", "-snr", "-Inf"},
		{"tx", "-chip", "cc2640"},
		{"rx", "-chip", "cc2640"},
		{"link", "-chip", "cc2640"},
		{"tx", "-channel", "99"},
		{"rx", "-channel", "99"},
		{"link", "-channel", "99"},
		{"tx", "-payload", "abc"},
		{"rx", "-payload", "abc"},
		{"link", "-frames", "0"},
		{"tx", "-no-such-flag"},
		{"sniff"},
		{},
	} {
		var out, errOut bytes.Buffer
		if err := run(bad, &out, &errOut); err == nil {
			t.Errorf("run(%v) accepted invalid input", bad)
		}
		if out.Len() > 0 {
			t.Errorf("run(%v) printed before failing:\n%s", bad, out.String())
		}
	}
}
