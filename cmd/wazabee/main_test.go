package main

import "testing"

// TestLinkRejectsNonFiniteSNR: a NaN or -Inf -snr used to sound the link
// with all-NaN captures and exit 0 after reporting every frame as lost.
func TestLinkRejectsNonFiniteSNR(t *testing.T) {
	for _, snr := range []string{"NaN", "-Inf"} {
		if err := run([]string{"link", "-frames", "2", "-snr", snr}); err == nil {
			t.Errorf("link -snr %s: expected an error", snr)
		}
	}
}
