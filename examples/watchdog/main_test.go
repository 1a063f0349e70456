package main

import (
	"bytes"
	"strings"
	"testing"
)

// verdictGolden is what the four verdict blocks print: the IDS's
// alerts, with their Detail text, on legitimate traffic and both of the
// paper's attacks.
const verdictGolden = `legitimate sensor reading          frame=true EVM=0.07 -> clean
scenario A advertising injection   frame=true EVM=0.37 -> ALERT
    [modulation-fingerprint] soft EVM 0.37 rad above threshold 0.27
    [ble-framing] BLE advertising preamble and Access Address precede the 802.15.4 frame
scenario B tracker spoofing        frame=true EVM=0.38 -> ALERT
    [modulation-fingerprint] soft EVM 0.38 rad above threshold 0.27
traffic on a forbidden channel     frame=true EVM=0.06 -> ALERT
    [unexpected-traffic] 802.15.4 frame on a channel with no deployed network

--- streaming: one sniffer producer, logger + IDS consumers ---
`

// The streaming section's two consumers run concurrently, so only the
// order within each consumer's lines is fixed.
var (
	loggerGolden = []string{
		"logger: seq=  1 0x0063->0x0042 LQI=255",
		"logger: seq=  2 0x0063->0x0042 LQI=255",
		"logger: seq=  3 0x0063->0x0042 LQI=255",
	}
	idsGolden = []string{
		"ids: live period (ch 14)           frame=true EVM=0.06 -> clean",
		"ids: live period (ch 14)           frame=true EVM=0.07 -> clean",
		"ids: live period (ch 14)           frame=true EVM=0.07 -> clean",
	}
)

func TestWatchdogOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, verdictGolden) {
		t.Fatalf("verdict blocks drifted:\n got:\n%s\nwant prefix:\n%s", out, verdictGolden)
	}
	var logger, idsLines []string
	for _, line := range strings.Split(strings.TrimSuffix(out[len(verdictGolden):], "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "logger: "):
			logger = append(logger, line)
		case strings.HasPrefix(line, "ids: "):
			idsLines = append(idsLines, line)
		default:
			t.Errorf("unexpected streaming line %q", line)
		}
	}
	for _, c := range []struct {
		name      string
		got, want []string
	}{{"logger", logger, loggerGolden}, {"ids", idsLines, idsGolden}} {
		if strings.Join(c.got, "\n") != strings.Join(c.want, "\n") {
			t.Errorf("%s lines drifted:\n got: %q\nwant: %q", c.name, c.got, c.want)
		}
	}
}
