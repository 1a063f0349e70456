package main

import (
	"bytes"
	"testing"
)

// golden is scenario B's whole output: the four steps EXPERIMENTS.md
// reports, the denial of service in between and the coordinator's
// display after the spoofed readings.
const golden = `attacker radio: nRF51822 (ESB 2M — no LE 2M, ESB fallback)
step 1 — active scan: network found on channel 14, PAN 0x1234, coordinator 0x0042
step 2 — eavesdropping: sensor address 0x0063
step 3 — AT command injected: sensor now on channel 25 (network is on 14)
         sensor sent 3 readings, coordinator received 0 of them
step 4 — spoofed readings acknowledged by the coordinator

coordinator display log (tail):
  from 0x0063 seq   1: value 1
  from 0x0063 seq   6: value 8080
  from 0x0063 seq   7: value 8081
  from 0x0063 seq   8: value 8082
`

func TestTrackerOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != golden {
		t.Fatalf("output drifted:\n got:\n%s\nwant:\n%s", got, golden)
	}
}
