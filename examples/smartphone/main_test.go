package main

import (
	"bytes"
	"testing"
)

// golden is scenario A's whole output. EXPERIMENTS.md quotes its
// advertising-event counts (61–166) as the CSA#2 lottery observed in
// this run.
const golden = `target: Zigbee channel 14 == BLE data channel 8
advertising-PDU overhead before attacker data: 16 bytes
forged reading 2222 injected after 166 advertising events (CSA#2 lottery)
forged reading 3333 injected after 61 advertising events (CSA#2 lottery)
forged reading 4444 injected after 109 advertising events (CSA#2 lottery)

coordinator display log:
  from 0x0063 seq  40: value 2222
  from 0x0063 seq  41: value 3333
  from 0x0063 seq  42: value 4444

all forged data packets accepted by the legitimate coordinator
`

func TestSmartphoneOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != golden {
		t.Fatalf("output drifted:\n got:\n%s\nwant:\n%s", got, golden)
	}
}
