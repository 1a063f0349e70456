package main

import (
	"bytes"
	"testing"
)

// golden is the quickstart's whole output: both primitives' decoded
// payloads, the symbol 0 row of the correspondence table and the Access
// Address the diverted receiver correlates.
const golden = `BLE chip -> Zigbee radio: "hello zigbee" (FCS ok: true)
Zigbee radio -> BLE chip: "hello ble" (worst chip distance 0)

symbol 0 PN : 11011001110000110101001000101110
symbol 0 MSK: 1100000011101111010111001101100
BLE access address for 802.15.4 detection: 0x9b3af703
`

func TestQuickstartOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != golden {
		t.Fatalf("output drifted:\n got:\n%s\nwant:\n%s", got, golden)
	}
}
