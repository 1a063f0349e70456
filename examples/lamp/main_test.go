package main

import (
	"bytes"
	"testing"
)

// golden is the whole output: the lamp's state after each of the four
// injected ZCL On/Off commands.
const golden = `lamp starts off
lamp: NWK 0x0b0b -> 0x4444, ZCL cmd 0x01 — lamp is now ON
lamp: NWK 0x0b0b -> 0x4444, ZCL cmd 0x02 — lamp is now off
lamp: NWK 0x0b0b -> 0x4444, ZCL cmd 0x02 — lamp is now ON
lamp: NWK 0x0b0b -> 0x4444, ZCL cmd 0x01 — lamp is now ON

full-stack Zigbee (MAC/NWK/APS/ZCL) spoken by a BLE radio
`

func TestLampOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != golden {
		t.Fatalf("output drifted:\n got:\n%s\nwant:\n%s", got, golden)
	}
}
