package main

import (
	"bytes"
	"testing"
)

// golden is the whole output: the compressed datagram's size and the
// IPv6/UDP packet the victim decompresses.
const golden = `IPv6(40B) + UDP(8B) + 15B payload compressed to 22 bytes of 6LoWPAN
victim received (FCS ok: true):
  IPv6 0b0b -> 0001 hop=64
  UDP 5683 -> 5683
  payload: "PUT /light?on=1"

a BLE chip just spoke Thread — no 802.15.4 hardware involved
`

func TestThreadOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != golden {
		t.Fatalf("output drifted:\n got:\n%s\nwant:\n%s", got, golden)
	}
}
