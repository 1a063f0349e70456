package main

import (
	"bytes"
	"testing"
)

// golden is the whole output: scenario B succeeds step by step on the
// open network, and both injections are rejected once CCM* is on.
const golden = `--- open network (paper's setup) ---
scan:        found PAN 0x1234 on channel 14
eavesdrop:   sensor address 0x0063
AT inject:   sensor moved to channel 25 (DoS)
spoof:       coordinator displays forged value 6666

--- secured network (CCM*, section VII counter-measure) ---
scan:        found PAN 0x1234 on channel 14
eavesdrop:   sensor address 0x0063
AT inject:   REJECTED — attack: no AT response from sensor 0x0063
spoof:       REJECTED — attack: coordinator did not acknowledge spoofed reading

note: the attacker still modulates valid 802.15.4 frames either way —
cryptography rejects them at the MAC layer, and jamming-style denial of
service remains possible, exactly as the paper cautions.
`

func TestHardenedOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != golden {
		t.Fatalf("output drifted:\n got:\n%s\nwant:\n%s", got, golden)
	}
}
