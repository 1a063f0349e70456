package ieee802154

import (
	"testing"

	"wazabee/internal/bitstream"
)

// TestAppendSpread: the pooled appending form must produce exactly the
// chips of Spread, appended after the existing prefix.
func TestAppendSpread(t *testing.T) {
	data := []byte{0x00, 0xa7, 0x5b, 0xff}
	want := Spread(data)
	prefix := bitstream.Bits{1, 0, 1}
	got := AppendSpread(bitstream.Clone(prefix), data)
	if len(got) != len(prefix)+len(want) {
		t.Fatalf("AppendSpread length %d, want %d", len(got), len(prefix)+len(want))
	}
	if got[:3].String() != prefix.String() {
		t.Error("AppendSpread clobbered the prefix")
	}
	if got[3:].String() != want.String() {
		t.Error("AppendSpread chips differ from Spread")
	}
}
