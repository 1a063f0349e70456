package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"wazabee/internal/bitstream"
	"wazabee/internal/capture"
)

// golden is the console log of the default eight periods: every frame
// line and the capture count. The logger is the only consumer that
// prints, and the producer prints only before it subscribes and after
// every consumer has returned, so the order is fixed although the live
// network is paced on the wall clock.
const golden = `sniffing Zigbee channel 14 live with a diverted BLE chip (AA 0x9b3af703, CRC off)

period 0: data seq=  1 PAN=0x1234 0x0063->0x0042 value=1 LQI=255 FCS=true
period 1: data seq=  2 PAN=0x1234 0x0063->0x0042 value=2 LQI=255 FCS=true
period 2: data seq=  3 PAN=0x1234 0x0063->0x0042 value=3 LQI=255 FCS=true
period 3: data seq=  4 PAN=0x1234 0x0063->0x0042 value=4 LQI=255 FCS=true
period 4: data seq=  5 PAN=0x1234 0x0063->0x0042 value=5 LQI=255 FCS=true
period 5: data seq=  6 PAN=0x1234 0x0063->0x0042 value=6 LQI=255 FCS=true
period 6: data seq=  7 PAN=0x1234 0x0063->0x0042 value=7 LQI=255 FCS=true
period 7: data seq=  8 PAN=0x1234 0x0063->0x0042 value=8 LQI=255 FCS=true

captured 8/8 sensor reports without owning any 802.15.4 hardware
`

// TestSnifferOutput pins the console log and checks that the pcap
// consumer wrote one frame per captured report.
func TestSnifferOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sniff.pcap")
	var buf bytes.Buffer
	if err := run(&buf, []string{"-o", path}); err != nil {
		t.Fatal(err)
	}
	want := golden + fmt.Sprintf("pcap capture written to %s (open with: wireshark %s)\n", path, path)
	if got := buf.String(); got != want {
		t.Fatalf("output drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
	records, err := capture.OpenPCAP(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 8 {
		t.Fatalf("pcap holds %d frames, want 8", len(records))
	}
	for i, rec := range records {
		if !bitstream.CheckFCS(rec.PSDU) {
			t.Errorf("pcap frame %d fails its FCS: %x", i, rec.PSDU)
		}
	}
}

func TestSnifferRejectsBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-periods", "x"}); err == nil {
		t.Fatal("run accepted -periods x")
	}
	if buf.Len() != 0 {
		t.Fatalf("a bad flag printed %q", buf.String())
	}
}
