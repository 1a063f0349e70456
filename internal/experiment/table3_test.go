package experiment

import (
	"context"
	"encoding/hex"
	"strings"
	"testing"

	"wazabee/internal/chip"
)

// quickConfig trims the run for unit tests; the full 100-frame runs live
// in the benchmarks and the cmd/table3 binary.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.FramesPerChannel = 6
	return cfg
}

func TestSideString(t *testing.T) {
	if Reception.String() != "reception" || Transmission.String() != "transmission" {
		t.Error("unexpected Side strings")
	}
	if Side(9).String() != "side(9)" {
		t.Error("unexpected invalid Side string")
	}
}

func TestRunValidation(t *testing.T) {
	cfg := quickConfig()
	cfg.FramesPerChannel = 0
	if _, err := RunContext(context.Background(), cfg, chip.NRF52832(), Reception); err == nil {
		t.Error("expected error for zero frames")
	}
	if _, err := RunContext(context.Background(), quickConfig(), chip.NRF52832(), Side(9)); err == nil {
		t.Error("expected error for invalid side")
	}
	for _, side := range []Side{Reception, Transmission} {
		if _, err := RunContext(context.Background(), quickConfig(), chip.RZUSBStick(), side); err == nil {
			t.Errorf("expected error for a chip without BLE radio on the %s side", side)
		}
	}
}

func TestSideEnds(t *testing.T) {
	model := chip.CC1352R1()
	for _, c := range []struct {
		side   Side
		tx, rx string
	}{
		{Reception, "RZUSBStick", "CC1352-R1"},
		{Transmission, "CC1352-R1", "RZUSBStick"},
	} {
		tx, rx := c.side.Ends(model)
		if tx.Name != c.tx || rx.Name != c.rx {
			t.Errorf("%s ends = %s -> %s, want %s -> %s", c.side, tx.Name, rx.Name, c.tx, c.rx)
		}
	}
	if _, rx := Reception.Ends(model); rx != model {
		t.Errorf("reception receiver = %+v, want the model itself %+v", rx, model)
	}
	if tx, _ := Transmission.Ends(model); tx != model {
		t.Errorf("transmission transmitter = %+v, want the model itself %+v", tx, model)
	}
}

// TestCounterFrame pins the Table III frame bytes: the sequence number
// wraps at 256 while the counter in the sensor reading carries on.
func TestCounterFrame(t *testing.T) {
	for n, want := range map[int]string{
		0:   "4188003412420063001000008c52",
		1:   "4188013412420063001001007367",
		255: "4188ff34124200630010ff00fa8d",
		256: "4188003412420063001000010543",
	} {
		if got := hex.EncodeToString(CounterFrame(n)); got != want {
			t.Errorf("CounterFrame(%d) = %s, want %s", n, got, want)
		}
	}
}

func TestRunReceptionCleanChannels(t *testing.T) {
	cfg := quickConfig()
	cfg.WiFi = false
	res, err := RunContext(context.Background(), cfg, chip.CC1352R1(), Reception)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(res.Rows))
	}
	// Without interference the reception primitive must be essentially
	// lossless on every channel.
	if rate := res.ValidRate(); rate < 0.99 {
		t.Errorf("clean-channel valid rate = %.3f, want ≥ 0.99\n%s", rate, FormatComparison(res))
	}
}

func TestRunTransmissionCleanChannels(t *testing.T) {
	cfg := quickConfig()
	cfg.WiFi = false
	res, err := RunContext(context.Background(), cfg, chip.NRF52832(), Transmission)
	if err != nil {
		t.Fatal(err)
	}
	if rate := res.ValidRate(); rate < 0.98 {
		t.Errorf("clean-channel valid rate = %.3f, want ≥ 0.98\n%s", rate, FormatComparison(res))
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := quickConfig()
	a, err := RunContext(context.Background(), cfg, chip.NRF52832(), Reception)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), cfg, chip.NRF52832(), Reception)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("row %d differs between identical runs: %+v vs %+v", i, a.Rows[i], b.Rows[i])
		}
	}
}

func TestRunWiFiDegradesOverlappedChannels(t *testing.T) {
	// With WiFi on channels 6 and 11, the loss must concentrate on the
	// overlapped Zigbee channels, reproducing the paper's observation.
	cfg := quickConfig()
	cfg.FramesPerChannel = 25
	cfg.WiFiDutyCycle = 0.08 // exaggerate so a short run shows the shape
	res, err := RunContext(context.Background(), cfg, chip.NRF52832(), Reception)
	if err != nil {
		t.Fatal(err)
	}
	lossOn := 0
	lossOff := 0
	overlapped := map[int]bool{16: true, 17: true, 18: true, 19: true, 21: true, 22: true, 23: true, 24: true}
	for _, row := range res.Rows {
		loss := row.Corrupted + row.NotReceived
		if overlapped[row.Channel] {
			lossOn += loss
		} else {
			lossOff += loss
		}
	}
	if lossOn <= lossOff {
		t.Errorf("loss on WiFi-overlapped channels (%d) not above clean channels (%d)\n%s",
			lossOn, lossOff, FormatComparison(res))
	}
}

func TestResultHelpers(t *testing.T) {
	res := &Result{
		Chip: "nRF52832", Side: Reception, Frames: 10,
		Rows: []ChannelResult{
			{Channel: 11, Valid: 9, Corrupted: 1},
			{Channel: 12, Valid: 10},
		},
	}
	valid, corrupted, lost := res.Totals()
	if valid != 19 || corrupted != 1 || lost != 0 {
		t.Errorf("Totals = %d/%d/%d", valid, corrupted, lost)
	}
	if rate := res.ValidRate(); rate != 0.95 {
		t.Errorf("ValidRate = %g, want 0.95", rate)
	}
	if _, ok := res.Row(11); !ok {
		t.Error("Row(11) not found")
	}
	if _, ok := res.Row(26); ok {
		t.Error("Row(26) unexpectedly found")
	}
	empty := &Result{}
	if empty.ValidRate() != 0 {
		t.Error("empty result should have zero valid rate")
	}
}

func TestPaperTable3Data(t *testing.T) {
	for _, chipName := range []string{"nRF52832", "CC1352-R1"} {
		for _, side := range []Side{Reception, Transmission} {
			rows, ok := PaperTable3(chipName, side)
			if !ok {
				t.Fatalf("missing paper data for %s/%v", chipName, side)
			}
			if len(rows) != 16 {
				t.Fatalf("%s/%v has %d rows, want 16", chipName, side, len(rows))
			}
			for i, r := range rows {
				if r.Channel != 11+i {
					t.Errorf("%s/%v row %d channel = %d", chipName, side, i, r.Channel)
				}
				if r.Valid+r.Corrupted > 100 {
					t.Errorf("%s/%v channel %d counts exceed 100", chipName, side, r.Channel)
				}
			}
		}
	}
	if _, ok := PaperTable3("unknown", Reception); ok {
		t.Error("unknown chip should have no paper data")
	}
}

func TestPaperAverages(t *testing.T) {
	// Section V quotes these averages; the transcription must match.
	tests := []struct {
		chipName string
		side     Side
		want     float64
	}{
		{"nRF52832", Reception, 98.625},
		{"CC1352-R1", Reception, 99.375},
		{"nRF52832", Transmission, 97.5},
		{"CC1352-R1", Transmission, 99.4375},
	}
	for _, tt := range tests {
		got, ok := PaperAverageValid(tt.chipName, tt.side)
		if !ok {
			t.Fatalf("no average for %s/%v", tt.chipName, tt.side)
		}
		if diff := got - tt.want; diff > 0.01 || diff < -0.01 {
			t.Errorf("%s/%v average = %.4f, want %.4f", tt.chipName, tt.side, got, tt.want)
		}
	}
	if _, ok := PaperAverageValid("unknown", Reception); ok {
		t.Error("unknown chip should have no average")
	}
}

func TestFormatComparison(t *testing.T) {
	cfg := quickConfig()
	cfg.WiFi = false
	cfg.FramesPerChannel = 2
	res, err := RunContext(context.Background(), cfg, chip.CC1352R1(), Reception)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatComparison(res)
	for _, want := range []string{"CC1352-R1", "reception", "ch 11", "ch 26", "average valid", "paper"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison output missing %q:\n%s", want, out)
		}
	}
}
