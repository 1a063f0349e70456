package chip

import (
	"bytes"
	"slices"
	"testing"

	"wazabee/internal/ble"
	"wazabee/internal/dsp"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
)

func TestModelCatalogue(t *testing.T) {
	tests := []struct {
		model     Model
		wantMode  ble.Mode
		arbitrary bool
	}{
		{NRF52832(), ble.LE2M, true},
		{CC1352R1(), ble.LE2M, true},
		{NRF51822(), ble.ESB2M, true},
	}
	for _, tt := range tests {
		t.Run(tt.model.Name, func(t *testing.T) {
			if tt.model.Mode != tt.wantMode {
				t.Errorf("mode = %v, want %v", tt.model.Mode, tt.wantMode)
			}
			if tt.model.ArbitraryFrequency != tt.arbitrary {
				t.Errorf("arbitrary frequency = %v, want %v", tt.model.ArbitraryFrequency, tt.arbitrary)
			}
			if tt.model.ModulationIndex < 0.45 || tt.model.ModulationIndex > 0.55 {
				t.Errorf("modulation index %g outside BLE tolerance", tt.model.ModulationIndex)
			}
		})
	}
}

func TestCC1352BetterAnalogThanNRF52832(t *testing.T) {
	// Table III shows the CC1352-R1 receiving more stably than the
	// nRF52832; the models must preserve that ordering.
	if CC1352R1().NoiseFigureDB >= NRF52832().NoiseFigureDB {
		t.Error("CC1352-R1 model is not cleaner than nRF52832")
	}
	if NRF51822().NoiseFigureDB <= NRF52832().NoiseFigureDB {
		t.Error("nRF51822 ESB fallback should be the worst receiver")
	}
}

func TestCanTune(t *testing.T) {
	// The paper's benchmark chips reach every Zigbee channel directly.
	for _, m := range []Model{NRF52832(), CC1352R1()} {
		for ch := 11; ch <= 26; ch++ {
			if !m.CanTune(ch) {
				t.Errorf("%s cannot tune channel %d", m.Name, ch)
			}
		}
		if m.CanTune(27) || m.CanTune(5) {
			t.Errorf("%s tunes invalid Zigbee channels", m.Name)
		}
	}
	// A chip restricted to BLE channel indices reaches exactly the
	// Table II subset.
	restricted := NRF52832()
	restricted.ArbitraryFrequency = false
	wantTunable := map[int]bool{12: true, 14: true, 16: true, 18: true, 20: true, 22: true, 24: true, 26: true}
	for ch := 11; ch <= 26; ch++ {
		if got := restricted.CanTune(ch); got != wantTunable[ch] {
			t.Errorf("restricted CanTune(%d) = %v, want %v", ch, got, wantTunable[ch])
		}
	}
}

func TestNewWazaBeePrimitives(t *testing.T) {
	for _, m := range []Model{NRF52832(), CC1352R1(), NRF51822()} {
		if _, err := m.NewWazaBeeTransmitter(8); err != nil {
			t.Errorf("%s transmitter: %v", m.Name, err)
		}
		rx, err := m.NewWazaBeeReceiver(8)
		if err != nil {
			t.Errorf("%s receiver: %v", m.Name, err)
			continue
		}
		if rx.MaxPatternErrors != m.SyncTolerance {
			t.Errorf("%s sync tolerance = %d, want %d", m.Name, rx.MaxPatternErrors, m.SyncTolerance)
		}
	}
}

func TestNonBLEChipHasNoPrimitives(t *testing.T) {
	stick := RZUSBStick()
	if _, err := stick.NewWazaBeeTransmitter(8); err == nil {
		t.Error("RZUSBStick must not offer a BLE transmitter")
	}
	if _, err := stick.NewZigbeePHY(8); err != nil {
		t.Errorf("RZUSBStick Zigbee PHY: %v", err)
	}
}

func TestCRCLockedChipHasNoReceiver(t *testing.T) {
	m := NRF52832()
	m.CanDisableCRC = false
	if _, err := m.NewWazaBeeReceiver(8); err == nil {
		t.Error("a chip that cannot disable CRC must not offer the reception primitive")
	}
}

func TestAndroidControllerConstraints(t *testing.T) {
	phone := AndroidController()
	// The scenario A asymmetry: transmission possible, reception not.
	if _, err := phone.NewWazaBeeTransmitter(8); err != nil {
		t.Errorf("phone transmitter: %v", err)
	}
	if _, err := phone.NewWazaBeeReceiver(8); err == nil {
		t.Error("phone must not offer the reception primitive (CRC drop in controller)")
	}
	if _, err := phone.Demodulator(8, nil, nil); err == nil {
		t.Error("phone must not offer a demodulator")
	}
	// And it reaches only the Table II subset, through CSA#2.
	if phone.CanTune(11) {
		t.Error("phone cannot tune Zigbee channel 11 (no BLE equivalent)")
	}
	if !phone.CanTune(14) {
		t.Error("phone should reach Zigbee channel 14 via BLE channel 8")
	}
}

func TestCC2652RIsFullyCapable(t *testing.T) {
	m := CC2652R()
	if _, err := m.NewWazaBeeTransmitter(8); err != nil {
		t.Errorf("CC2652R transmitter: %v", err)
	}
	if _, err := m.NewWazaBeeReceiver(8); err != nil {
		t.Errorf("CC2652R receiver: %v", err)
	}
}

// TestModemHalvesDispatchOnMode checks that an 802.15.4 radio's modem
// halves are the native O-QPSK PHY and a BLE chip's are the WazaBee
// primitives: each modulator must produce its constructor's waveform,
// and each demodulator must decode a legitimate transmission under its
// own decoder label, in the registry it was given.
func TestModemHalvesDispatchOnMode(t *testing.T) {
	ppdu, err := ieee802154.NewPPDU([]byte{0x41, 0x88, 0x01, 0x34, 0x12, 0x42, 0x00, 0x63, 0x00, 0xca, 0xfe})
	if err != nil {
		t.Fatal(err)
	}
	phy, err := RZUSBStick().NewZigbeePHY(8)
	if err != nil {
		t.Fatal(err)
	}
	oqpsk, err := phy.Modulate(ppdu)
	if err != nil {
		t.Fatal(err)
	}
	wtx, err := NRF52832().NewWazaBeeTransmitter(8)
	if err != nil {
		t.Fatal(err)
	}
	gfsk, err := wtx.Modulate(ppdu)
	if err != nil {
		t.Fatal(err)
	}
	capture := append(append(make(dsp.IQ, 320), oqpsk...), make(dsp.IQ, 160)...)

	for _, c := range []struct {
		model   Model
		want    dsp.IQ
		decoder string
	}{
		{RZUSBStick(), oqpsk, "oqpsk"},
		{NRF52832(), gfsk, "wazabee"},
	} {
		reg := obs.NewRegistry()
		modulate, err := c.model.Modulator(8, reg, nil)
		if err != nil {
			t.Fatalf("%s modulator: %v", c.model.Name, err)
		}
		sig, err := modulate(ppdu)
		if err != nil {
			t.Fatalf("%s modulate: %v", c.model.Name, err)
		}
		if !slices.Equal(sig, c.want) {
			t.Errorf("%s modulator is not its %s constructor's", c.model.Name, c.decoder)
		}
		demodulate, err := c.model.Demodulator(8, reg, nil)
		if err != nil {
			t.Fatalf("%s demodulator: %v", c.model.Name, err)
		}
		dem, st, err := demodulate(capture)
		if err != nil {
			t.Fatalf("%s demodulate: %v", c.model.Name, err)
		}
		if !bytes.Equal(dem.PPDU.PSDU, ppdu.PSDU) || st == nil || !st.Decoded {
			t.Errorf("%s decoded %x (stats %+v), want %x", c.model.Name, dem.PPDU.PSDU, st, ppdu.PSDU)
		}
		if n := reg.Counter("wazabee_frames_received_total", "decoder", c.decoder).Value(); n != 1 {
			t.Errorf("%s: %d frames under decoder %q in its registry, want 1", c.model.Name, n, c.decoder)
		}
	}
}
