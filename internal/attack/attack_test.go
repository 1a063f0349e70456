package attack

import (
	"errors"
	"fmt"
	"testing"

	"wazabee/internal/bitstream"
	"wazabee/internal/chip"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/zigbee"
)

const testSPS = 8

func newTracker(t *testing.T, sim *zigbee.Simulation) *Tracker {
	t.Helper()
	model := chip.NRF51822() // the Gablys Lite tracker's radio
	tx, err := model.NewWazaBeeTransmitter(testSPS)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := model.NewWazaBeeReceiver(testSPS)
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := NewTracker(tx, rx, sim)
	if err != nil {
		t.Fatal(err)
	}
	return tracker
}

func newSim(t *testing.T, seed int64) *zigbee.Simulation {
	t.Helper()
	sim, err := zigbee.NewSimulation(seed, testSPS, 25)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestNewTrackerValidation(t *testing.T) {
	sim := newSim(t, 1)
	model := chip.NRF51822()
	tx, err := model.NewWazaBeeTransmitter(testSPS)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := model.NewWazaBeeReceiver(testSPS)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTracker(nil, rx, sim); err == nil {
		t.Error("expected error for nil TX")
	}
	if _, err := NewTracker(tx, nil, sim); err == nil {
		t.Error("expected error for nil RX")
	}
	if _, err := NewTracker(tx, rx, nil); err == nil {
		t.Error("expected error for nil air")
	}
}

func TestActiveScanFindsNetwork(t *testing.T) {
	sim := newSim(t, 2)
	tracker := newTracker(t, sim)

	info, err := tracker.ActiveScan(ieee802154.Channels())
	if err != nil {
		t.Fatal(err)
	}
	if info.Channel != zigbee.DefaultChannel {
		t.Errorf("scan channel = %d, want %d", info.Channel, zigbee.DefaultChannel)
	}
	if info.PAN != zigbee.DefaultPAN || info.Coordinator != zigbee.DefaultCoordinator {
		t.Errorf("scan info = %+v", info)
	}
}

func TestActiveScanEmptyBand(t *testing.T) {
	sim := newSim(t, 3)
	// Move the whole network off every scanned channel.
	sim.Sensor.Channel = 26
	sim.Coordinator.Channel = 26
	tracker := newTracker(t, sim)

	_, err := tracker.ActiveScan([]int{11, 12, 13})
	if !errors.Is(err, ErrScanFailed) {
		t.Errorf("error = %v, want ErrScanFailed", err)
	}
}

func TestEavesdropRecoversSensorAddress(t *testing.T) {
	sim := newSim(t, 4)
	tracker := newTracker(t, sim)

	info := &NetworkInfo{Channel: zigbee.DefaultChannel, PAN: zigbee.DefaultPAN, Coordinator: zigbee.DefaultCoordinator}
	addr, err := tracker.Eavesdrop(info, 5)
	if err != nil {
		t.Fatal(err)
	}
	if addr != zigbee.DefaultSensor {
		t.Errorf("sensor address = %#04x, want %#04x", addr, zigbee.DefaultSensor)
	}
	if _, err := tracker.Eavesdrop(nil, 5); err == nil {
		t.Error("expected error for nil info")
	}
}

func TestEavesdropQuietChannel(t *testing.T) {
	sim := newSim(t, 5)
	tracker := newTracker(t, sim)
	info := &NetworkInfo{Channel: 22, PAN: zigbee.DefaultPAN, Coordinator: zigbee.DefaultCoordinator}
	if _, err := tracker.Eavesdrop(info, 3); !errors.Is(err, ErrNoSensorTraffic) {
		t.Errorf("error = %v, want ErrNoSensorTraffic", err)
	}
}

func TestInjectChannelChange(t *testing.T) {
	sim := newSim(t, 6)
	tracker := newTracker(t, sim)
	info := &NetworkInfo{Channel: zigbee.DefaultChannel, PAN: zigbee.DefaultPAN, Coordinator: zigbee.DefaultCoordinator}

	if err := tracker.InjectChannelChange(info, zigbee.DefaultSensor, 20); err != nil {
		t.Fatal(err)
	}
	if sim.Sensor.Channel != 20 {
		t.Errorf("sensor channel = %d, want 20 after AT injection", sim.Sensor.Channel)
	}

	if err := tracker.InjectChannelChange(info, zigbee.DefaultSensor, 99); err == nil {
		t.Error("expected error for invalid target channel")
	}
	if err := tracker.InjectChannelChange(nil, zigbee.DefaultSensor, 20); err == nil {
		t.Error("expected error for nil info")
	}
}

func TestSpoofData(t *testing.T) {
	sim := newSim(t, 7)
	tracker := newTracker(t, sim)
	info := &NetworkInfo{Channel: zigbee.DefaultChannel, PAN: zigbee.DefaultPAN, Coordinator: zigbee.DefaultCoordinator}

	if err := tracker.SpoofData(info, zigbee.DefaultSensor, 0x7777); err != nil {
		t.Fatal(err)
	}
	last, ok := sim.Coordinator.LastReading()
	if !ok || last.Value != 0x7777 || last.Src != zigbee.DefaultSensor {
		t.Errorf("coordinator reading = %+v, %v", last, ok)
	}
	if err := tracker.SpoofData(nil, zigbee.DefaultSensor, 1); err == nil {
		t.Error("expected error for nil info")
	}
}

// TestScenarioBFullAttack runs all four steps end to end, mirroring the
// workflow of Figure 5: scan → eavesdrop → remote AT injection → fake
// data injection. The tracker's flight recorder must hold one info
// event per step, in that order, with the step's evidence as fields.
func TestScenarioBFullAttack(t *testing.T) {
	sim := newSim(t, 8)
	tracker := newTracker(t, sim)
	tracker.Flight = obs.NewFlight(64)

	info, err := tracker.Run(ieee802154.Channels(), 25, []uint16{1000, 1001, 1002})
	if err != nil {
		t.Fatal(err)
	}
	if info.PAN != zigbee.DefaultPAN {
		t.Errorf("attacked PAN = %#x", info.PAN)
	}
	// The sensor was pushed off the network channel (denial of
	// service)...
	if sim.Sensor.Channel != 25 {
		t.Errorf("sensor channel = %d, want 25", sim.Sensor.Channel)
	}
	// ...and the display now shows the attacker's fake values.
	readings := sim.Coordinator.Readings
	if len(readings) < 3 {
		t.Fatalf("coordinator recorded %d readings, want at least 3", len(readings))
	}
	tail := readings[len(readings)-3:]
	for i, want := range []uint16{1000, 1001, 1002} {
		if tail[i].Value != want {
			t.Errorf("fake reading %d = %d, want %d", i, tail[i].Value, want)
		}
	}

	hex := func(v uint16) string { return fmt.Sprintf("%#04x", v) }
	want := []struct {
		kind   string
		fields map[string]any
	}{
		{"scan", map[string]any{"channel": zigbee.DefaultChannel, "pan": hex(zigbee.DefaultPAN), "coordinator": hex(zigbee.DefaultCoordinator)}},
		{"eavesdrop", map[string]any{"sensor": hex(zigbee.DefaultSensor)}},
		{"channel-change", map[string]any{"sensor": hex(zigbee.DefaultSensor), "new_channel": 25}},
		{"spoof", map[string]any{"value": uint16(1000)}},
		{"spoof", map[string]any{"value": uint16(1001)}},
		{"spoof", map[string]any{"value": uint16(1002)}},
	}
	events := tracker.Flight.Snapshot()
	if len(events) != len(want) {
		t.Fatalf("flight recorder holds %d events, want %d: %+v", len(events), len(want), events)
	}
	for i, w := range want {
		ev := events[i]
		if ev.Kind != w.kind || ev.Level != obs.LevelInfo || ev.Component != "attack" {
			t.Errorf("event %d = %s/%v/%s, want %s/info/attack", i, ev.Kind, ev.Level, ev.Component, w.kind)
		}
		for k, v := range w.fields {
			if ev.Fields[k] != v {
				t.Errorf("event %d (%s) field %s = %v (%T), want %v (%T)", i, ev.Kind, k, ev.Fields[k], ev.Fields[k], v, v)
			}
		}
	}
}

// TestScenarioASmartphoneInjection reproduces Figure 4: forged data
// packets injected from a phone-class device through extended
// advertising, received by the legitimate coordinator on channel 14.
func TestScenarioASmartphoneInjection(t *testing.T) {
	sim := newSim(t, 9)
	phone, err := NewSmartphone(testSPS)
	if err != nil {
		t.Fatal(err)
	}

	// The forged frame mimics a sensor reading.
	frame := ieee802154.NewDataFrame(0x2a, zigbee.DefaultPAN, zigbee.DefaultCoordinator, zigbee.DefaultSensor, zigbee.SensorPayload(0x1337), false)
	psdu, err := frame.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ppdu, err := ieee802154.NewPPDU(psdu)
	if err != nil {
		t.Fatal(err)
	}

	attempts, err := phone.InjectFrame(sim, zigbee.DefaultChannel, ppdu, 500)
	if err != nil {
		t.Fatal(err)
	}
	if attempts < 1 {
		t.Error("injection reported zero advertising events")
	}
	last, ok := sim.Coordinator.LastReading()
	if !ok || last.Value != 0x1337 {
		t.Errorf("coordinator reading = %+v, %v — forged packet not accepted", last, ok)
	}
}

func TestSmartphoneCannotReachNonTableIIChannels(t *testing.T) {
	sim := newSim(t, 10)
	phone, err := NewSmartphone(testSPS)
	if err != nil {
		t.Fatal(err)
	}
	ppdu, err := ieee802154.NewPPDU([]byte{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	// Channel 15 (2425 MHz) has no BLE channel equivalent.
	if _, err := phone.InjectFrame(sim, 15, ppdu, 10); err == nil {
		t.Error("expected error for a Zigbee channel without BLE equivalent")
	}
	// Channel 26 maps to BLE 39, an advertising channel CSA#2 never
	// selects.
	if _, err := phone.InjectFrame(sim, 26, ppdu, 10); err == nil {
		t.Error("expected error for BLE channel 39 (not a data channel)")
	}
}

func TestSmartphoneAdvertiseOnceChannelFollowsCSA2(t *testing.T) {
	phone, err := NewSmartphone(testSPS)
	if err != nil {
		t.Fatal(err)
	}
	ppdu, err := ieee802154.NewPPDU([]byte{9, 9})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for e := 0; e < 64; e++ {
		sig, ch, err := phone.AdvertiseOnce(uint16(e), ppdu)
		if err != nil {
			t.Fatal(err)
		}
		if len(sig) == 0 {
			t.Fatal("empty advertising waveform")
		}
		seen[ch] = true
	}
	if len(seen) < 10 {
		t.Errorf("CSA#2 selected only %d distinct channels in 64 events", len(seen))
	}
	if _, _, err := phone.AdvertiseOnce(0, nil); err == nil {
		t.Error("expected error for nil PPDU")
	}
}

// TestCrossChipInteroperability: frames transmitted by each BLE chip
// model must decode on every other model's receiver — the attack is not
// implementation dependent (section I).
func TestCrossChipInteroperability(t *testing.T) {
	models := []chip.Model{chip.NRF52832(), chip.CC1352R1(), chip.NRF51822()}
	psduPayload := []byte{0x41, 0x88, 0x11, 0x34, 0x12, 0xff, 0xff, 0x63, 0x00, 0x42}
	for _, txModel := range models {
		for _, rxModel := range models {
			t.Run(txModel.Name+"->"+rxModel.Name, func(t *testing.T) {
				tx, err := txModel.NewWazaBeeTransmitter(testSPS)
				if err != nil {
					t.Fatal(err)
				}
				rx, err := rxModel.NewWazaBeeReceiver(testSPS)
				if err != nil {
					t.Fatal(err)
				}
				psdu := appendFCS(psduPayload)
				sig, err := tx.ModulatePSDU(psdu)
				if err != nil {
					t.Fatal(err)
				}
				padded, err := sig.Pad(150, 150)
				if err != nil {
					t.Fatal(err)
				}
				dem, err := rx.Receive(padded)
				if err != nil {
					t.Fatal(err)
				}
				if len(dem.PPDU.PSDU) != len(psdu) {
					t.Errorf("PSDU length = %d, want %d", len(dem.PPDU.PSDU), len(psdu))
				}
			})
		}
	}
}

func appendFCS(payload []byte) []byte {
	fcs := bitstream.FCS16Bytes(bitstream.FCS16(payload))
	return append(append([]byte{}, payload...), fcs[0], fcs[1])
}
