package ids

import (
	"bufio"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"wazabee/internal/attack"
	"wazabee/internal/bitstream"
	"wazabee/internal/chip"
	"wazabee/internal/dsp"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/zigbee"
)

const testSPS = 8

func testMonitor(t *testing.T) *Monitor {
	t.Helper()
	m, err := NewMonitor(testSPS)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testPPDU(t *testing.T, payload []byte) *ieee802154.PPDU {
	t.Helper()
	fcs := bitstream.FCS16Bytes(bitstream.FCS16(payload))
	ppdu, err := ieee802154.NewPPDU(append(append([]byte{}, payload...), fcs[0], fcs[1]))
	if err != nil {
		t.Fatal(err)
	}
	return ppdu
}

func legitFrame(t *testing.T) dsp.IQ {
	t.Helper()
	phy, err := ieee802154.NewPHY(testSPS)
	if err != nil {
		t.Fatal(err)
	}
	ppdu := testPPDU(t, []byte{0x41, 0x88, 0x01, 0x34, 0x12, 0x42, 0x00, 0x63, 0x00, 0x2a})
	sig, err := phy.Modulate(ppdu)
	if err != nil {
		t.Fatal(err)
	}
	padded, err := sig.Pad(180, 120)
	if err != nil {
		t.Fatal(err)
	}
	return padded
}

func wazabeeFrame(t *testing.T, model chip.Model) dsp.IQ {
	t.Helper()
	tx, err := model.NewWazaBeeTransmitter(testSPS)
	if err != nil {
		t.Fatal(err)
	}
	ppdu := testPPDU(t, []byte{0x41, 0x88, 0x01, 0x34, 0x12, 0x42, 0x00, 0x63, 0x00, 0x2a})
	sig, err := tx.Modulate(ppdu)
	if err != nil {
		t.Fatal(err)
	}
	padded, err := sig.Pad(180, 120)
	if err != nil {
		t.Fatal(err)
	}
	return padded
}

func TestAlertKindStrings(t *testing.T) {
	tests := []struct {
		kind AlertKind
		want string
	}{
		{AlertBLEFraming, "ble-framing"},
		{AlertModulationFingerprint, "modulation-fingerprint"},
		{AlertUnexpectedTraffic, "unexpected-traffic"},
		{AlertKind(9), "alert(9)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestInspectLegitimateFrameIsClean(t *testing.T) {
	m := testMonitor(t)
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		sig := legitFrame(t)
		if err := dsp.AddAWGN(sig, 18, rnd); err != nil {
			t.Fatal(err)
		}
		v, err := m.Inspect(sig)
		if err != nil {
			t.Fatal(err)
		}
		if !v.FrameSeen {
			t.Fatal("legitimate frame not seen")
		}
		if v.Suspicious() {
			t.Errorf("trial %d: legitimate frame flagged: %+v (EVM %.3f)", trial, v.Alerts, v.SoftEVM)
		}
	}
}

func TestInspectFlagsWazaBeeTransmitter(t *testing.T) {
	m := testMonitor(t)
	rnd := rand.New(rand.NewSource(2))
	for _, model := range []chip.Model{chip.NRF52832(), chip.CC1352R1()} {
		t.Run(model.Name, func(t *testing.T) {
			detections := 0
			for trial := 0; trial < 5; trial++ {
				sig := wazabeeFrame(t, model)
				if err := dsp.AddAWGN(sig, 18, rnd); err != nil {
					t.Fatal(err)
				}
				v, err := m.Inspect(sig)
				if err != nil {
					t.Fatal(err)
				}
				if !v.FrameSeen {
					t.Fatal("WazaBee frame not seen")
				}
				if v.Has(AlertModulationFingerprint) {
					detections++
				}
			}
			if detections < 4 {
				t.Errorf("fingerprint detected %d/5 WazaBee frames from %s", detections, model.Name)
			}
		})
	}
}

// scenarioAFrame is the smartphone injection path: the Zigbee frame
// wrapped in a whitened AUX_ADV_IND, sent on an event whose CSA#2 draw
// hits BLE channel 8 so the forged data is dewhitened for the right
// channel.
func scenarioAFrame(t *testing.T) dsp.IQ {
	t.Helper()
	phone, err := attack.NewSmartphone(testSPS)
	if err != nil {
		t.Fatal(err)
	}
	ppdu := testPPDU(t, []byte{0x41, 0x88, 0x05, 0x34, 0x12, 0x42, 0x00, 0x63, 0x00, 0x07})
	for event := uint16(0); event < 500; event++ {
		sig, bleChannel, err := phone.AdvertiseOnce(event, ppdu)
		if err != nil {
			t.Fatal(err)
		}
		if bleChannel != 8 {
			continue
		}
		padded, err := sig.Pad(150, 100)
		if err != nil {
			t.Fatal(err)
		}
		return padded
	}
	t.Fatal("CSA#2 never selected channel 8")
	return nil
}

func TestInspectFlagsScenarioAInjection(t *testing.T) {
	// The IDS must spot the BLE framing around the injected frame.
	m := testMonitor(t)
	v, err := m.Inspect(scenarioAFrame(t))
	if err != nil {
		t.Fatal(err)
	}
	if !v.FrameSeen {
		t.Fatal("embedded frame not decoded by the monitor")
	}
	if !v.Has(AlertBLEFraming) {
		t.Error("BLE framing around the injected frame not detected")
	}
	if !v.Has(AlertModulationFingerprint) {
		t.Error("GFSK fingerprint of the injected frame not detected")
	}
}

func TestInspectUnexpectedTrafficPolicy(t *testing.T) {
	m := testMonitor(t)
	m.ChannelExpected = false
	v, err := m.Inspect(legitFrame(t))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Has(AlertUnexpectedTraffic) {
		t.Error("traffic on a policy-forbidden channel not flagged")
	}
}

func TestInspectNoiseOnly(t *testing.T) {
	m := testMonitor(t)
	rnd := rand.New(rand.NewSource(3))
	noise, err := dsp.NoiseFloor(8192, 0.1, rnd)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Inspect(noise)
	if err != nil {
		t.Fatal(err)
	}
	if v.FrameSeen || v.Suspicious() {
		t.Errorf("noise-only capture produced %+v", v)
	}
	if _, err := m.Inspect(nil); err == nil {
		t.Error("expected error for empty capture")
	}
}

func TestInspectScenarioBTrafficFingerprinted(t *testing.T) {
	// Scenario B frames come from a bare WazaBee transmitter (no BLE
	// packet framing), so only the fingerprint detector can see them.
	m := testMonitor(t)
	sig := wazabeeFrame(t, chip.NRF51822())
	v, err := m.Inspect(sig)
	if err != nil {
		t.Fatal(err)
	}
	if !v.FrameSeen {
		t.Fatal("frame not seen")
	}
	if v.Has(AlertBLEFraming) {
		t.Error("bare WazaBee frame should not trigger the BLE-framing detector")
	}
	if !v.Has(AlertModulationFingerprint) {
		t.Errorf("bare WazaBee frame not fingerprinted (EVM %.3f)", v.SoftEVM)
	}
}

func TestVerdictHelpers(t *testing.T) {
	v := &Verdict{}
	if v.Suspicious() || v.Has(AlertBLEFraming) {
		t.Error("empty verdict should be clean")
	}
	v.Alerts = append(v.Alerts, Alert{Kind: AlertBLEFraming})
	if !v.Suspicious() || !v.Has(AlertBLEFraming) || v.Has(AlertUnexpectedTraffic) {
		t.Error("verdict helpers inconsistent")
	}
}

// TestIDSOnVictimNetwork watches the simulated victim network: routine
// sensor traffic stays clean while an attack step raises an alert.
func TestIDSOnVictimNetwork(t *testing.T) {
	sim, err := zigbee.NewSimulation(11, testSPS, 25)
	if err != nil {
		t.Fatal(err)
	}
	m := testMonitor(t)

	capture, err := sim.Capture(zigbee.DefaultChannel)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Inspect(capture)
	if err != nil {
		t.Fatal(err)
	}
	if !v.FrameSeen {
		t.Fatal("sensor traffic not seen")
	}
	if v.Suspicious() {
		t.Errorf("legitimate sensor traffic flagged: %+v (EVM %.3f)", v.Alerts, v.SoftEVM)
	}

	// Now the attacker spoofs a reading through a diverted BLE chip.
	model := chip.NRF52832()
	tx, err := model.NewWazaBeeTransmitter(testSPS)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := model.NewWazaBeeReceiver(testSPS)
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := attack.NewTracker(tx, rx, sim)
	if err != nil {
		t.Fatal(err)
	}
	info := &attack.NetworkInfo{Channel: zigbee.DefaultChannel, PAN: zigbee.DefaultPAN, Coordinator: zigbee.DefaultCoordinator}
	if err := tracker.SpoofData(info, zigbee.DefaultSensor, 4242); err != nil {
		t.Fatal(err)
	}
	// Re-create the attacker waveform as the IDS antenna would hear it.
	frame := ieee802154.NewDataFrame(1, info.PAN, info.Coordinator, zigbee.DefaultSensor, zigbee.SensorPayload(4242), true)
	psdu, err := frame.Encode()
	if err != nil {
		t.Fatal(err)
	}
	atkSig, err := tx.ModulatePSDU(psdu)
	if err != nil {
		t.Fatal(err)
	}
	padded, err := atkSig.Pad(150, 100)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := m.Inspect(padded)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Has(AlertModulationFingerprint) {
		t.Errorf("attack traffic not fingerprinted (EVM %.3f)", v2.SoftEVM)
	}
}

// TestMonitorPrometheusText pins the wazabee_ids_* series an IQ monitor
// leaves behind after inspecting a legitimate frame, a WazaBee frame, a
// scenario A frame and noise, first on an expected channel and then on
// one where no traffic is expected: every detector and its counter
// family, read off real captures.
func TestMonitorPrometheusText(t *testing.T) {
	noise, err := dsp.NoiseFloor(8192, 0.1, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	captures := []dsp.IQ{legitFrame(t), wazabeeFrame(t, chip.NRF52832()), scenarioAFrame(t), noise}
	reg := obs.NewRegistry()
	m := testMonitor(t)
	m.Obs = reg
	for _, expected := range []bool{true, false} {
		m.ChannelExpected = expected
		for _, c := range captures {
			if _, err := m.Inspect(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "wazabee_ids_") || strings.HasPrefix(line, "# TYPE wazabee_ids_") {
			got.WriteString(line + "\n")
		}
	}
	const want = `# TYPE wazabee_ids_detections_total counter
wazabee_ids_detections_total{kind="ble-framing"} 2
wazabee_ids_detections_total{kind="modulation-fingerprint"} 4
wazabee_ids_detections_total{kind="unexpected-traffic"} 3
# TYPE wazabee_ids_frames_seen_total counter
wazabee_ids_frames_seen_total 6
# TYPE wazabee_ids_inspections_total counter
wazabee_ids_inspections_total 8
`
	if got.String() != want {
		t.Errorf("wazabee_ids_* text:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestMonitorConcurrentInspect inspects captures from several goroutines
// on one Monitor and one registry: every verdict must equal the
// sequential one, and the counters must add up.
func TestMonitorConcurrentInspect(t *testing.T) {
	captures := []dsp.IQ{legitFrame(t), wazabeeFrame(t, chip.NRF52832()), scenarioAFrame(t)}
	ref := testMonitor(t)
	ref.Obs = obs.NewRegistry()
	want := make([]*Verdict, len(captures))
	for i, c := range captures {
		v, err := ref.Inspect(c)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}

	const workers, rounds = 4, 2
	reg := obs.NewRegistry()
	m := testMonitor(t)
	m.Obs = reg
	var wg sync.WaitGroup
	errs := make(chan string, workers*rounds*len(captures))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, c := range captures {
					v, err := m.Inspect(c)
					if err != nil {
						errs <- err.Error()
						continue
					}
					if v.FrameSeen != want[i].FrameSeen || v.SoftEVM != want[i].SoftEVM || !sameAlerts(v.Alerts, want[i].Alerts) {
						errs <- fmt.Sprintf("capture %d: verdict %+v, want %+v", i, *v, *want[i])
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got, want := reg.Counter("wazabee_ids_inspections_total").Value(), uint64(workers*rounds*len(captures)); got != want {
		t.Errorf("wazabee_ids_inspections_total = %d, want %d", got, want)
	}
}

// sameAlerts reports whether two alert lists match kind for kind.
func sameAlerts(a, b []Alert) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind {
			return false
		}
	}
	return true
}
