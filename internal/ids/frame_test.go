package ids

import (
	"strings"
	"sync"
	"testing"

	"wazabee/internal/obs"
)

func TestFrameMonitorThresholdEdges(t *testing.T) {
	m := NewFrameMonitor()
	if m.FingerprintThreshold != DefaultFingerprintThreshold {
		t.Fatalf("default threshold = %v, want %v", m.FingerprintThreshold, DefaultFingerprintThreshold)
	}
	cases := []struct {
		name string
		evm  float64
		want bool
	}{
		{"zero", 0, false},
		{"native typical", 0.12, false},
		{"just below", DefaultFingerprintThreshold - 1e-9, false},
		{"exactly at threshold", DefaultFingerprintThreshold, false}, // strict >
		{"just above", DefaultFingerprintThreshold + 1e-9, true},
		{"diverted typical", 0.38, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := m.Judge(FrameFeatures{SoftEVM: tc.evm})
			if got := v.Has(AlertModulationFingerprint); got != tc.want {
				t.Errorf("Judge(evm=%v) fingerprint alert = %v, want %v", tc.evm, got, tc.want)
			}
			if !v.FrameSeen || v.SoftEVM != tc.evm {
				t.Errorf("verdict = %+v, want FrameSeen with SoftEVM %v", v, tc.evm)
			}
		})
	}
}

func TestFrameMonitorCustomThreshold(t *testing.T) {
	m := &FrameMonitor{FingerprintThreshold: 0.5, ChannelExpected: true}
	if m.Judge(FrameFeatures{SoftEVM: 0.4}).Suspicious() {
		t.Error("0.4 flagged under a 0.5 threshold")
	}
	if !m.Judge(FrameFeatures{SoftEVM: 0.6}).Has(AlertModulationFingerprint) {
		t.Error("0.6 not flagged under a 0.5 threshold")
	}
}

func TestFrameMonitorFramingAlert(t *testing.T) {
	m := NewFrameMonitor()
	v := m.Judge(FrameFeatures{SoftEVM: 0.1, BLEFraming: true})
	if !v.Has(AlertBLEFraming) {
		t.Error("BLE framing not flagged")
	}
	if v.Has(AlertModulationFingerprint) {
		t.Error("clean EVM flagged as fingerprint")
	}
}

func TestFrameMonitorAlertOrderMatchesInspect(t *testing.T) {
	// The IQ-tier Inspect appends unexpected-traffic, then fingerprint,
	// then framing; the frame tier must agree so first-alert attribution
	// is fidelity-independent.
	m := &FrameMonitor{FingerprintThreshold: 0.27, ChannelExpected: false}
	v := m.Judge(FrameFeatures{SoftEVM: 0.4, BLEFraming: true})
	want := []AlertKind{AlertUnexpectedTraffic, AlertModulationFingerprint, AlertBLEFraming}
	if len(v.Alerts) != len(want) {
		t.Fatalf("alerts = %v, want %d kinds", v.Alerts, len(want))
	}
	for i, k := range want {
		if v.Alerts[i].Kind != k {
			t.Errorf("alert[%d] = %v, want %v", i, v.Alerts[i].Kind, k)
		}
	}
}

func TestFrameMonitorUnexpectedTraffic(t *testing.T) {
	m := &FrameMonitor{FingerprintThreshold: 0.27, ChannelExpected: false}
	v := m.Judge(FrameFeatures{SoftEVM: 0.05})
	if !v.Has(AlertUnexpectedTraffic) || len(v.Alerts) != 1 {
		t.Errorf("verdict alerts = %v, want only unexpected-traffic", v.Alerts)
	}
}

func TestFrameMonitorMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := &FrameMonitor{FingerprintThreshold: 0.27, ChannelExpected: true, Obs: reg}
	m.Judge(FrameFeatures{SoftEVM: 0.1})
	m.Judge(FrameFeatures{SoftEVM: 0.4})
	m.Judge(FrameFeatures{SoftEVM: 0.4, BLEFraming: true})
	if got := reg.Counter("wazabee_ids_frame_inspections_total").Value(); got != 3 {
		t.Errorf("inspections = %d, want 3", got)
	}
	if got := reg.Counter("wazabee_ids_frame_detections_total", "kind", AlertModulationFingerprint.String()).Value(); got != 2 {
		t.Errorf("fingerprint detections = %d, want 2", got)
	}
	if got := reg.Counter("wazabee_ids_frame_detections_total", "kind", AlertBLEFraming.String()).Value(); got != 1 {
		t.Errorf("framing detections = %d, want 1", got)
	}
}

func TestMonitorDefaultThresholdConstant(t *testing.T) {
	m, err := NewMonitor(4)
	if err != nil {
		t.Fatal(err)
	}
	if m.FingerprintThreshold != DefaultFingerprintThreshold {
		t.Errorf("IQ monitor default threshold = %v, want the shared constant %v",
			m.FingerprintThreshold, DefaultFingerprintThreshold)
	}
}

// judgeSequence is a fixed feature sequence that raises every alert kind
// on a monitor that does not expect traffic: clean, fingerprint,
// framing, and both at once.
var judgeSequence = []FrameFeatures{
	{SoftEVM: 0.10},
	{SoftEVM: 0.40},
	{SoftEVM: 0.12, BLEFraming: true},
	{SoftEVM: 0.38, BLEFraming: true},
	{SoftEVM: 0.05},
}

// TestFrameMonitorPrometheusText pins the registry text a fixed feature
// sequence leaves behind: the cached counters must register and count
// exactly the series a lookup per frame does.
func TestFrameMonitorPrometheusText(t *testing.T) {
	reg := obs.NewRegistry()
	m := &FrameMonitor{FingerprintThreshold: 0.27, ChannelExpected: true, Obs: reg}
	for _, f := range judgeSequence {
		m.Judge(f)
	}
	m.ChannelExpected = false
	for _, f := range judgeSequence {
		m.Judge(f)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	const want = `# TYPE wazabee_ids_frame_detections_total counter
wazabee_ids_frame_detections_total{kind="ble-framing"} 4
wazabee_ids_frame_detections_total{kind="modulation-fingerprint"} 4
wazabee_ids_frame_detections_total{kind="unexpected-traffic"} 5
# TYPE wazabee_ids_frame_inspections_total counter
wazabee_ids_frame_inspections_total 10
`
	if got := b.String(); got != want {
		t.Errorf("Prometheus text:\n%s\nwant:\n%s", got, want)
	}
}

// TestFrameMonitorObsSwap re-points Obs mid-stream: later counts must
// land on the new registry only.
func TestFrameMonitorObsSwap(t *testing.T) {
	first, second := obs.NewRegistry(), obs.NewRegistry()
	m := &FrameMonitor{FingerprintThreshold: 0.27, ChannelExpected: true, Obs: first}
	m.Judge(FrameFeatures{SoftEVM: 0.4})
	m.Obs = second
	m.Judge(FrameFeatures{SoftEVM: 0.4})
	m.Judge(FrameFeatures{SoftEVM: 0.1, BLEFraming: true})
	for _, tc := range []struct {
		reg                     *obs.Registry
		inspections, fp, framed uint64
	}{{first, 1, 1, 0}, {second, 2, 1, 1}} {
		if got := tc.reg.Counter("wazabee_ids_frame_inspections_total").Value(); got != tc.inspections {
			t.Errorf("inspections = %d, want %d", got, tc.inspections)
		}
		if got := tc.reg.Counter("wazabee_ids_frame_detections_total", "kind", AlertModulationFingerprint.String()).Value(); got != tc.fp {
			t.Errorf("fingerprint detections = %d, want %d", got, tc.fp)
		}
		if got := tc.reg.Counter("wazabee_ids_frame_detections_total", "kind", AlertBLEFraming.String()).Value(); got != tc.framed {
			t.Errorf("framing detections = %d, want %d", got, tc.framed)
		}
	}
}

// TestFrameMonitorConcurrentJudge judges from many goroutines on one
// monitor (run it under -race): no count may be lost.
func TestFrameMonitorConcurrentJudge(t *testing.T) {
	const goroutines, rounds = 8, 200
	reg := obs.NewRegistry()
	m := &FrameMonitor{FingerprintThreshold: 0.27, ChannelExpected: true, Obs: reg}
	var wg sync.WaitGroup
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				for _, f := range judgeSequence {
					m.Judge(f)
				}
			}
		}()
	}
	wg.Wait()
	n := uint64(goroutines * rounds)
	if got := reg.Counter("wazabee_ids_frame_inspections_total").Value(); got != n*uint64(len(judgeSequence)) {
		t.Errorf("inspections = %d, want %d", got, n*uint64(len(judgeSequence)))
	}
	if got := reg.Counter("wazabee_ids_frame_detections_total", "kind", AlertModulationFingerprint.String()).Value(); got != 2*n {
		t.Errorf("fingerprint detections = %d, want %d", got, 2*n)
	}
	if got := reg.Counter("wazabee_ids_frame_detections_total", "kind", AlertBLEFraming.String()).Value(); got != 2*n {
		t.Errorf("framing detections = %d, want %d", got, 2*n)
	}
}

// TestFrameMonitorCleanFrameAllocs checks that judging a clean frame
// allocates nothing when the caller does not keep the verdict: Judge
// inlines, so the verdict lives on the caller's stack, and the counters
// come from the cache.
func TestFrameMonitorCleanFrameAllocs(t *testing.T) {
	m := &FrameMonitor{FingerprintThreshold: 0.27, ChannelExpected: true, Obs: obs.NewRegistry()}
	allocs := testing.AllocsPerRun(1000, func() {
		if m.Judge(FrameFeatures{SoftEVM: 0.1}).Suspicious() {
			t.Fatal("clean frame flagged")
		}
	})
	if allocs != 0 {
		t.Errorf("Judge allocates %v times per clean frame, want 0", allocs)
	}
}

// TestFrameMonitorWithoutRegistry checks that a monitor with no Obs
// judges as usual and counts nowhere, not on the process default.
func TestFrameMonitorWithoutRegistry(t *testing.T) {
	before := obs.Default().PrometheusText()
	m := NewFrameMonitor()
	for _, f := range judgeSequence {
		m.Judge(f)
	}
	if !m.Judge(FrameFeatures{SoftEVM: 0.4, BLEFraming: true}).Has(AlertBLEFraming) {
		t.Error("framing not flagged without a registry")
	}
	if after := obs.Default().PrometheusText(); after != before {
		t.Errorf("a monitor without a registry wrote to the process default:\n%s", after)
	}
}

// TestAlertDetail pins the text each alert kind formats when read: the
// fingerprint alert from the numbers it keeps.
func TestAlertDetail(t *testing.T) {
	m := &FrameMonitor{FingerprintThreshold: 0.27, ChannelExpected: false}
	v := m.Judge(FrameFeatures{SoftEVM: 0.374, BLEFraming: true})
	want := []string{
		"802.15.4 frame on a channel with no deployed network",
		"soft EVM 0.37 rad above threshold 0.27",
		"BLE advertising preamble and Access Address precede the 802.15.4 frame",
	}
	if len(v.Alerts) != len(want) {
		t.Fatalf("alerts = %v, want %d", v.Alerts, len(want))
	}
	for i, a := range v.Alerts {
		if got := a.Detail(); got != want[i] {
			t.Errorf("%v Detail = %q, want %q", a.Kind, got, want[i])
		}
	}
	if a := v.Alerts[1]; a.SoftEVM != 0.374 || a.Threshold != 0.27 {
		t.Errorf("fingerprint alert keeps %v above %v, want 0.374 above 0.27", a.SoftEVM, a.Threshold)
	}
}
