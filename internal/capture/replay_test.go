package capture

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"wazabee/internal/chip"
	"wazabee/internal/dsp"
	"wazabee/internal/obs"
	"wazabee/internal/zigbee"
)

const testSPS = 8

// TestReplayLivePCAPRoundTrip is the subsystem's end-to-end acceptance
// path: sniff a frame from the live victim network with the WazaBee
// receiver, persist it to a pcap file, read the file back, replay it
// through the seeded radio medium into the same kind of receiver, and
// require the identical PSDU out of both paths.
func TestReplayLivePCAPRoundTrip(t *testing.T) {
	sim, err := zigbee.NewSimulation(7, testSPS, 25)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := chip.CC1352R1().NewWazaBeeReceiver(testSPS)
	if err != nil {
		t.Fatal(err)
	}
	rx.Obs = obs.NewRegistry() // keep the process default registry clean

	// Live path: one sensor reporting period, decoded by the diverted
	// BLE receiver.
	sig, err := sim.Step(zigbee.DefaultChannel)
	if err != nil {
		t.Fatal(err)
	}
	dem, st, err := rx.ReceiveStats(sig)
	if err != nil {
		t.Fatal(err)
	}
	livePSDU := append([]byte(nil), dem.PPDU.PSDU...)

	// Persist and recover.
	path := filepath.Join(t.TempDir(), "live.pcap")
	rec := NewStatsRecord(time.Unix(1700000000, 0), zigbee.DefaultChannel, 0, sig, dem, st, 25)
	if err := WritePCAP(path, []Record{rec}); err != nil {
		t.Fatal(err)
	}
	recovered, err := OpenPCAP(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %d records, want 1", len(recovered))
	}

	// Replay into a fresh receiver of the same kind.
	rx2, err := chip.CC1352R1().NewWazaBeeReceiver(testSPS)
	if err != nil {
		t.Fatal(err)
	}
	rx2.Obs = obs.NewRegistry()
	cfg := ReplayConfig{SamplesPerChip: testSPS, Seed: 99, SNRdB: 25, Obs: obs.NewRegistry()}
	dems, err := ReplayThroughReceiver(recovered, cfg, rx2)
	if err != nil {
		t.Fatal(err)
	}
	if len(dems) != 1 || dems[0] == nil {
		t.Fatalf("replay did not decode the recorded frame: %v", dems)
	}
	if !bytes.Equal(dems[0].PPDU.PSDU, livePSDU) {
		t.Fatalf("replayed PSDU %x differs from live PSDU %x", dems[0].PPDU.PSDU, livePSDU)
	}
}

// TestReplayDeterminism: same records + same seed → sample-exact
// waveforms; a different seed perturbs them.
func TestReplayDeterminism(t *testing.T) {
	psdu := []byte{0x61, 0x88, 0x07, 0x34, 0x12, 0x42, 0x00, 0x63, 0x00, 0xaa, 0xbb, 0x00, 0x00}
	records := []Record{
		{At: time.Unix(10, 0), Channel: 14, PSDU: psdu},
		{At: time.Unix(12, 0), Channel: 14, PSDU: psdu},
	}
	capture := func(seed int64) []dsp.IQ {
		var out []dsp.IQ
		cfg := ReplayConfig{SamplesPerChip: testSPS, Seed: seed, SNRdB: 20, Obs: obs.NewRegistry()}
		if err := Replay(records, cfg, func(_ Record, sig dsp.IQ) error {
			out = append(out, sig)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b, c := capture(42), capture(42), capture(43)
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("replayed %d/%d bursts, want 2", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("burst %d lengths differ: %d vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("burst %d diverges at sample %d despite equal seeds", i, j)
			}
		}
	}
	same := true
	for j := range a[0] {
		if a[0][j] != c[0][j] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical noise")
	}
}

// TestReplayOffChannel: a record replayed while the receiver listens
// far away delivers only noise — the medium's channel model applies to
// playback exactly as it does to live traffic.
func TestReplayOffChannel(t *testing.T) {
	psdu := []byte{0x61, 0x88, 0x07, 0x34, 0x12, 0x42, 0x00, 0x63, 0x00, 0xaa, 0xbb, 0x00, 0x00}
	records := []Record{{At: time.Unix(1, 0), Channel: 26, PSDU: psdu}}
	rx, err := chip.CC1352R1().NewWazaBeeReceiver(testSPS)
	if err != nil {
		t.Fatal(err)
	}
	rx.Obs = obs.NewRegistry()
	cfg := ReplayConfig{SamplesPerChip: testSPS, Seed: 5, SNRdB: 25, Channel: 14, Obs: obs.NewRegistry()}
	dems, err := ReplayThroughReceiver(records, cfg, rx)
	if err != nil {
		t.Fatal(err)
	}
	if len(dems) != 1 || dems[0] != nil {
		t.Fatalf("decoded a frame replayed 12 channels away: %v", dems)
	}
}

// TestReplaySkipsFrameless: raw records (no PSDU) are not replayable
// and must be skipped, not fail the playback.
func TestReplaySkipsFrameless(t *testing.T) {
	records := []Record{
		{At: time.Unix(1, 0), Channel: 14, Decoder: "raw"},
		{At: time.Unix(2, 0), Channel: 14, PSDU: []byte{0x01, 0x02, 0x03, 0x04, 0x05}},
	}
	n := 0
	cfg := ReplayConfig{SamplesPerChip: testSPS, Seed: 1, SNRdB: 20, Obs: obs.NewRegistry()}
	if err := Replay(records, cfg, func(Record, dsp.IQ) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("sink saw %d bursts, want 1", n)
	}
	if got := cfg.Obs.Counter("wazabee_capture_replayed_total").Value(); got != 1 {
		t.Errorf("replayed counter %d, want 1", got)
	}
}
