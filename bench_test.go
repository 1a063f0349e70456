package wazabee

// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index) plus ablation
// benchmarks for the design choices the attack depends on. Semantic
// results (valid rates, chip error rates) are attached to the benchmark
// output via b.ReportMetric, so `go test -bench` doubles as the
// reproduction report.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"wazabee/internal/attack"
	"wazabee/internal/bitstream"
	"wazabee/internal/ble"
	"wazabee/internal/chip"
	"wazabee/internal/core"
	"wazabee/internal/dsp"
	"wazabee/internal/experiment"
	"wazabee/internal/ids"
	"wazabee/internal/ieee802154"
	"wazabee/internal/modsim"
	"wazabee/internal/obs"
	"wazabee/internal/zigbee"
)

const benchSPS = 8

func benchPSDU(b *testing.B, payload []byte) []byte {
	b.Helper()
	fcs := bitstream.FCS16Bytes(bitstream.FCS16(payload))
	return append(append([]byte{}, payload...), fcs[0], fcs[1])
}

func benchPPDU(b *testing.B, payload []byte) *ieee802154.PPDU {
	b.Helper()
	ppdu, err := ieee802154.NewPPDU(benchPSDU(b, payload))
	if err != nil {
		b.Fatal(err)
	}
	return ppdu
}

// BenchmarkTableI regenerates Table I: the 16 PN spreading sequences.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		seqs := ieee802154.PNSequences()
		if len(seqs[0]) != 32 {
			b.Fatal("bad PN table")
		}
	}
}

// BenchmarkAlgorithm1 regenerates the PN→MSK correspondence (Algorithm 1
// applied to all 16 sequences).
func BenchmarkAlgorithm1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.CorrespondenceTable(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII regenerates Table II by intersecting the Zigbee and
// BLE channel maps.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(core.CommonChannels()) != 8 {
			b.Fatal("Table II derivation broken")
		}
	}
}

// benchTable3 runs a reduced Table III sweep per iteration and reports
// the measured valid rate next to the paper's average.
func benchTable3(b *testing.B, model chip.Model, side experiment.Side) {
	cfg := experiment.DefaultConfig()
	cfg.FramesPerChannel = 2
	var rate float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := experiment.RunContext(context.Background(), cfg, model, side)
		if err != nil {
			b.Fatal(err)
		}
		rate += res.ValidRate()
	}
	b.ReportMetric(100*rate/float64(b.N), "valid%")
	if paper, ok := experiment.PaperAverageValid(model.Name, side); ok {
		b.ReportMetric(paper, "paper-valid%")
	}
}

// BenchmarkTableIIIReception regenerates the reception half of Table III.
func BenchmarkTableIIIReception(b *testing.B) {
	for _, m := range []chip.Model{chip.NRF52832(), chip.CC1352R1()} {
		b.Run(m.Name, func(b *testing.B) {
			benchTable3(b, m, experiment.Reception)
		})
	}
}

// BenchmarkTableIIITransmission regenerates the transmission half of
// Table III.
func BenchmarkTableIIITransmission(b *testing.B) {
	for _, m := range []chip.Model{chip.NRF52832(), chip.CC1352R1()} {
		b.Run(m.Name, func(b *testing.B) {
			benchTable3(b, m, experiment.Transmission)
		})
	}
}

// BenchmarkTable3IQRound runs one round of perfbench's table3-iq
// workload through experiment.RunContext: both diverted chips × both
// sides × 16 channels × 16 frames on the IQ tier, WiFi on, seed 1, one
// fresh registry per round. It is the CPU-profiling target of the IQ
// chain (-cpuprofile): perfbench's traced pass rebuilds each trial from
// public calls, so it modulates every frame and cannot show a saving
// RunContext makes across trials.
func BenchmarkTable3IQRound(b *testing.B) {
	cfg := experiment.DefaultConfig()
	cfg.FramesPerChannel = 16
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Obs = obs.NewRegistry()
		for _, model := range []chip.Model{chip.NRF52832(), chip.CC1352R1()} {
			for _, side := range []experiment.Side{experiment.Reception, experiment.Transmission} {
				if _, err := experiment.RunContext(context.Background(), cfg, model, side); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkFigure1Waveform regenerates the Figure 1 material: a 2-FSK
// waveform whose I/Q rotation encodes the bits.
func BenchmarkFigure1Waveform(b *testing.B) {
	phy, err := ble.NewPHYWithShaping(ble.LE2M, benchSPS, 0.5, 0)
	if err != nil {
		b.Fatal(err)
	}
	bits := bitstream.BytesToBits([]byte{0x55, 0x55, 0x55, 0x55})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig, err := phy.ModulateBits(bits)
		if err != nil {
			b.Fatal(err)
		}
		if len(dsp.Discriminate(sig)) == 0 {
			b.Fatal("empty discriminator output")
		}
	}
}

// BenchmarkFigure2Waveform regenerates Figure 2: the temporal
// decomposition of an O-QPSK half-sine modulated signal.
func BenchmarkFigure2Waveform(b *testing.B) {
	phy, err := ieee802154.NewPHY(benchSPS)
	if err != nil {
		b.Fatal(err)
	}
	chips := ieee802154.Spread([]byte{0xa5, 0x3c})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phy.ModulateChips(chips); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3Waveform regenerates Figure 3: the constellation/phase
// trajectory of the O-QPSK signal.
func BenchmarkFigure3Waveform(b *testing.B) {
	phy, err := ieee802154.NewPHY(benchSPS)
	if err != nil {
		b.Fatal(err)
	}
	chips := ieee802154.Spread([]byte{0x0f, 0xf0})
	sig, err := phy.ModulateChips(chips)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(dsp.UnwrapPhase(sig)) != len(sig) {
			b.Fatal("phase trajectory length mismatch")
		}
	}
}

// BenchmarkScenarioA regenerates the Figure 4 experiment: one forged
// extended-advertising injection into the victim network (repeating
// events until CSA#2 lands on the target channel).
func BenchmarkScenarioA(b *testing.B) {
	frame := ieee802154.NewDataFrame(0x2a, zigbee.DefaultPAN, zigbee.DefaultCoordinator,
		zigbee.DefaultSensor, zigbee.SensorPayload(0x1337), false)
	psdu, err := frame.Encode()
	if err != nil {
		b.Fatal(err)
	}
	ppdu, err := ieee802154.NewPPDU(psdu)
	if err != nil {
		b.Fatal(err)
	}
	injected := 0
	for i := 0; i < b.N; i++ {
		sim, err := zigbee.NewSimulation(int64(i+1), benchSPS, 25)
		if err != nil {
			b.Fatal(err)
		}
		phone, err := attack.NewSmartphone(benchSPS)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := phone.InjectFrame(sim, zigbee.DefaultChannel, ppdu, 500); err != nil {
			b.Fatal(err)
		}
		if last, ok := sim.Coordinator.LastReading(); ok && last.Value == 0x1337 {
			injected++
		}
	}
	b.ReportMetric(100*float64(injected)/float64(b.N), "accepted%")
}

// BenchmarkScenarioB regenerates the Figure 5 experiment: the four-step
// tracker attack (scan, eavesdrop, AT injection, spoofing).
func BenchmarkScenarioB(b *testing.B) {
	model := chip.NRF51822()
	succeeded := 0
	for i := 0; i < b.N; i++ {
		sim, err := zigbee.NewSimulation(int64(i+1), benchSPS, 25)
		if err != nil {
			b.Fatal(err)
		}
		tx, err := model.NewWazaBeeTransmitter(benchSPS)
		if err != nil {
			b.Fatal(err)
		}
		rx, err := model.NewWazaBeeReceiver(benchSPS)
		if err != nil {
			b.Fatal(err)
		}
		tracker, err := attack.NewTracker(tx, rx, sim)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tracker.Run(ieee802154.Channels(), 25, []uint16{9999}); err == nil {
			succeeded++
		}
	}
	b.ReportMetric(100*float64(succeeded)/float64(b.N), "success%")
}

// BenchmarkWazaBeeTX measures the transmission primitive's throughput
// (frame modulation cost): Transmitter.Modulate, the call Table III's
// IQ channel makes per frame.
func BenchmarkWazaBeeTX(b *testing.B) {
	tx, err := chip.NRF52832().NewWazaBeeTransmitter(benchSPS)
	if err != nil {
		b.Fatal(err)
	}
	tx.Obs = obs.NewRegistry()
	ppdu := benchPPDU(b, []byte{0x41, 0x88, 0x01, 0x34, 0x12, 0x42, 0x00, 0x63, 0x00, 0x2a})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tx.Modulate(ppdu); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWazaBeeRX measures the reception primitive: one
// Receiver.ReceiveStats of a padded WazaBee frame, the call Table III's
// IQ channel makes per frame, with the buffer pool warm.
func BenchmarkWazaBeeRX(b *testing.B) {
	tx, err := chip.NRF52832().NewWazaBeeTransmitter(benchSPS)
	if err != nil {
		b.Fatal(err)
	}
	rx, err := chip.CC1352R1().NewWazaBeeReceiver(benchSPS)
	if err != nil {
		b.Fatal(err)
	}
	rx.Obs = obs.NewRegistry()
	ppdu := benchPPDU(b, []byte{0x41, 0x88, 0x01, 0x34, 0x12, 0x42, 0x00, 0x63, 0x00, 0x2a})
	sig, err := tx.Modulate(ppdu)
	if err != nil {
		b.Fatal(err)
	}
	padded, err := sig.Pad(200, 100)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := rx.ReceiveStats(padded); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rx.ReceiveStats(padded); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSNRSweep measures the extension experiment: the sensitivity
// knee of the reception primitive (PER at a mid-waterfall SNR).
func BenchmarkSNRSweep(b *testing.B) {
	cfg := experiment.SweepConfig{
		SNRs:           []float64{6},
		FramesPerPoint: 10,
		SamplesPerChip: benchSPS,
		Channel:        14,
	}
	var per float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		points, err := experiment.RunSweepContext(context.Background(), cfg, chip.CC1352R1(), experiment.Reception)
		if err != nil {
			b.Fatal(err)
		}
		per += points[0].PER
	}
	b.ReportMetric(100*per/float64(b.N), "per-at-6dB%")
}

// BenchmarkRunnerSweep measures the sharded Monte-Carlo runner on a real
// sweep workload at different worker-pool sizes. The results are
// bit-identical across sub-benchmarks (that is the runner's contract);
// only the wall clock changes, so serial vs workers-8 reads directly as
// the engine's parallel speedup on multicore hardware.
func BenchmarkRunnerSweep(b *testing.B) {
	run := func(b *testing.B, workers int) {
		cfg := experiment.SweepConfig{
			SNRs:           []float64{4, 6, 8},
			FramesPerPoint: 16,
			SamplesPerChip: benchSPS,
			Workers:        workers,
			Channel:        14,
			Obs:            obs.NewRegistry(),
		}
		trials := 0
		for i := 0; i < b.N; i++ {
			cfg.Seed = int64(i + 1)
			points, err := experiment.RunSweepContext(context.Background(), cfg, chip.CC1352R1(), experiment.Reception)
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range points {
				trials += p.Frames
			}
		}
		b.ReportMetric(float64(trials)/b.Elapsed().Seconds(), "trials/s")
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("workers-4", func(b *testing.B) { run(b, 4) })
	b.Run("workers-8", func(b *testing.B) { run(b, 8) })
}

// BenchmarkIDSDetection measures the section VII counter-measure: the
// detection rate on WazaBee traffic and the false-positive rate on
// legitimate traffic at 18 dB SNR.
func BenchmarkIDSDetection(b *testing.B) {
	monitor, err := ids.NewMonitor(benchSPS)
	if err != nil {
		b.Fatal(err)
	}
	zphy, err := ieee802154.NewPHY(benchSPS)
	if err != nil {
		b.Fatal(err)
	}
	tx, err := chip.NRF52832().NewWazaBeeTransmitter(benchSPS)
	if err != nil {
		b.Fatal(err)
	}
	ppdu := benchPPDU(b, []byte{0x41, 0x88, 0x01, 0x34, 0x12, 0x42, 0x00, 0x63, 0x00, 0x2a})
	legit, err := zphy.Modulate(ppdu)
	if err != nil {
		b.Fatal(err)
	}
	waza, err := tx.Modulate(ppdu)
	if err != nil {
		b.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(5))
	detected, falseAlarms := 0, 0
	for i := 0; i < b.N; i++ {
		w := waza.Clone()
		padded, err := w.Pad(150, 100)
		if err != nil {
			b.Fatal(err)
		}
		if err := dsp.AddAWGN(padded, 18, rnd); err != nil {
			b.Fatal(err)
		}
		v, err := monitor.Inspect(padded)
		if err != nil {
			b.Fatal(err)
		}
		if v.Suspicious() {
			detected++
		}

		l := legit.Clone()
		paddedL, err := l.Pad(150, 100)
		if err != nil {
			b.Fatal(err)
		}
		if err := dsp.AddAWGN(paddedL, 18, rnd); err != nil {
			b.Fatal(err)
		}
		v, err = monitor.Inspect(paddedL)
		if err != nil {
			b.Fatal(err)
		}
		if v.Suspicious() {
			falseAlarms++
		}
	}
	b.ReportMetric(100*float64(detected)/float64(b.N), "detect%")
	b.ReportMetric(100*float64(falseAlarms)/float64(b.N), "false-alarm%")
}

// BenchmarkPivotability runs the modulation-similarity survey of the
// paper's future work and reports the two headline scores.
func BenchmarkPivotability(b *testing.B) {
	var ble2m, le1m float64
	for i := 0; i < b.N; i++ {
		scores, err := modsim.SurveyAgainstOQPSK(benchSPS, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range scores {
			switch s.Emulator {
			case "BLE LE 2M GFSK (m=0.5, BT=0.5)":
				ble2m += s.Score
			case "BLE LE 1M GFSK (rate mismatch)":
				le1m += s.Score
			}
		}
	}
	b.ReportMetric(ble2m/float64(b.N), "le2m-score")
	b.ReportMetric(le1m/float64(b.N), "le1m-score")
}

// chipErrorRate transmits a frame through a GFSK modem with the given
// shaping, optionally through AWGN, and measures the fraction of chips
// the 802.15.4 MSK-view slicer gets wrong — quantifying the
// Gaussian-approximation cost the paper neglects analytically. The
// slicer compensates the pulse-shaping group delay, as a synchronised
// receiver would.
func chipErrorRate(b *testing.B, modIndex, bt float64, snrDB float64, rnd *rand.Rand) float64 {
	b.Helper()
	phy, err := ble.NewPHYWithShaping(ble.LE2M, benchSPS, modIndex, bt)
	if err != nil {
		b.Fatal(err)
	}
	payload := benchPSDU(b, []byte{0x41, 0x88, 0x01, 0x34, 0x12, 0x42, 0x00, 0x63, 0x00, 0x2a})
	ppdu, err := ieee802154.NewPPDU(payload)
	if err != nil {
		b.Fatal(err)
	}
	chips := ieee802154.Spread(ppdu.Bytes())
	msk, err := core.ConvertChipStream(chips)
	if err != nil {
		b.Fatal(err)
	}
	sig, err := phy.ModulateBits(msk)
	if err != nil {
		b.Fatal(err)
	}
	if snrDB > 0 {
		if err := dsp.AddAWGN(sig, snrDB, rnd); err != nil {
			b.Fatal(err)
		}
	}
	pulse, err := dsp.GaussianPulse(bt, benchSPS, 2)
	if err != nil {
		b.Fatal(err)
	}
	groupDelay := (len(pulse) - benchSPS) / 2
	incs := dsp.Discriminate(sig)
	sums := dsp.IntegrateSymbols(incs, groupDelay, benchSPS)
	got := dsp.SliceBits(sums)
	n := len(msk)
	if len(got) < n {
		n = len(got)
	}
	errs := 0
	for i := 0; i < n; i++ {
		if got[i] != msk[i] {
			errs++
		}
	}
	return float64(errs) / float64(n)
}

// BenchmarkAblationGaussianFilter quantifies the paper's central
// approximation: the chip error rate of a Gaussian-filtered (BT 0.5) GFSK
// transmitter versus ideal MSK, as seen by an 802.15.4 chip slicer.
func BenchmarkAblationGaussianFilter(b *testing.B) {
	for _, tc := range []struct {
		name string
		bt   float64
	}{
		{name: "MSK-ideal", bt: 0},
		{name: "GFSK-BT0.5", bt: 0.5},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rnd := rand.New(rand.NewSource(1))
			var rate float64
			for i := 0; i < b.N; i++ {
				rate += chipErrorRate(b, 0.5, tc.bt, 8, rnd)
			}
			b.ReportMetric(100*rate/float64(b.N), "chip-err%")
		})
	}
}

// BenchmarkAblationModIndex sweeps the BLE modulation-index tolerance
// band (0.45..0.55): the attack must survive the whole band.
func BenchmarkAblationModIndex(b *testing.B) {
	for _, m := range []float64{0.45, 0.50, 0.55} {
		b.Run(fmt.Sprintf("m=%.2f", m), func(b *testing.B) {
			rnd := rand.New(rand.NewSource(2))
			var rate float64
			for i := 0; i < b.N; i++ {
				rate += chipErrorRate(b, m, 0.5, 8, rnd)
			}
			b.ReportMetric(100*rate/float64(b.N), "chip-err%")
		})
	}
}

// BenchmarkAblationLE1M demonstrates the data-rate requirement of section
// IV-D: at 1 Mbit/s the MSK symbol lasts two chip periods and the chip
// stream is unrecoverable.
func BenchmarkAblationLE1M(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		// LE 1M at the same samples-per-symbol means each symbol
		// spans two chip periods at the receiver's 2 Mchip/s grid;
		// emulate by demodulating the 1M waveform at twice the
		// symbol rate.
		phy, err := ble.NewPHYWithShaping(ble.LE2M, 2*benchSPS, 0.5, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		payload := benchPSDU(b, []byte{1, 2, 3, 4})
		ppdu, err := ieee802154.NewPPDU(payload)
		if err != nil {
			b.Fatal(err)
		}
		msk, err := core.ConvertChipStream(ieee802154.Spread(ppdu.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		sig, err := phy.ModulateBits(msk)
		if err != nil {
			b.Fatal(err)
		}
		incs := dsp.Discriminate(sig)
		sums := dsp.IntegrateSymbols(incs, 0, benchSPS) // receiver still at 2 Mchip/s
		got := dsp.SliceBits(sums)
		n := len(msk)
		if len(got) < n {
			n = len(got)
		}
		errs := 0
		for j := 0; j < n; j++ {
			if got[j] != msk[j] {
				errs++
			}
		}
		rate = float64(errs) / float64(n)
	}
	b.ReportMetric(100*rate, "chip-err%")
}

// BenchmarkAblationHammingDecode compares the paper's nearest-sequence
// decoder against exact matching under noise: the frame success rate with
// each decision rule.
func BenchmarkAblationHammingDecode(b *testing.B) {
	phy, err := ieee802154.NewPHY(benchSPS)
	if err != nil {
		b.Fatal(err)
	}
	payload := benchPSDU(b, []byte{0xca, 0xfe, 0x01, 0x02})
	ppdu, err := ieee802154.NewPPDU(payload)
	if err != nil {
		b.Fatal(err)
	}
	chips := ieee802154.Spread(ppdu.Bytes())
	msk, err := core.ConvertChipStream(chips)
	if err != nil {
		b.Fatal(err)
	}
	alphabet := ieee802154.TransitionAlphabet()

	decode := func(bits bitstream.Bits, exact bool) bool {
		// Walk symbol blocks (31 transitions + 1 boundary bit).
		for s := 0; (s+1)*32 <= len(bits)+1; s++ {
			block := bits[s*32 : s*32+31]
			if exact {
				found := false
				for sym := 0; sym < 16; sym++ {
					if d, _ := bitstream.HammingDistance(block, alphabet[sym]); d == 0 {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			} else {
				best := 32
				for sym := 0; sym < 16; sym++ {
					d, _ := bitstream.HammingDistance(block, alphabet[sym])
					if d < best {
						best = d
					}
				}
				if best > 10 {
					return false
				}
			}
		}
		return true
	}

	for _, tc := range []struct {
		name  string
		exact bool
	}{
		{name: "hamming", exact: false},
		{name: "exact-match", exact: true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rnd := rand.New(rand.NewSource(7))
			ok := 0
			trials := 0
			for i := 0; i < b.N; i++ {
				sig, err := phy.ModulateChips(chips)
				if err != nil {
					b.Fatal(err)
				}
				if err := dsp.AddAWGN(sig, 5, rnd); err != nil {
					b.Fatal(err)
				}
				incs := dsp.Discriminate(sig)
				sums := dsp.IntegrateSymbols(incs, 0, benchSPS)
				bits := dsp.SliceBits(sums)
				n := len(msk)
				if len(bits) < n {
					n = len(bits)
				}
				if decode(bits[1:n], tc.exact) {
					ok++
				}
				trials++
			}
			b.ReportMetric(100*float64(ok)/float64(trials), "frame-ok%")
		})
	}
}
