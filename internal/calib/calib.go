// Package calib fits the calibration tables behind the symbol and frame
// fidelity tiers of internal/radio. The IQ tier is the ground truth: the
// fitter runs real frames through waveform synthesis, the simulated
// medium and the real demodulators across a grid of operating points —
// both WazaBee chip models on both sides, an SNR sweep bracketing the
// Table III operating band, carrier offsets up to the crystal budget and
// clean as well as WiFi-degraded channels — and records, per grid cell,
// the frames the receiver returned nothing for and the per-symbol
// despreading distance histogram of the frames it decoded. Those counts
// (radio.CalTally) are the table's stored form; radio.CalTally.Cell
// divides them into the sync-failure rate and the distance distribution.
// The symbol tier replays those distributions through the real
// despreader decision logic; the frame tier collapses them to a
// closed-form per-frame probability.
//
// cmd/calibrate is the offline entry point that regenerates the
// checked-in table (internal/radio/caldata/tallies.txt) and verifies it
// for drift in CI.
package calib

import (
	"context"
	"fmt"
	"math"

	"wazabee/internal/chip"
	"wazabee/internal/dsp"
	"wazabee/internal/experiment"
	"wazabee/internal/experiment/runner"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/obs/link"
	"wazabee/internal/radio"
	"wazabee/internal/randsrc"
)

// calFreqMHz is the carrier the calibration frames air on. The medium's
// physics (noise, CFO mixing, burst timing) do not depend on the
// absolute carrier, only on offsets, so one representative mid-band
// frequency suffices; WiFi interferers are synthesised at whatever
// spectral offset produces the target overlap weight.
const calFreqMHz = 2440.0

// snrGrid brackets the Table III operating band (link SNR after the
// receiver noise figure is 7–9 dB there) densely around the waterfall
// knee, with anchors deep in the always-fails and always-decodes
// regimes so edge clamping saturates cleanly.
var snrGrid = []float64{-10, -3, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 14, 28}

// wifiGrid is the interference-weight axis: a clean channel, a mildly
// touched one, and a channel sitting almost on top of a WiFi centre
// (Table III's channels 17–18 and 21–23 map to ~0.2–0.96).
var wifiGrid = []float64{0, 0.25, 0.95}

// Options parameterises a fit.
type Options struct {
	// SamplesPerChip is the IQ oversampling factor (8 matches the
	// experiments).
	SamplesPerChip int
	// FramesPerCell is how many ground-truth frames each grid cell
	// averages over.
	FramesPerCell int
	// Seed makes the fit reproducible; cmd/calibrate's drift check
	// relies on byte-identical regeneration.
	Seed int64
	// Progress, when non-nil, is called once per profile, in profile
	// order, after every cell has been fitted and that profile smoothed.
	Progress func(profile string, done, total int)
}

// DefaultOptions matches the checked-in table.
func DefaultOptions() Options {
	return Options{SamplesPerChip: 8, FramesPerCell: 28, Seed: 1}
}

// profileSpec describes one profile: the transmitting and receiving
// radio of its link and its grid axes.
type profileSpec struct {
	name   string
	tx, rx chip.Model
	cfo    []float64
	wifi   []float64
}

// profileSpecs enumerates the fitted profiles: the native O-QPSK link of
// the mesh simulator (an RZUSBStick-class radio at both ends) plus both
// WazaBee chips on both Table III sides. The CFO axis tops out at each
// pairing's worst-case crystal budget (1 ppm at f MHz is f Hz, and the
// experiment draws from ±(txPPM+rxPPM)).
func profileSpecs() []profileSpec {
	stick := chip.RZUSBStick()
	specs := []profileSpec{{
		name: radio.ProfileOQPSK,
		tx:   stick,
		rx:   stick,
		// The mesh simulator models co-located identical radios; its
		// links carry no CFO, so one axis point suffices (lookups clamp).
		cfo:  []float64{0},
		wifi: wifiGrid,
	}}
	for _, model := range []chip.Model{chip.NRF52832(), chip.CC1352R1()} {
		maxCFO := (model.CrystalPPM + stick.CrystalPPM) * 2480 // worst channel
		for _, side := range []experiment.Side{experiment.Reception, experiment.Transmission} {
			tx, rx := side.Ends(model)
			specs = append(specs, profileSpec{
				name: radio.CalProfileName(model.Name, side.String()),
				tx:   tx,
				rx:   rx,
				cfo:  []float64{0, maxCFO / 2, maxCFO},
				wifi: wifiGrid,
			})
		}
	}
	return specs
}

// synthInterferer builds a WiFi interferer whose overlap weight at the
// calibration carrier equals the target axis value: the reference duty
// cycle and power of the Table III environment, centred at the spectral
// offset that yields the requested (1−x²)³ overlap.
func synthInterferer(weight float64, sps int) radio.WiFiInterferer {
	const half = 11.0 // MHz, 22 MHz WiFi bandwidth
	// Overlap = (1−(df/half)²)³ = weight  ⇒  df = half·sqrt(1−weight^⅓).
	df := half * math.Sqrt(1-math.Cbrt(weight))
	return radio.WiFiInterferer{
		CenterMHz:    calFreqMHz - df,
		BandwidthMHz: 22,
		DutyCycle:    0.005,
		Power:        6.0,
		BurstSamples: sps * 100,
	}
}

// Fit runs the calibration pass and returns the fitted table. Every grid
// cell of every profile is one point of an experiment/runner run with a
// single trial, so the cells spread over GOMAXPROCS workers. A cell's
// frames draw only from its own mixSeed coordinates, never from the
// runner's trial seed, so the table is byte-identical at any worker
// count.
func Fit(opts Options) (*radio.CalTable, error) {
	if opts.SamplesPerChip < 1 {
		return nil, fmt.Errorf("calib: samples per chip %d < 1", opts.SamplesPerChip)
	}
	if opts.FramesPerCell < 1 {
		return nil, fmt.Errorf("calib: frames per cell %d < 1", opts.FramesPerCell)
	}
	// All pipeline and runner telemetry of the fit lands in a private
	// registry the fitter discards: calibration must not pollute process
	// metrics.
	reg := obs.NewRegistry()
	specs := profileSpecs()
	profiles := make([]*radio.CalProfile, len(specs))
	waveforms := make([]func(int) (dsp.IQ, error), len(specs))
	var points []runner.Point
	cellOf := make(map[string]gridCell)
	for pi, spec := range specs {
		// A profile's frames are the Table III counter frames from its
		// transmitter, modulated once for every cell.
		var err error
		if waveforms[pi], err = experiment.CounterWaveforms(spec.tx, opts.SamplesPerChip, opts.FramesPerCell, reg); err != nil {
			return nil, fmt.Errorf("calib: profile %s: %w", spec.name, err)
		}
		profiles[pi] = &radio.CalProfile{
			Name:    spec.name,
			SNRdB:   append([]float64(nil), snrGrid...),
			CFOHz:   append([]float64(nil), spec.cfo...),
			WiFi:    append([]float64(nil), spec.wifi...),
			Tallies: make([]radio.CalTally, len(snrGrid)*len(spec.cfo)*len(spec.wifi)),
		}
		for si := range snrGrid {
			for ci := range spec.cfo {
				for wi := range spec.wifi {
					key := fmt.Sprintf("%s/%d/%d/%d", spec.name, si, ci, wi)
					points = append(points, runner.Point{Key: key, Trials: 1})
					cellOf[key] = gridCell{prof: pi, si: si, ci: ci, wi: wi}
				}
			}
		}
	}

	sampleRate := float64(opts.SamplesPerChip) * ieee802154.ChipRate
	run := runner.Spec{Name: "calib", Seed: opts.Seed, Points: points, Obs: reg}
	_, err := runner.Run(context.Background(), run, func(_ context.Context, _ int64, point runner.Point, _ int) (runner.Outcome, error) {
		g := cellOf[point.Key]
		ps := specs[g.prof]
		// Each cell builds its own receiver, so no receiver state is
		// shared between workers; the waveforms are only read.
		demodulate, err := ps.rx.Demodulator(opts.SamplesPerChip, reg, nil)
		if err != nil {
			return runner.Outcome{}, err
		}
		tally, err := fitCell(opts, reg, demodulate, waveforms[g.prof], sampleRate, g.prof, g.si, g.ci, g.wi,
			snrGrid[g.si], ps.cfo[g.ci], ps.wifi[g.wi])
		if err != nil {
			return runner.Outcome{}, err
		}
		// Every cell has exactly one writer, and runner.Run returns only
		// after all workers have exited.
		prof := profiles[g.prof]
		prof.Tallies[cellIndex(prof, g.si, g.ci, g.wi)] = tally
		return runner.Outcome{Class: "fitted"}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("calib: %w", err)
	}

	table := &radio.CalTable{
		SamplesPerChip: opts.SamplesPerChip,
		FramesPerCell:  opts.FramesPerCell,
		Seed:           opts.Seed,
		Profiles:       make(map[string]*radio.CalProfile, len(specs)),
	}
	for pi, prof := range profiles {
		smoothProfile(prof, opts.FramesPerCell)
		prof.Cells = make([]radio.CalCell, len(prof.Tallies))
		for i := range prof.Tallies {
			prof.Cells[i] = prof.Tallies[i].Cell(opts.FramesPerCell)
		}
		table.Profiles[prof.Name] = prof
		if opts.Progress != nil {
			opts.Progress(prof.Name, pi+1, len(specs))
		}
	}
	if err := table.Validate(); err != nil {
		return nil, err
	}
	return table, nil
}

// gridCell locates one calibration cell: a profile index into
// profileSpecs and the cell's SNR, CFO and WiFi axis indices.
type gridCell struct {
	prof, si, ci, wi int
}

// cellIndex is the position of grid cell (si, ci, wi) in p.Cells: the
// SNR-major layout radio.CalProfile documents and Lookup reads.
func cellIndex(p *radio.CalProfile, si, ci, wi int) int {
	return (si*len(p.CFOHz)+ci)*len(p.WiFi) + wi
}

// fitCell counts one grid cell: FramesPerCell independent frames, each
// over a fresh medium whose every draw flows from the cell-and-frame
// derived seed (the same isolation discipline as the Table III trials).
func fitCell(opts Options, reg *obs.Registry, demodulate func(dsp.IQ) (*ieee802154.Demodulated, *link.Stats, error),
	waveform func(int) (dsp.IQ, error), sampleRate float64, profIdx, si, ci, wi int, snr, cfo, wifi float64) (radio.CalTally, error) {
	var tally radio.CalTally
	for f := range opts.FramesPerCell {
		sig, err := waveform(f)
		if err != nil {
			return radio.CalTally{}, err
		}
		seed := mixSeed(uint64(opts.Seed), uint64(profIdx), uint64(si), uint64(ci), uint64(wi), uint64(f))
		medium, err := radio.NewMedium(sampleRate, int64(seed))
		if err != nil {
			return radio.CalTally{}, err
		}
		medium.Obs = reg
		if wifi > 0 {
			medium.AddWiFi(synthInterferer(wifi, opts.SamplesPerChip))
		}
		link := radio.Link{
			SNRdB:       snr,
			CFOHz:       cfo,
			LeadSamples: 40 * opts.SamplesPerChip,
			LagSamples:  20 * opts.SamplesPerChip,
			// Receiver blocking is applied at lookup time (it scales the
			// weight axis), not baked into the cells.
			InterferenceRejectionDB: 0,
		}
		capture, err := medium.Deliver(sig, calFreqMHz, calFreqMHz, link)
		if err != nil {
			return radio.CalTally{}, err
		}
		dem, _, derr := demodulate(capture)
		if derr != nil {
			// Sync failures, mid-frame aborts and quality-gate drops all
			// count as fails, which divide into SyncFail — the symbol tier
			// must not re-apply the gate on top.
			tally.Fails++
			continue
		}
		for d, n := range dem.ChipDistHist {
			tally.Hist[d] += uint64(n)
		}
	}
	return tally, nil
}

// smoothProfile enforces physical monotonicity along the SNR axis for
// each (CFO, WiFi) column: the sync-failure rate may not rise with SNR,
// and the per-symbol decode probability (the frame tier's functional of
// the distance distribution) may not fall. Finite per-cell sampling
// occasionally violates both by a hair; clamping to the neighbouring
// cell keeps interpolated success probabilities monotone, which the
// fidelity tiers' shape tests pin. The rules compare the divided cells
// (framesPerCell frames each) and act on the counts: a violating cell
// takes its lower-SNR neighbour's fail count or distance histogram.
func smoothProfile(p *radio.CalProfile, framesPerCell int) {
	tally := func(si, ci, wi int) *radio.CalTally {
		return &p.Tallies[cellIndex(p, si, ci, wi)]
	}
	symOK := func(c radio.CalCell) float64 {
		s := 0.0
		for k, w := range c.Dist {
			s += float64(w * radio.SymbolCorrectProb(k)) // rounded: never a fused multiply-add
		}
		return s
	}
	for ci := range p.CFOHz {
		for wi := range p.WiFi {
			for si := 1; si < len(p.SNRdB); si++ {
				prev, cur := tally(si-1, ci, wi), tally(si, ci, wi)
				pc, cc := prev.Cell(framesPerCell), cur.Cell(framesPerCell)
				if cc.SyncFail > pc.SyncFail {
					cur.Fails = prev.Fails
				}
				if symOK(cc) < symOK(pc) {
					cur.Hist = prev.Hist
				}
			}
		}
	}
}

// mixSeed folds calibration coordinates into one well-mixed seed with
// a SplitMix64 chain (the repo-wide seed discipline).
func mixSeed(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h = randsrc.SplitMix64(h ^ v)
	}
	return h
}
