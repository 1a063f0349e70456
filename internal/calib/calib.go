// Package calib fits the calibration tables behind the symbol and frame
// fidelity tiers of internal/radio. The IQ tier is the ground truth: the
// fitter runs real frames through waveform synthesis, the simulated
// medium and the real demodulators across a grid of operating points —
// both WazaBee chip models on both sides, an SNR sweep bracketing the
// Table III operating band, carrier offsets up to the crystal budget and
// clean as well as WiFi-degraded channels — and records, per grid cell,
// the sync-failure rate and the per-symbol despreading distance
// histogram. The symbol tier replays those distributions through the
// real despreader decision logic; the frame tier collapses them to a
// closed-form per-frame probability.
//
// cmd/calibrate is the offline entry point that regenerates the
// checked-in table (internal/radio/caldata/table.json) and verifies it
// for drift in CI.
package calib

import (
	"fmt"
	"math"

	"wazabee/internal/chip"
	"wazabee/internal/dsp"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/radio"
	"wazabee/internal/zigbee"
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
	// Progress, when non-nil, is called after each finished profile.
	Progress func(profile string, done, total int)
}

// DefaultOptions matches the checked-in table.
func DefaultOptions() Options {
	return Options{SamplesPerChip: 8, FramesPerCell: 28, Seed: 1}
}

// endpoints is the modem pair of one calibration profile.
type endpoints struct {
	modulate   func(*ieee802154.PPDU) (dsp.IQ, error)
	demodulate func(dsp.IQ) (*ieee802154.Demodulated, error)
}

// profileSpec describes one profile's link flavour and grid axes.
type profileSpec struct {
	name string
	cfo  []float64
	wifi []float64
	// build constructs the modem pair (called once per profile).
	build func(sps int, reg *obs.Registry) (endpoints, error)
}

// nativeEndpoints is an O-QPSK modem on both ends (the RZUSBStick role,
// and what every node of the mesh simulator is).
func nativeEndpoints(sps int, reg *obs.Registry) (endpoints, error) {
	phy, err := chip.RZUSBStick().NewZigbeePHY(sps)
	if err != nil {
		return endpoints{}, err
	}
	phy.Obs = reg
	return endpoints{
		modulate:   phy.Modulate,
		demodulate: phy.Demodulate,
	}, nil
}

// receptionEndpoints: legitimate 802.15.4 transmitter, diverted BLE
// chip receiving (Table III's reception column).
func receptionEndpoints(model chip.Model) func(int, *obs.Registry) (endpoints, error) {
	return func(sps int, reg *obs.Registry) (endpoints, error) {
		phy, err := chip.RZUSBStick().NewZigbeePHY(sps)
		if err != nil {
			return endpoints{}, err
		}
		phy.Obs = reg
		rx, err := model.NewWazaBeeReceiver(sps)
		if err != nil {
			return endpoints{}, err
		}
		rx.Obs = reg
		return endpoints{modulate: phy.Modulate, demodulate: rx.Receive}, nil
	}
}

// transmissionEndpoints: diverted BLE chip transmitting, legitimate
// 802.15.4 radio receiving (Table III's transmission column).
func transmissionEndpoints(model chip.Model) func(int, *obs.Registry) (endpoints, error) {
	return func(sps int, reg *obs.Registry) (endpoints, error) {
		tx, err := model.NewWazaBeeTransmitter(sps)
		if err != nil {
			return endpoints{}, err
		}
		tx.Obs = reg
		phy, err := chip.RZUSBStick().NewZigbeePHY(sps)
		if err != nil {
			return endpoints{}, err
		}
		phy.Obs = reg
		return endpoints{modulate: tx.Modulate, demodulate: phy.Demodulate}, nil
	}
}

// profileSpecs enumerates the fitted profiles: the native O-QPSK link of
// the mesh simulator plus both WazaBee chips on both sides. The CFO axis
// tops out at each pairing's worst-case crystal budget (1 ppm at f MHz
// is f Hz, and the experiment draws from ±(txPPM+rxPPM)).
func profileSpecs() []profileSpec {
	stick := chip.RZUSBStick()
	specs := []profileSpec{{
		name: radio.ProfileOQPSK,
		// The mesh simulator models co-located identical radios; its
		// links carry no CFO, so one axis point suffices (lookups clamp).
		cfo:   []float64{0},
		wifi:  wifiGrid,
		build: nativeEndpoints,
	}}
	for _, model := range []chip.Model{chip.NRF52832(), chip.CC1352R1()} {
		maxCFO := (model.CrystalPPM + stick.CrystalPPM) * 2480 // worst channel
		for _, side := range []string{"reception", "transmission"} {
			build := receptionEndpoints(model)
			if side == "transmission" {
				build = transmissionEndpoints(model)
			}
			specs = append(specs, profileSpec{
				name:  radio.CalProfileName(model.Name, side),
				cfo:   []float64{0, maxCFO / 2, maxCFO},
				wifi:  wifiGrid,
				build: build,
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

// Fit runs the calibration pass and returns the fitted table.
func Fit(opts Options) (*radio.CalTable, error) {
	if opts.SamplesPerChip < 1 {
		return nil, fmt.Errorf("calib: samples per chip %d < 1", opts.SamplesPerChip)
	}
	if opts.FramesPerCell < 1 {
		return nil, fmt.Errorf("calib: frames per cell %d < 1", opts.FramesPerCell)
	}
	specs := profileSpecs()
	table := &radio.CalTable{
		Version:        1,
		SamplesPerChip: opts.SamplesPerChip,
		FramesPerCell:  opts.FramesPerCell,
		Seed:           opts.Seed,
		Profiles:       make(map[string]*radio.CalProfile, len(specs)),
	}
	for pi, spec := range specs {
		prof, err := fitProfile(opts, pi, spec)
		if err != nil {
			return nil, fmt.Errorf("calib: profile %s: %w", spec.name, err)
		}
		table.Profiles[spec.name] = prof
		if opts.Progress != nil {
			opts.Progress(spec.name, pi+1, len(specs))
		}
	}
	if err := table.Validate(); err != nil {
		return nil, err
	}
	return table, nil
}

func fitProfile(opts Options, profIdx int, spec profileSpec) (*radio.CalProfile, error) {
	// All pipeline telemetry of the fit lands in a private registry the
	// fitter discards: calibration must not pollute process metrics.
	reg := obs.NewRegistry()
	ep, err := spec.build(opts.SamplesPerChip, reg)
	if err != nil {
		return nil, err
	}

	// The calibration frames mirror the Table III traffic (counter-tagged
	// sensor data frames). The waveforms depend only on the frame index,
	// so they are synthesised once and reused across every cell.
	sigs := make([]dsp.IQ, opts.FramesPerCell)
	for f := range sigs {
		hdr := ieee802154.NewDataFrame(uint8(f), zigbee.DefaultPAN, zigbee.DefaultCoordinator,
			zigbee.DefaultSensor, zigbee.SensorPayload(uint16(f)), false)
		psdu, err := hdr.Encode()
		if err != nil {
			return nil, err
		}
		ppdu, err := ieee802154.NewPPDU(psdu)
		if err != nil {
			return nil, err
		}
		if sigs[f], err = ep.modulate(ppdu); err != nil {
			return nil, err
		}
	}

	prof := &radio.CalProfile{
		Name:  spec.name,
		SNRdB: append([]float64(nil), snrGrid...),
		CFOHz: append([]float64(nil), spec.cfo...),
		WiFi:  append([]float64(nil), spec.wifi...),
		Cells: make([]radio.CalCell, len(snrGrid)*len(spec.cfo)*len(spec.wifi)),
	}
	sampleRate := float64(opts.SamplesPerChip) * ieee802154.ChipRate
	for si, snr := range snrGrid {
		for ci, cfo := range spec.cfo {
			for wi, wifi := range spec.wifi {
				cell, err := fitCell(opts, reg, ep, sigs, sampleRate, profIdx, si, ci, wi, snr, cfo, wifi)
				if err != nil {
					return nil, err
				}
				prof.Cells[(si*len(spec.cfo)+ci)*len(spec.wifi)+wi] = cell
			}
		}
	}
	smoothProfile(prof)
	return prof, nil
}

// fitCell measures one grid cell: FramesPerCell independent frames, each
// over a fresh medium whose every draw flows from the cell-and-frame
// derived seed (the same isolation discipline as the Table III trials).
func fitCell(opts Options, reg *obs.Registry, ep endpoints, sigs []dsp.IQ, sampleRate float64,
	profIdx, si, ci, wi int, snr, cfo, wifi float64) (radio.CalCell, error) {
	fails := 0
	var hist [17]uint64
	var symbols uint64
	for f, sig := range sigs {
		seed := mixSeed(uint64(opts.Seed), uint64(profIdx), uint64(si), uint64(ci), uint64(wi), uint64(f))
		medium, err := radio.NewMedium(sampleRate, int64(seed))
		if err != nil {
			return radio.CalCell{}, err
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
			return radio.CalCell{}, err
		}
		dem, derr := ep.demodulate(capture)
		if derr != nil {
			// Sync failures, mid-frame aborts and quality-gate drops all
			// fold into SyncFail — the symbol tier must not re-apply the
			// gate on top.
			fails++
			continue
		}
		for d, n := range dem.ChipDistHist {
			hist[d] += uint64(n)
			symbols += uint64(n)
		}
	}

	cell := radio.CalCell{SyncFail: float64(fails) / float64(len(sigs))}
	if symbols == 0 {
		// Nothing decoded: the distance distribution is unobservable.
		// Pin it to the worst bucket so any interpolation toward this
		// cell degrades pessimistically; with SyncFail at 1 the symbol
		// draw never actually reaches it.
		cell.Dist[16] = 1
		return cell, nil
	}
	for d, n := range hist {
		cell.Dist[d] = float64(n) / float64(symbols)
	}
	return cell, nil
}

// smoothProfile enforces physical monotonicity along the SNR axis for
// each (CFO, WiFi) column: the sync-failure rate may not rise with SNR,
// and the per-symbol decode probability (the frame tier's functional of
// the distance distribution) may not fall. Finite per-cell sampling
// occasionally violates both by a hair; clamping to the neighbouring
// cell keeps interpolated success probabilities monotone, which the
// fidelity tiers' shape tests pin.
func smoothProfile(p *radio.CalProfile) {
	cell := func(si, ci, wi int) *radio.CalCell {
		return &p.Cells[(si*len(p.CFOHz)+ci)*len(p.WiFi)+wi]
	}
	symOK := func(c *radio.CalCell) float64 {
		s := 0.0
		for k, w := range c.Dist {
			s += w * radio.SymbolCorrectProb(k)
		}
		return s
	}
	for ci := range p.CFOHz {
		for wi := range p.WiFi {
			for si := 1; si < len(p.SNRdB); si++ {
				prev, cur := cell(si-1, ci, wi), cell(si, ci, wi)
				if cur.SyncFail > prev.SyncFail {
					cur.SyncFail = prev.SyncFail
				}
				if symOK(cur) < symOK(prev) {
					cur.Dist = prev.Dist
				}
			}
		}
	}
}

// mixSeed folds calibration coordinates into one well-mixed seed with
// the SplitMix64 finaliser chain (the repo-wide seed discipline).
func mixSeed(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= v
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
