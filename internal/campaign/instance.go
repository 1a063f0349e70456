package campaign

import (
	"fmt"
	"math/rand"
	"time"

	"wazabee/internal/ids"
	"wazabee/internal/ieee802154"
	"wazabee/internal/randsrc"
	"wazabee/internal/zigbee"
	"wazabee/internal/zigbee/sim"
)

// The frame-tier fingerprint model: at symbol and frame fidelity no
// waveform exists to despread, so the monitor's soft-EVM statistic is
// drawn from the distributions the IQ tier measures (internal/ids
// calibration: native O-QPSK below 0.2 rad above ~12 dB SNR, diverted
// GFSK above 0.33 rad). Below that SNR the noise floor widens both
// populations — the same loss of discrimination the IQ detector
// documents.
const (
	nativeEVMMean    = 0.12
	nativeEVMSigma   = 0.025
	divertedEVMMean  = 0.38
	divertedEVMSigma = 0.035
	// evmLowSNRWiden is how much one dB below the 12 dB knee adds to
	// both distributions' spread (and the native mean's floor).
	evmLowSNRWiden = 0.01
	evmSNRKnee     = 12.0
	// framingDetectProb is the chance the monitor catches the BLE
	// advertising framing around one scenario A frame — the header is
	// short and a real scanner duty-cycles.
	framingDetectProb = 0.7
)

// evmModel draws per-frame monitor features. Draws are keyed on the
// global capture sequence number — deterministic and batch-order
// independent — never on shared stream state: each frame re-keys rng to
// key, whose stream is math/rand's seeded source's.
type evmModel struct {
	seed  int64
	snrDB float64
	rng   *rand.Rand // over a *randsrc.Source
}

func newEVMModel(seed int64, snrDB float64) evmModel {
	return evmModel{seed: seed, snrDB: snrDB, rng: rand.New(randsrc.New(seed))}
}

// draw produces one frame's features: the soft-EVM statistic from the
// appropriate calibrated distribution, and whether BLE framing was
// spotted (only ever true for attacker frames that carry it).
func (m *evmModel) draw(seq uint64, diverted, framed bool) (evm float64, framingSeen bool) {
	h := randsrc.SplitMix64(uint64(m.seed) ^ 0xca3afee1)
	h = randsrc.SplitMix64(h ^ seq)
	if diverted {
		h = randsrc.SplitMix64(h ^ 0x5eed)
	}
	m.rng.Seed(int64(h))
	mean, sigma := nativeEVMMean, nativeEVMSigma
	if diverted {
		mean, sigma = divertedEVMMean, divertedEVMSigma
	}
	if m.snrDB < evmSNRKnee {
		widen := (evmSNRKnee - m.snrDB) * evmLowSNRWiden
		sigma += widen
		if !diverted {
			mean += widen
		}
	}
	evm = mean + sigma*m.rng.NormFloat64()
	if evm < 0 {
		evm = 0
	}
	if framed {
		framingSeen = m.rng.Float64() < framingDetectProb
	}
	return evm, framingSeen
}

// instance is the shared scenario machinery: one star mesh under
// monitoring, an optional intruder with a scheduled attack plan, and an
// optional same-seed attack-free twin for energy-surplus scoring.
type instance struct {
	sc   *scenario
	opts Options

	nw    *sim.Network
	base  *sim.Network // attack-free twin (nil unless sc.energyTwin)
	intr  *sim.Intruder
	mon   ids.FrameMonitor
	model evmModel

	// frame is the attack plan's one forged frame, rebuilt in place with
	// the MACFrame Set methods for every transmission (Transmit copies
	// it).
	frame ieee802154.MACFrame

	duration    time.Duration
	attackStart time.Duration

	// detection record, mutated by the tap on the event loop.
	firstAlertAt   time.Duration
	firstAlertKind string
	alertFrames    int
	alerts         map[string]int
	fingerprint    bool // fired inside the attack window
	framing        bool

	replay *ieee802154.MACFrame // replay scenario: first legit data frame captured, parsed once

	planErr error
	ran     bool
}

// newInstance builds the mesh, monitor and attack schedule for one
// scenario at the given options. A trial builds only what Score reads:
// the meshes keep their tallies and telemetry ledgers but have no
// registry or flight recorder, and the monitor counts nothing, so
// parallel trials share no process-wide state.
func newInstance(sc *scenario, opts Options) (*instance, error) {
	opts.fill()
	it := &instance{
		sc:           sc,
		opts:         opts,
		model:        newEVMModel(opts.Seed, opts.SNRdB),
		duration:     opts.Duration,
		attackStart:  sc.attackStart,
		firstAlertAt: -1,
		alerts:       map[string]int{},
	}
	if it.attackStart <= 0 {
		it.attackStart = DefaultAttackStart
	}
	cfg := sim.Config{
		Seed:      opts.Seed,
		SNRdB:     opts.SNRdB,
		Fidelity:  opts.Fidelity,
		Telemetry: true,
		Chip:      opts.Chip,
	}
	nw, err := sim.New(sim.Star(opts.Devices), cfg)
	if err != nil {
		return nil, err
	}
	it.nw = nw
	it.mon = ids.FrameMonitor{
		FingerprintThreshold: opts.Threshold,
		ChannelExpected:      true,
	}
	nw.Tap(zigbee.DefaultChannel, it.inspect)

	if sc.attack {
		intr, err := nw.NewIntruder(zigbee.DefaultChannel)
		if err != nil {
			return nil, err
		}
		it.intr = intr
		sc.plan(it)
	}
	if sc.energyTwin {
		base, err := sim.New(sim.Star(opts.Devices), cfg)
		if err != nil {
			return nil, err
		}
		it.base = base
	}
	return it, nil
}

// inspect is the monitor tap: every non-collided frame on the victim
// channel is judged at the frame tier. Alerts inside the attack window
// count towards detection; everything is tallied.
func (it *instance) inspect(fc sim.FrameCapture) {
	if fc.Collided {
		return // two overlapped frames demodulate as neither
	}
	attacker := fc.Src == sim.IntruderSrc
	evm, framingSeen := it.model.draw(fc.Seq, attacker, attacker && it.sc.bleFraming)
	v := it.mon.Judge(ids.FrameFeatures{SoftEVM: evm, BLEFraming: framingSeen})
	if !v.Suspicious() {
		return
	}
	it.alertFrames++
	for _, a := range v.Alerts {
		it.alerts[a.Kind.String()]++
	}
	inWindow := !it.sc.attack || fc.At >= it.attackStart
	if !inWindow {
		return
	}
	for _, a := range v.Alerts {
		switch a.Kind {
		case ids.AlertModulationFingerprint:
			it.fingerprint = true
		case ids.AlertBLEFraming:
			it.framing = true
		}
	}
	if it.firstAlertAt < 0 {
		it.firstAlertAt = fc.At
		it.firstAlertKind = v.Alerts[0].Kind.String()
	}
}

// transmit forges one frame from the intruder, recording the first
// scheduling error (a plan bug, surfaced by Run).
func (it *instance) transmit(to int, frame *ieee802154.MACFrame, needAck bool) {
	if err := it.intr.Transmit(to, frame, needAck); err != nil && it.planErr == nil {
		it.planErr = err
	}
}

// Run executes the scenario (and its attack-free twin) through the
// configured virtual duration.
func (it *instance) Run() error {
	it.nw.Run(it.duration)
	if it.base != nil {
		it.base.Run(it.duration)
	}
	it.ran = true
	if it.planErr != nil {
		return fmt.Errorf("campaign: %s attack plan: %w", it.sc.name, it.planErr)
	}
	return nil
}

// Score folds the completed run into its Outcome.
func (it *instance) Score() Outcome {
	stats := it.nw.Stats()
	nodes := it.nw.NodeStats()
	// Sum in node order from zero, the float additions Snapshot makes.
	var energy float64
	for _, ns := range nodes {
		energy += ns.EnergyMicrojoules
	}
	out := Outcome{
		Scenario:          it.sc.name,
		Seed:              it.opts.Seed,
		DetectionLatency:  -1,
		AlertFrames:       it.alertFrames,
		FramesInjected:    stats.Injected,
		FramesAccepted:    stats.InjectedDelivered,
		ChannelMigrations: stats.ChannelMigrations,
		Readings:          stats.Readings,
		EnergyMicrojoules: energy,
	}
	if len(it.alerts) > 0 {
		out.Alerts = make(map[string]int, len(it.alerts))
		for k, v := range it.alerts {
			out.Alerts[k] = v
		}
	}
	out.FingerprintDetected = it.fingerprint
	out.FramingDetected = it.framing
	if it.firstAlertAt >= 0 {
		out.Detected = true
		out.FirstAlert = it.firstAlertKind
		start := it.attackStart
		if !it.sc.attack {
			start = 0
		}
		out.DetectionLatency = it.firstAlertAt - start
	}
	if disrupted := stats.Nodes - stats.Joined; disrupted > 0 {
		out.NodesDisrupted = disrupted
	}
	if it.base != nil {
		out.EnergyDrainedMicrojoules = activeMicrojoules(nodes, it.opts.Chip) -
			activeMicrojoules(it.base.NodeStats(), it.opts.Chip)
	}
	return out
}

// activeMicrojoules sums the victims' radio energy spent outside the
// idle-listening state — TX, RX, CCA and turnaround time a duty-cycled
// device would otherwise have slept through. This is the quantity a
// depletion flood inflates; total energy cannot exceed the always-on
// baseline in this MAC (idle and RX draw the same current).
func activeMicrojoules(nodes []sim.NodeStats, chip string) float64 {
	profile, err := sim.ProfileByName(chip)
	if err != nil {
		// Options.fill and sim.New validated the chip already.
		panic(err)
	}
	var uj float64
	for _, ns := range nodes {
		dur := ns.RadioTime
		dur[sim.RadioIdle] = 0
		uj += profile.Microjoules(dur)
	}
	return uj
}
