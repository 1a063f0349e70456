// Package campaign is the attack/defense campaign engine: a catalogue
// of attack scenarios executed against internal/zigbee/sim meshes, each
// scored into a structured Outcome (detection latency, frames injected
// and accepted, energy drained, nodes disrupted), and a Monte-Carlo
// driver that sweeps every (scenario, IDS-threshold) cell on
// internal/experiment/runner to produce an attack-vs-detection ROC
// matrix with Wilson confidence intervals.
//
// The paper's scenarios A (frame injection) and B (channel-migration
// denial of service) are two points of the catalogue; the
// energy-depletion family (forced retransmission, sleep deprivation)
// follows Ghost-in-the-Wireless (arXiv:1410.1613), association flooding
// and replay/impersonation round out the population, and a
// benign-traffic baseline measures the false-positive cost of every
// detector threshold.
//
// Cost: a trial builds only what Score reads. Its meshes and monitor get
// no registry or flight recorder (nil means none there), so they keep
// their tallies and telemetry ledger but mirror nothing, alert text is
// never formatted, and every forged frame is rebuilt in one reused
// MACFrame and copied into a recycled mesh record. The matrix's own
// metrics go to MatrixSpec.Obs.
//
// Determinism: a scenario instance is a pure function of its Options —
// the mesh follows the simulator's SplitMix64 seed discipline, the
// attack schedule runs on the same event loop, and the frame-tier
// fingerprint draws are keyed on the (deterministic) global capture
// sequence. Same options, same Outcome, byte for byte; the matrix
// inherits the runner's bit-identical-at-any-worker-count contract.
package campaign

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"wazabee/internal/ids"
	"wazabee/internal/radio"
)

// Default experimental parameters shared by every scenario.
const (
	// DefaultDevices is the end-device count of the standard star mesh.
	DefaultDevices = 4
	// DefaultDuration is how much virtual time one scenario run covers.
	DefaultDuration = 30 * time.Second
	// DefaultSNRdB matches the simulator's default link budget.
	DefaultSNRdB = 25
	// DefaultAttackStart leaves the mesh time to form before the
	// attacker keys up (association flooding starts earlier — its whole
	// point is to hit the join window).
	DefaultAttackStart = 10 * time.Second
)

// Options parameterises one scenario instance. The zero value of every
// field selects the catalogue default.
type Options struct {
	// Seed drives the mesh, the attack schedule and the fingerprint
	// draws.
	Seed int64
	// Fidelity is the mesh delivery tier (symbol or frame; zero selects
	// frame, the cheap tier campaigns sweep on).
	Fidelity radio.Fidelity
	// Threshold is the IDS soft-EVM decision threshold; zero selects
	// ids.DefaultFingerprintThreshold.
	Threshold float64
	// SNRdB is the victim link budget; zero selects DefaultSNRdB.
	SNRdB float64
	// Duration is the virtual time simulated; zero selects the
	// scenario's default.
	Duration time.Duration
	// Devices is the number of end devices in the star mesh; zero
	// selects DefaultDevices.
	Devices int
	// Chip selects the energy accountant's current-draw profile
	// ("cc2652", "nrf52840"; empty selects cc2652).
	Chip string
}

func (o *Options) fill() {
	if o.Fidelity == 0 {
		o.Fidelity = radio.FidelityFrame
	}
	if o.Threshold == 0 {
		o.Threshold = ids.DefaultFingerprintThreshold
	}
	if o.SNRdB == 0 {
		o.SNRdB = DefaultSNRdB
	}
	if o.Duration <= 0 {
		o.Duration = DefaultDuration
	}
	if o.Devices <= 0 {
		o.Devices = DefaultDevices
	}
}

// Outcome is one scenario run's score card. Every field is a
// deterministic function of the instance's Options, so byte-comparing
// two marshalled Outcomes is a valid same-seed identity check.
type Outcome struct {
	// Scenario and Seed identify the run.
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`

	// Detected reports whether any detector fired during the attack
	// window (for the benign baseline: at all — every benign alert is a
	// false positive).
	Detected bool `json:"detected"`
	// DetectionLatency is the virtual time from attack start to the
	// first in-window alert; -1 when undetected.
	DetectionLatency time.Duration `json:"detection_latency_ns"`
	// FirstAlert is the alert kind that fired first, "" when undetected.
	FirstAlert string `json:"first_alert,omitempty"`
	// FingerprintDetected and FramingDetected report which detectors
	// fired inside the attack window — the per-detector ROC columns.
	FingerprintDetected bool `json:"fingerprint_detected"`
	FramingDetected     bool `json:"framing_detected"`
	// AlertFrames counts monitored frames that raised at least one
	// alert (in or out of the attack window).
	AlertFrames int `json:"alert_frames"`
	// Alerts tallies every alert by kind over the whole run.
	Alerts map[string]int `json:"alerts,omitempty"`

	// FramesInjected counts attacker frames put on the air;
	// FramesAccepted those that survived collision, deafness and
	// erasure and were processed by a victim MAC.
	FramesInjected uint64 `json:"frames_injected"`
	FramesAccepted uint64 `json:"frames_accepted"`

	// NodesDisrupted counts nodes not joined to the PAN at scenario
	// end — devices the attack detached or kept from associating.
	NodesDisrupted int `json:"nodes_disrupted"`
	// ChannelMigrations counts nodes detached by a forged remote AT
	// retune (the scenario B signature).
	ChannelMigrations uint64 `json:"channel_migrations"`
	// Readings counts sensor readings the coordinator accepted —
	// goodput, including any spoofed readings the attack slipped in.
	Readings uint64 `json:"readings"`

	// EnergyMicrojoules is the victims' total radio energy over the run
	// (the PR 8 ledger). EnergyDrained is the victims' active-radio
	// (non-idle) energy surplus against a same-seed attack-free twin —
	// the budget a duty-cycled device would have slept through. The
	// always-on listening baseline is excluded: in this MAC idle and RX
	// draw the same current, so flooding cannot raise it (turnaround
	// even draws less), and a total-energy difference would score a
	// depletion flood as a net saving. Computed only for the
	// energy-depletion scenario family (0 elsewhere).
	EnergyMicrojoules        float64 `json:"energy_microjoules"`
	EnergyDrainedMicrojoules float64 `json:"energy_drained_microjoules"`
}

// Scenario is one catalogue entry: a named, repeatable attack (or the
// benign baseline) that can be instantiated onto a fresh mesh at a
// seed, run to completion, and scored.
type Scenario interface {
	// Name is the stable catalogue identifier ("scenario-a-injection").
	Name() string
	// Description is the one-line human summary.
	Description() string
	// Attack reports whether the scenario injects traffic; false only
	// for the benign baseline.
	Attack() bool
	// Setup instantiates the scenario: a fresh mesh, the monitor, and
	// the attack schedule, all derived from opts.
	Setup(opts Options) (Instance, error)
}

// Instance is one prepared scenario run.
type Instance interface {
	// Run drives the mesh (and the attack) through the configured
	// virtual duration.
	Run() error
	// Score folds the run into its Outcome. Call after Run.
	Score() Outcome
}

// Catalogue returns the scenario catalogue in stable order: the benign
// baseline first, then the attacks.
func Catalogue() []Scenario {
	out := make([]Scenario, len(catalogue))
	for i := range catalogue {
		out[i] = &catalogue[i]
	}
	return out
}

// ByName resolves a catalogue scenario.
func ByName(name string) (Scenario, error) {
	for i := range catalogue {
		if catalogue[i].name == name {
			return &catalogue[i], nil
		}
	}
	return nil, fmt.Errorf("campaign: unknown scenario %q (have %s)", name, strings.Join(Names(), ", "))
}

// Names lists the catalogue scenario names in stable order.
func Names() []string {
	names := make([]string, len(catalogue))
	for i := range catalogue {
		names[i] = catalogue[i].name
	}
	return names
}

// ParseScenarios resolves a CLI-style selection: "all" (or empty) for
// the whole catalogue, otherwise a comma-separated name list. The
// result preserves catalogue order and drops duplicates.
func ParseScenarios(sel string) ([]Scenario, error) {
	sel = strings.TrimSpace(sel)
	if sel == "" || sel == "all" {
		return Catalogue(), nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(sel, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, err := ByName(name); err != nil {
			return nil, err
		}
		want[name] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("campaign: empty scenario selection %q", sel)
	}
	var out []Scenario
	for i := range catalogue {
		if want[catalogue[i].name] {
			out = append(out, &catalogue[i])
		}
	}
	return out, nil
}

// sortedAlertKinds returns the outcome's alert kinds in stable order
// (for text rendering; JSON maps already marshal sorted).
func sortedAlertKinds(alerts map[string]int) []string {
	kinds := make([]string, 0, len(alerts))
	for k := range alerts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}
