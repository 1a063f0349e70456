// Package wazabee is a software reproduction of "WazaBee: attacking
// Zigbee networks by diverting Bluetooth Low Energy chips" (Cayre et al.,
// IEEE/IFIP DSN 2021).
//
// The library implements the full attack over a signal-level simulation
// of the 2.4 GHz band: a BLE GFSK modem (LE 1M / LE 2M / ESB 2M), an IEEE
// 802.15.4 O-QPSK modem with DSSS, the PN↔MSK correspondence at the heart
// of the attack (Algorithm 1 and Table I/II of the paper), per-chip radio
// front-end models, a radio medium with noise, CFO and WiFi interference,
// and the two end-to-end attack scenarios (smartphone advertising
// injection and the BLE-tracker Zigbee takeover).
//
// This file is the curated public surface; the implementation lives in
// the internal packages, one per subsystem (see DESIGN.md for the map).
package wazabee

import (
	"context"
	"time"

	"wazabee/internal/attack"
	"wazabee/internal/bitstream"
	"wazabee/internal/campaign"
	"wazabee/internal/capture"
	"wazabee/internal/chip"
	"wazabee/internal/core"
	"wazabee/internal/dsp"
	"wazabee/internal/experiment"
	"wazabee/internal/experiment/runner"
	"wazabee/internal/ids"
	"wazabee/internal/ieee802154"
	"wazabee/internal/modsim"
	"wazabee/internal/obs"
	"wazabee/internal/obs/link"
	"wazabee/internal/radio"
	"wazabee/internal/zigbee"
	"wazabee/internal/zigbee/sim"
)

// Core attack types.
type (
	// Transmitter is the WazaBee transmission primitive: a diverted BLE
	// GFSK modulator emitting IEEE 802.15.4 frames.
	Transmitter = core.Transmitter
	// Receiver is the WazaBee reception primitive: a diverted BLE
	// receiver despreading 802.15.4 frames by Hamming distance.
	Receiver = core.Receiver
	// Chip models a radio front end (nRF52832, CC1352-R1, nRF51822,
	// RZUSBStick) with its capabilities and analog quality.
	Chip = chip.Model
	// ChannelMapping is one row of Table II (Zigbee/BLE common
	// channels).
	ChannelMapping = core.ChannelMapping
	// CorrespondenceEntry is one row of the PN/MSK table the attack is
	// built on.
	CorrespondenceEntry = core.CorrespondenceEntry
	// Bits is an on-air bit (or chip) sequence.
	Bits = bitstream.Bits
	// IQ is a complex-baseband sample buffer.
	IQ = dsp.IQ
	// PPDU is an IEEE 802.15.4 PHY frame.
	PPDU = ieee802154.PPDU
	// MACFrame is an IEEE 802.15.4 MAC frame.
	MACFrame = ieee802154.MACFrame
)

// Chip catalogue of the paper's experiments.
var (
	NRF52832   = chip.NRF52832
	CC1352R1   = chip.CC1352R1
	NRF51822   = chip.NRF51822
	RZUSBStick = chip.RZUSBStick
)

// NewTransmitter builds the WazaBee transmission primitive on a chip's
// radio at the given baseband oversampling factor (samples per 2 Mbit/s
// symbol).
func NewTransmitter(model Chip, samplesPerSymbol int) (*Transmitter, error) {
	return model.NewWazaBeeTransmitter(samplesPerSymbol)
}

// NewReceiver builds the WazaBee reception primitive on a chip's radio.
func NewReceiver(model Chip, samplesPerSymbol int) (*Receiver, error) {
	return model.NewWazaBeeReceiver(samplesPerSymbol)
}

// ConvertPNSequence is Algorithm 1 of the paper: it re-encodes a 32-chip
// O-QPSK PN sequence as the 31-bit MSK sequence of its phase rotations.
func ConvertPNSequence(pn Bits) (Bits, error) {
	return core.ConvertPNSequence(pn)
}

// ConvertChipStream generalises Algorithm 1 to whole frames.
func ConvertChipStream(chips Bits) (Bits, error) {
	return core.ConvertChipStream(chips)
}

// CorrespondenceTable returns the 16-row PN/MSK table.
func CorrespondenceTable() ([16]CorrespondenceEntry, error) {
	return core.CorrespondenceTable()
}

// CommonChannels returns Table II: the Zigbee channels sharing a centre
// frequency with a BLE channel.
func CommonChannels() []ChannelMapping {
	return core.CommonChannels()
}

// AccessAddress returns the 32-bit value a diverted BLE chip loads as its
// Access Address to detect 802.15.4 preambles.
func AccessAddress() uint32 {
	return core.AccessAddress()
}

// NewFrame wraps a MAC-level PSDU (including FCS) in a PPDU.
func NewFrame(psdu []byte) (*PPDU, error) {
	return ieee802154.NewPPDU(psdu)
}

// NewDataFrame builds an intra-PAN 802.15.4 data frame; Seal encodes it
// into a PSDU with a valid FCS.
func NewDataFrame(seq uint8, pan, dest, src uint16, payload []byte, ackRequest bool) *MACFrame {
	return ieee802154.NewDataFrame(seq, pan, dest, src, payload, ackRequest)
}

// Experiment harness (Table III).
type (
	// ExperimentConfig parameterises a Table III run.
	ExperimentConfig = experiment.Config
	// ExperimentResult is one measured column of Table III.
	ExperimentResult = experiment.Result
	// Side selects the assessed primitive (reception or transmission).
	Side = experiment.Side
)

// Sides of the Table III experiment.
const (
	Reception    = experiment.Reception
	Transmission = experiment.Transmission
)

// Fidelity selects how much physics a frame delivery simulates: IQ runs
// the full DSP chain (ground truth), Symbol draws calibrated per-symbol
// chip errors through the real despreader, Frame collapses delivery to
// one calibrated erasure draw. See DESIGN.md §14 for the trade-offs.
type Fidelity = radio.Fidelity

// Fidelity tiers, cheapest last.
const (
	FidelityIQ     = radio.FidelityIQ
	FidelitySymbol = radio.FidelitySymbol
	FidelityFrame  = radio.FidelityFrame
)

// ParseFidelity parses a -fidelity flag value ("iq", "symbol", "frame").
func ParseFidelity(s string) (Fidelity, error) {
	return radio.ParseFidelity(s)
}

// DefaultExperimentConfig reproduces the paper's benchmark setup.
func DefaultExperimentConfig() ExperimentConfig {
	return experiment.DefaultConfig()
}

// RunExperiment executes the Table III experiment for one chip and side.
func RunExperiment(cfg ExperimentConfig, model Chip, side Side) (*ExperimentResult, error) {
	return experiment.RunContext(context.Background(), cfg, model, side)
}

// RunExperimentContext is RunExperiment with cancellation: the run
// executes on the sharded Monte-Carlo engine, honors ctx between
// trials, and — with cfg.Checkpoint set — persists completed shards so
// an identical invocation resumes bit-identically.
func RunExperimentContext(ctx context.Context, cfg ExperimentConfig, model Chip, side Side) (*ExperimentResult, error) {
	return experiment.RunContext(ctx, cfg, model, side)
}

// FormatExperiment renders a result next to the published Table III.
func FormatExperiment(r *ExperimentResult) string {
	return experiment.FormatComparison(r)
}

// WilsonInterval returns the 95% Wilson score interval for a rate
// estimated from count successes in trials attempts — the interval
// every experiment result in this package reports.
func WilsonInterval(count, trials int) (lo, hi float64) {
	return runner.Wilson(count, trials)
}

// Attack scenarios.
type (
	// Tracker is the scenario B attacker (four-step Zigbee takeover
	// from a compromised BLE wearable).
	Tracker = attack.Tracker
	// Smartphone is the scenario A attacker (frame injection through
	// the extended advertising API of an unrooted phone).
	Smartphone = attack.Smartphone
	// VictimNetwork is the simulated XBee domotic network of the
	// paper's experimental setup.
	VictimNetwork = zigbee.Simulation
)

// NewVictimNetwork builds the default victim network (PAN 0x1234, sensor
// 0x0063 reporting to coordinator 0x0042 on channel 14) over a seeded
// radio medium.
func NewVictimNetwork(seed int64, samplesPerChip int, snrDB float64) (*VictimNetwork, error) {
	return zigbee.NewSimulation(seed, samplesPerChip, snrDB)
}

// LiveNetwork runs a victim network on a real-time ticker, streaming
// captures to a channel (see sim.StartLive).
type LiveNetwork = sim.LiveNetwork

// LiveCapture is one annotated waveform from a LiveNetwork's capture
// stream (timestamp, channel, sequence number).
type LiveCapture = sim.LiveCapture

// StartLiveNetwork spawns the network's reporting loop; stop it with
// Shutdown.
func StartLiveNetwork(net *VictimNetwork, interval time.Duration, captureChannel int) (*LiveNetwork, error) {
	return sim.StartLive(net, interval, captureChannel)
}

// Virtual-time mesh simulation (DESIGN.md §12): thousand-node Zigbee
// meshes with full association, beaconing and CSMA-CA running at CPU
// speed on a discrete-event scheduler, deterministic under one seed.
type (
	// MeshNetwork is the discrete-event mesh simulator.
	MeshNetwork = sim.Network
	// MeshTopology declares the node roster (roles, parents, channels,
	// PANs) a MeshNetwork is built from.
	MeshTopology = sim.Topology
	// MeshConfig carries the run seed, traffic cadences and link model,
	// and the registry, trace and flight recorder the mesh reports to
	// (each nil for none; pass Metrics() for the process registry).
	MeshConfig = sim.Config

	// MeshNodeStats is one node's observatory snapshot: MAC counters,
	// join latency, radio-state durations and integrated energy.
	MeshNodeStats = sim.NodeStats
	// MeshLinkStats is one directed (tx → rx) link's delivery record.
	MeshLinkStats = sim.LinkStats
	// MeshSnapshot is the full observatory state (/debug/sim's payload).
	MeshSnapshot = sim.Snapshot
	// MeshEnergyProfile is a per-chip radio current-draw table for the
	// energy accountant.
	MeshEnergyProfile = sim.EnergyProfile
)

// MeshEnergyProfileByName resolves an energy-accountant chip name
// ("cc2652", "nrf52840") to its current-draw profile.
func MeshEnergyProfileByName(name string) (MeshEnergyProfile, error) {
	return sim.ProfileByName(name)
}

// NewMeshNetwork builds a simulator over a topology — see sim.Star,
// sim.Tree and sim.Random for generators, and cmd/wazabeesim for the
// CLI front end.
func NewMeshNetwork(topo MeshTopology, cfg MeshConfig) (*MeshNetwork, error) {
	return sim.New(topo, cfg)
}

// NewTracker wires a scenario B attacker to its radio environment.
func NewTracker(tx *Transmitter, rx *Receiver, air attack.Air) (*Tracker, error) {
	return attack.NewTracker(tx, rx, air)
}

// NewSmartphone builds the scenario A attacker.
func NewSmartphone(samplesPerSymbol int) (*Smartphone, error) {
	return attack.NewSmartphone(samplesPerSymbol)
}

// Observability: the telemetry layer every instrumented component
// (Transmitter, Receiver, the radio medium, the 802.15.4 decoder, the
// IDS and the experiment harnesses) reports into.
type (
	// MetricsRegistry holds counters, gauges and histograms and encodes
	// them as Prometheus text or a JSON snapshot.
	MetricsRegistry = obs.Registry
	// MetricsCounter is a concurrency-safe monotonic counter.
	MetricsCounter = obs.Counter
	// MetricsGauge is a concurrency-safe instantaneous value.
	MetricsGauge = obs.Gauge
	// MetricsHistogram is a fixed-bucket histogram with quantile
	// estimation.
	MetricsHistogram = obs.Histogram
	// Trace collects nested, timed spans of one pipeline traversal.
	Trace = obs.Trace
	// Span is one timed pipeline stage inside a Trace.
	Span = obs.Span
)

// DefaultRegistry is the process-wide metrics registry; instrumented
// components report here unless given a private registry via their Obs
// field (or an experiment Config's Obs field).
var DefaultRegistry = obs.Default()

// Metrics returns the process-wide default metrics registry — print
// Metrics().PrometheusText() to see everything the pipeline observed.
func Metrics() *MetricsRegistry {
	return obs.Default()
}

// NewMetricsRegistry builds a private registry, for callers who want to
// isolate one run's telemetry from the process totals.
func NewMetricsRegistry() *MetricsRegistry {
	return obs.NewRegistry()
}

// NewTrace starts a span trace; attach it to a Transmitter, Receiver or
// medium via their Trace field and render it with Tree() or JSON().
func NewTrace(name string) *Trace {
	return obs.NewTrace(name)
}

// Link diagnostics: the per-frame signal-quality evidence (RSSI, SNR,
// CFO, sync correlation, chip errors, 802.15.4 LQI) the demodulators
// attach to every receive attempt (see DESIGN.md §7).
type (
	// LinkStats is one frame's link-quality record; Receiver.ReceiveStats
	// returns it alongside the demodulation.
	LinkStats = link.Stats
	// LinkAggregator folds LinkStats into per-channel summaries — the
	// payload of wazabeed's /debug/link endpoint.
	LinkAggregator = link.Aggregator
	// LinkChannelSummary is one channel's aggregate link quality.
	LinkChannelSummary = link.ChannelSummary
)

// NewLinkAggregator builds a per-channel link-quality aggregator
// reporting into the process default metrics registry.
func NewLinkAggregator() *LinkAggregator {
	return link.NewAggregator(nil)
}

// Health, latency SLOs and the flight recorder (see DESIGN.md §11):
// the runtime-observability layer wazabeed serves on /healthz, /readyz
// and /debug/flight.
type (
	// Health is a registry of named component probes; its Healthz and
	// Readyz handlers are the daemon's liveness/readiness endpoints.
	Health = obs.Health
	// HealthComponent is one registered component's push-state handle
	// (SetOK / SetDegraded / SetDown).
	HealthComponent = obs.HealthComponent
	// HealthSnapshot is one full evaluation of a Health registry.
	HealthSnapshot = obs.HealthSnapshot
	// FlightRecorder is the process's one bounded ring of recent
	// structured events — frames, drops, errors, attack steps — each with
	// a severity and key/value fields, dumpable via HTTP or SIGQUIT
	// without stopping the process; SetSink and SetLevel also write the
	// events at or above a threshold as JSON lines.
	FlightRecorder = obs.Flight
	// FlightEvent is one recorded flight event.
	FlightEvent = obs.FlightEvent
)

// NewHealth builds a health registry reporting into the process default
// metrics registry.
func NewHealth() *Health {
	return obs.NewHealth(nil)
}

// DefaultFlightRecorder returns the process-wide flight recorder;
// instrumented components record here unless given a private recorder,
// and wazabeed writes its -log-level lines from it.
func DefaultFlightRecorder() *FlightRecorder {
	return obs.DefaultFlight()
}

// ComputeLQI maps a chip error rate and an SNR estimate onto the
// 802.15.4 link-quality-indication scale (0–255).
func ComputeLQI(chipErrorRate, snrDB float64, snrValid bool) uint8 {
	return link.ComputeLQI(chipErrorRate, snrDB, snrValid)
}

// Capture subsystem: persistence, fan-out streaming and deterministic
// replay of sniffed 802.15.4 traffic (see internal/capture and
// DESIGN.md §8).
type (
	// CaptureRecord is one timestamped frame record (channel, RSSI/SNR,
	// decoder kind, PSDU) — the unit every capture sink consumes.
	CaptureRecord = capture.Record
	// CaptureHub fans one producer's records out to N subscribers with
	// bounded queues and a drop-oldest backpressure policy.
	CaptureHub = capture.Hub
	// CaptureSubscription is one consumer's bounded view of a hub
	// stream.
	CaptureSubscription = capture.Subscription
	// ReplayConfig parameterises deterministic playback of recorded
	// captures through the simulated radio medium.
	ReplayConfig = capture.ReplayConfig
)

// OpenPCAP reads a Wireshark-compatible capture file (link type 195,
// IEEE 802.15.4 with FCS) into records.
func OpenPCAP(path string) ([]CaptureRecord, error) {
	return capture.OpenPCAP(path)
}

// WritePCAP saves records to a pcap file that opens directly in
// Wireshark.
func WritePCAP(path string, records []CaptureRecord) error {
	return capture.WritePCAP(path, records)
}

// NewHub builds a capture fan-out hub reporting into the process
// default metrics registry.
func NewHub() *CaptureHub {
	return capture.NewHub(nil)
}

// Replay plays recorded captures back through a seeded radio medium,
// handing each reconstructed waveform to sink — the injected-seed
// determinism the rest of the repo guarantees applies, so a saved
// capture is a reproducible regression input.
func Replay(records []CaptureRecord, cfg ReplayConfig, sink func(CaptureRecord, dsp.IQ) error) error {
	return capture.Replay(records, cfg, sink)
}

// ReplayThroughReceiver replays records into a WazaBee receiver and
// returns the per-record demodulations (nil entries are misses).
func ReplayThroughReceiver(records []CaptureRecord, cfg ReplayConfig, rx *Receiver) ([]*ieee802154.Demodulated, error) {
	return capture.ReplayThroughReceiver(records, cfg, rx)
}

// Counter-measures and prospective analysis (sections VII and VIII).
type (
	// IDSMonitor is the section VII radio-monitoring counter-measure:
	// it inspects captures for cross-technology attack signatures.
	IDSMonitor = ids.Monitor
	// IDSFrameMonitor is the monitor's frame-fidelity tier: it judges
	// pre-extracted per-frame features instead of IQ captures, so the
	// mesh simulator's campaigns can run the same detectors.
	IDSFrameMonitor = ids.FrameMonitor
	// IDSVerdict is the result of one inspection.
	IDSVerdict = ids.Verdict
	// PivotScore is one modulation-pivotability survey row.
	PivotScore = modsim.PairScore
)

// Campaign engine (DESIGN.md §15): the scenario catalogue swept against
// the IDS thresholds into an attack-vs-detection ROC matrix.
type (
	// CampaignScenario is one catalogue entry — a named, repeatable
	// attack (or the benign baseline) on a simulated mesh.
	CampaignScenario = campaign.Scenario
	// CampaignOutcome is one scenario run's score card.
	CampaignOutcome = campaign.Outcome
	// CampaignOptions parameterises one scenario instance.
	CampaignOptions = campaign.Options
	// CampaignMatrixSpec parameterises a full campaign sweep.
	CampaignMatrixSpec = campaign.MatrixSpec
	// CampaignMatrix is a completed sweep: ROC cells plus impact rows.
	CampaignMatrix = campaign.Matrix
)

// CampaignCatalogue lists the scenario catalogue in stable order.
func CampaignCatalogue() []CampaignScenario {
	return campaign.Catalogue()
}

// CampaignScenarioByName resolves one catalogue scenario.
func CampaignScenarioByName(name string) (CampaignScenario, error) {
	return campaign.ByName(name)
}

// RunCampaignMatrix executes a campaign sweep — every (scenario,
// threshold) cell as a deterministic Monte-Carlo point, bit-identical at
// any worker count. cmd/wazabeecampaign is the CLI front end.
func RunCampaignMatrix(ctx context.Context, spec CampaignMatrixSpec) (*CampaignMatrix, error) {
	return campaign.RunMatrix(ctx, spec)
}

// NewIDSMonitor builds the radio watchdog at the given oversampling
// factor.
func NewIDSMonitor(samplesPerChip int) (*IDSMonitor, error) {
	return ids.NewMonitor(samplesPerChip)
}

// SurveyPivotability scores a catalogue of GFSK-family radios against
// the 802.15.4 O-QPSK target — the similarity metric the paper's future
// work calls for.
func SurveyPivotability(samplesPerSymbol int, seed int64) ([]PivotScore, error) {
	return modsim.SurveyAgainstOQPSK(samplesPerSymbol, seed)
}
