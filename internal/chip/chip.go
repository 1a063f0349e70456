// Package chip models the radio front ends of the hardware used in the
// paper's experiments: the two BLE chips the attack was implemented on
// (Nordic nRF52832, Texas Instruments CC1352-R1), the nRF51822 of the BLE
// tracker in scenario B, and the Atmel RZUSBStick 802.15.4 dongle that
// plays the legitimate Zigbee endpoint.
//
// A model captures what matters to the attack: which PHY modes the chip
// offers, how flexible its frequency synthesizer is, whether whitening and
// CRC checking can be bypassed, and the analog quality (noise figure,
// crystal tolerance) that separates the two implementations in Table III.
package chip

import (
	"fmt"

	"wazabee/internal/ble"
	"wazabee/internal/core"
	"wazabee/internal/dsp"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/obs/link"
)

// Model describes one radio front end.
type Model struct {
	// Name is the part number used in reports.
	Name string
	// Mode is the GFSK mode the WazaBee implementation uses on this
	// chip (LE 2M where available, ESB 2M on the nRF51822).
	Mode ble.Mode
	// ModulationIndex is the chip's GFSK modulation index (the BLE
	// specification tolerates 0.45..0.55).
	ModulationIndex float64
	// BT is the Gaussian filter bandwidth-time product.
	BT float64
	// NoiseFigureDB degrades the link SNR at this chip's receiver; it
	// encodes the analog sensitivity difference between front ends.
	NoiseFigureDB float64
	// CrystalPPM is the frequency tolerance of the chip's reference
	// crystal; TX/RX pairs see a CFO drawn from it.
	CrystalPPM float64
	// ArbitraryFrequency reports whether the radio API tunes to any
	// 2.4 GHz channel raster frequency (most BLE 5 chips do, including
	// both chips of the paper's benchmarks) or only to BLE channel
	// indices, in which case the Table II subset applies (the
	// smartphone of scenario A is the extreme case — it cannot pick
	// even a BLE channel directly).
	ArbitraryFrequency bool
	// CanDisableWhitening and CanDisableCRC report the register-level
	// escape hatches section IV-D requires.
	CanDisableWhitening bool
	CanDisableCRC       bool
	// SyncTolerance is the number of bit errors the chip's hardware
	// address correlator accepts.
	SyncTolerance int
	// InterferenceRejectionDB is the receiver's blocking/selectivity
	// margin against co-channel interference bursts; the CC1352-R1's
	// stronger front end is what keeps its Table III columns stable
	// under the lab's WiFi traffic.
	InterferenceRejectionDB float64
	// QualityThreshold is the despreading quality gate (worst tolerated
	// per-symbol chip distance). A strict gate drops marginal frames
	// instead of delivering them corrupted, which is why the CC1352-R1
	// column of Table III shows losses but no corruption.
	QualityThreshold int
}

// Models used by the reproduced experiments. The analog figures are
// calibrated so the simulated Table III reproduces the paper's shape
// (CC1352-R1 slightly cleaner than nRF52832; nRF51822 noticeably worse in
// ESB fallback mode).
func NRF52832() Model {
	return Model{
		Name:                "nRF52832",
		Mode:                ble.LE2M,
		ModulationIndex:     0.52, // within the BLE 0.45..0.55 band, slightly off nominal
		BT:                  0.5,
		NoiseFigureDB:       3.0,
		CrystalPPM:          30,
		ArbitraryFrequency:  true,
		CanDisableWhitening: true,
		CanDisableCRC:       true,
		SyncTolerance:       2,
		QualityThreshold:    13,
	}
}

func CC1352R1() Model {
	return Model{
		Name:                    "CC1352-R1",
		Mode:                    ble.LE2M,
		ModulationIndex:         0.5,
		BT:                      0.5,
		NoiseFigureDB:           1.5,
		CrystalPPM:              20,
		ArbitraryFrequency:      true,
		CanDisableWhitening:     true,
		CanDisableCRC:           true,
		SyncTolerance:           3,
		InterferenceRejectionDB: 6,
		QualityThreshold:        8,
	}
}

func NRF51822() Model {
	return Model{
		Name:                "nRF51822",
		Mode:                ble.ESB2M,
		ModulationIndex:     0.5,
		BT:                  0.5,
		NoiseFigureDB:       6.0,
		CrystalPPM:          40,
		ArbitraryFrequency:  true,
		CanDisableWhitening: true,
		CanDisableCRC:       true,
		SyncTolerance:       2,
		QualityThreshold:    13,
	}
}

// CC2652R is the Texas Instruments multiprotocol chip the paper's
// related work cites as natively supporting both technologies — on it
// the "pivot" needs no trick at all, which is why WazaBee matters for
// the single-protocol chips above.
func CC2652R() Model {
	return Model{
		Name:                    "CC2652R",
		Mode:                    ble.LE2M,
		ModulationIndex:         0.5,
		BT:                      0.5,
		NoiseFigureDB:           1.5,
		CrystalPPM:              20,
		ArbitraryFrequency:      true,
		CanDisableWhitening:     true,
		CanDisableCRC:           true,
		SyncTolerance:           3,
		InterferenceRejectionDB: 6,
		QualityThreshold:        8,
	}
}

// AndroidController models the smartphone of scenario A: a BLE 5
// controller reachable only through the host API. It cannot tune
// channels (CSA#2 does), cannot bypass whitening (the attacker
// pre-compensates) and cannot disable CRC checking — which is exactly
// why the phone has a transmission path but no reception primitive.
func AndroidController() Model {
	return Model{
		Name:            "Android BLE controller",
		Mode:            ble.LE2M,
		ModulationIndex: 0.5,
		BT:              0.5,
		NoiseFigureDB:   3.0,
		CrystalPPM:      40,
		SyncTolerance:   2,
	}
}

// RZUSBStick is the legitimate 802.15.4 transceiver of the experimental
// setup (it is not a BLE chip; its Mode is zero).
func RZUSBStick() Model {
	return Model{
		Name:                    "RZUSBStick",
		NoiseFigureDB:           1.0,
		CrystalPPM:              25,
		InterferenceRejectionDB: 2,
		QualityThreshold:        14,
	}
}

// CanTune reports whether the chip can operate on the given Zigbee
// channel: chips with an arbitrary synthesizer reach all 16 channels,
// others only the 8 channels sharing a BLE centre frequency (Table II).
func (m Model) CanTune(zigbeeChannel int) bool {
	if _, err := ieee802154.ChannelFrequencyMHz(zigbeeChannel); err != nil {
		return false
	}
	if m.ArbitraryFrequency {
		return true
	}
	_, err := core.BLEChannelFor(zigbeeChannel)
	return err == nil
}

// NewWazaBeeTransmitter builds the WazaBee transmission primitive on this
// chip's radio at the given oversampling factor.
func (m Model) NewWazaBeeTransmitter(samplesPerSymbol int) (*core.Transmitter, error) {
	phy, err := m.newPHY(samplesPerSymbol)
	if err != nil {
		return nil, err
	}
	return core.NewTransmitter(phy)
}

// NewWazaBeeReceiver builds the WazaBee reception primitive. It fails on
// chips that cannot disable CRC checking, because invalid-CRC frames are
// dropped in the controller before the host sees them (the scenario A
// limitation).
func (m Model) NewWazaBeeReceiver(samplesPerSymbol int) (*core.Receiver, error) {
	if !m.CanDisableCRC {
		return nil, fmt.Errorf("chip: %s cannot disable CRC checking; reception primitive unavailable", m.Name)
	}
	phy, err := m.newPHY(samplesPerSymbol)
	if err != nil {
		return nil, err
	}
	rx, err := core.NewReceiver(phy)
	if err != nil {
		return nil, err
	}
	rx.MaxPatternErrors = m.SyncTolerance
	if m.QualityThreshold > 0 {
		rx.MaxChipDistance = m.QualityThreshold
	}
	return rx, nil
}

// NewZigbeePHY builds a native O-QPSK modem (for the RZUSBStick role).
func (m Model) NewZigbeePHY(samplesPerChip int) (*ieee802154.PHY, error) {
	phy, err := ieee802154.NewPHY(samplesPerChip)
	if err != nil {
		return nil, err
	}
	if m.QualityThreshold > 0 {
		phy.MaxChipDistance = m.QualityThreshold
	}
	return phy, nil
}

// Modulator returns the transmit half of this radio's 802.15.4 modem at
// the given oversampling factor: the WazaBee transmission primitive on a
// BLE chip, the native O-QPSK modulator on an 802.15.4 radio (Mode 0).
// The modem reports to reg (nil: the process default registry) and
// records spans in tr (nil: none).
func (m Model) Modulator(samplesPerChip int, reg *obs.Registry, tr *obs.Trace) (func(*ieee802154.PPDU) (dsp.IQ, error), error) {
	if m.Mode == 0 {
		phy, err := m.NewZigbeePHY(samplesPerChip)
		if err != nil {
			return nil, err
		}
		phy.Obs, phy.Trace = reg, tr
		return phy.Modulate, nil
	}
	tx, err := m.NewWazaBeeTransmitter(samplesPerChip)
	if err != nil {
		return nil, err
	}
	tx.Obs, tx.Trace = reg, tr
	return tx.Modulate, nil
}

// Demodulator returns the receive half of this radio's 802.15.4 modem,
// with each frame's link diagnostics: the WazaBee reception primitive on
// a BLE chip (which fails on chips that cannot disable CRC checking),
// the native O-QPSK demodulator on an 802.15.4 radio (Mode 0). reg and
// tr are as for Modulator.
func (m Model) Demodulator(samplesPerChip int, reg *obs.Registry, tr *obs.Trace) (func(dsp.IQ) (*ieee802154.Demodulated, *link.Stats, error), error) {
	if m.Mode == 0 {
		phy, err := m.NewZigbeePHY(samplesPerChip)
		if err != nil {
			return nil, err
		}
		phy.Obs, phy.Trace = reg, tr
		return phy.DemodulateStats, nil
	}
	rx, err := m.NewWazaBeeReceiver(samplesPerChip)
	if err != nil {
		return nil, err
	}
	rx.Obs, rx.Trace = reg, tr
	return rx.ReceiveStats, nil
}

func (m Model) newPHY(samplesPerSymbol int) (*ble.PHY, error) {
	if m.Mode == 0 {
		return nil, fmt.Errorf("chip: %s has no BLE-family radio", m.Name)
	}
	return ble.NewPHYWithShaping(m.Mode, samplesPerSymbol, m.ModulationIndex, m.BT)
}
