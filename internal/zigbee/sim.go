package zigbee

import (
	"fmt"

	"wazabee/internal/dsp"
	"wazabee/internal/ieee802154"
	"wazabee/internal/radio"
)

// Simulation couples the victim network (sensor + coordinator) to a
// shared radio medium so that an attacker can interact with it purely
// through waveforms, the way the scenario B tracker does over the air.
type Simulation struct {
	Medium      *radio.Medium
	PHY         *ieee802154.PHY
	Sensor      *Sensor
	Coordinator *Coordinator

	// AttackerLink describes propagation between the attacker and the
	// victims; VictimLink the sensor↔coordinator path.
	AttackerLink radio.Link
	VictimLink   radio.Link

	// noiseFloorPower is returned power when the attacker listens to an
	// idle channel.
	noiseFloorPower float64
}

// NewSimulation builds the default experimental network over a fresh
// medium: PAN 0x1234, sensor 0x0063 reporting to coordinator 0x0042 on
// channel 14.
func NewSimulation(seed int64, samplesPerChip int, snrDB float64) (*Simulation, error) {
	phy, err := ieee802154.NewPHY(samplesPerChip)
	if err != nil {
		return nil, err
	}
	sampleRate := float64(samplesPerChip) * ieee802154.ChipRate
	medium, err := radio.NewMedium(sampleRate, seed)
	if err != nil {
		return nil, err
	}
	link := radio.Link{SNRdB: snrDB, LeadSamples: 200, LagSamples: 120}
	return &Simulation{
		Medium:          medium,
		PHY:             phy,
		Sensor:          NewSensor(),
		Coordinator:     NewCoordinator(),
		AttackerLink:    link,
		VictimLink:      link,
		noiseFloorPower: 1e-3,
	}, nil
}

// idle returns a noise-only capture of n samples.
func (s *Simulation) idle(n int) (dsp.IQ, error) {
	return dsp.NoiseFloor(n, s.noiseFloorPower, s.Medium.Rand())
}

// transmitFrame modulates a MAC frame and returns its waveform.
func (s *Simulation) transmitFrame(f *ieee802154.MACFrame) (dsp.IQ, error) {
	psdu, err := f.Encode()
	if err != nil {
		return nil, err
	}
	ppdu, err := ieee802154.NewPPDU(psdu)
	if err != nil {
		return nil, err
	}
	return s.PHY.Modulate(ppdu)
}

// receiveFrame demodulates a delivered capture into a MAC frame; it
// returns nil when nothing decodes (sync loss or FCS failure), as a real
// node would silently drop such traffic.
func (s *Simulation) receiveFrame(capture dsp.IQ) *ieee802154.MACFrame {
	dem, err := s.PHY.Demodulate(capture)
	if err != nil {
		return nil
	}
	frame, err := ieee802154.ParseMACFrame(dem.PPDU.PSDU)
	if err != nil {
		return nil
	}
	return frame
}

// Step advances one sensor reporting period: the sensor transmits its
// reading, the coordinator (when co-channel) receives, records and
// acknowledges it. The returned capture is what an attacker listening on
// captureChannel hears during the period.
func (s *Simulation) Step(captureChannel int) (dsp.IQ, error) {
	capFreq, err := ieee802154.ChannelFrequencyMHz(captureChannel)
	if err != nil {
		return nil, err
	}
	sensorFreq, err := ieee802154.ChannelFrequencyMHz(s.Sensor.Channel)
	if err != nil {
		return nil, err
	}

	frame, err := s.Sensor.NextDataFrame()
	if err != nil {
		return nil, err
	}
	sig, err := s.transmitFrame(frame)
	if err != nil {
		return nil, err
	}

	// Victim-to-victim delivery through the full IQ path.
	if s.Coordinator.Channel == s.Sensor.Channel {
		coordCapture, err := s.Medium.Deliver(sig, sensorFreq, sensorFreq, s.VictimLink)
		if err != nil {
			return nil, err
		}
		if rx := s.receiveFrame(coordCapture); rx != nil {
			if _, err := s.Coordinator.Handle(rx); err != nil {
				return nil, err
			}
		}
	}

	// Attacker's capture of the same transmission.
	return s.Medium.Deliver(sig, sensorFreq, capFreq, s.AttackerLink)
}

// Capture listens on a channel for one sensor period without injecting
// anything (scenario B's eavesdropping step).
func (s *Simulation) Capture(channel int) (dsp.IQ, error) {
	return s.Step(channel)
}

// Default extended (64-bit) addresses of the victim nodes, used as CCM*
// nonce sources when the network is secured.
const (
	DefaultSensorExt      = 0x00124b0000000063
	DefaultCoordinatorExt = 0x00124b0000000042
)

// Secure enables link-layer security on the victim network: both nodes
// share the 16-byte network key and protect their application payloads
// with the given CCM* level.
func (s *Simulation) Secure(key []byte, level ieee802154.SecurityLevel) error {
	sensorCtx, err := NewSecurityContext(key, DefaultSensorExt, level)
	if err != nil {
		return err
	}
	coordCtx, err := NewSecurityContext(key, DefaultCoordinatorExt, level)
	if err != nil {
		return err
	}
	s.Sensor.Security = sensorCtx
	s.Coordinator.Security = coordCtx
	return nil
}

// Exchange transmits an attacker waveform on a channel, lets every victim
// tuned there react, and returns the attacker's capture of the first
// reply. A channel with no responding victim returns a noise-only
// capture, like a real listen window timing out.
func (s *Simulation) Exchange(sig dsp.IQ, channel int) (dsp.IQ, error) {
	if len(sig) == 0 {
		return nil, fmt.Errorf("zigbee: empty attacker transmission")
	}
	freq, err := ieee802154.ChannelFrequencyMHz(channel)
	if err != nil {
		return nil, err
	}

	var reply *ieee802154.MACFrame
	deliverTo := func(nodeChannel int, handle func(*ieee802154.MACFrame) (*ieee802154.MACFrame, error)) error {
		if nodeChannel != channel {
			return nil
		}
		capture, err := s.Medium.Deliver(sig, freq, freq, s.AttackerLink)
		if err != nil {
			return err
		}
		rx := s.receiveFrame(capture)
		if rx == nil {
			return nil
		}
		resp, err := handle(rx)
		if err != nil {
			return err
		}
		if resp != nil && reply == nil {
			reply = resp
		}
		return nil
	}

	if err := deliverTo(s.Coordinator.Channel, s.Coordinator.Handle); err != nil {
		return nil, err
	}
	if err := deliverTo(s.Sensor.Channel, s.Sensor.Handle); err != nil {
		return nil, err
	}

	if reply == nil {
		return s.idle(len(sig))
	}
	replySig, err := s.transmitFrame(reply)
	if err != nil {
		return nil, err
	}
	return s.Medium.Deliver(replySig, freq, freq, s.AttackerLink)
}
