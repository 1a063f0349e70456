package sim

import (
	"fmt"
	"math/rand"

	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/zigbee"
)

// IntruderSrc is the capture Src of attacker transmissions: an
// out-of-topology index no node ever occupies, so taps can
// separate injected traffic from the mesh's own without deep-parsing
// every PSDU.
const IntruderSrc = -1

// Intruder is an out-of-topology attacker radio bolted onto a running
// mesh: it forges MAC frames and puts them on the victim's air without
// being a node — no CSMA, no queue, no energy ledger of its own. Its
// transmissions on the target's channel occupy the destination's
// collision domain (they corrupt concurrent victim frames and defer
// victim CCA like any carrier) and pass through the same calibrated
// delivery channel; every transmission surfaces in the capture stream
// with Src = IntruderSrc. Everything the victims do in
// response — acknowledgements, association responses, AT responses,
// retries against injected interference — runs on the ordinary MAC path
// and is charged to the victims' energy accountant, which is exactly
// the asymmetry energy-depletion attacks exploit.
//
// Determinism: the intruder only acts from callbacks scheduled on the
// network's event loop, its delivery draws follow the deliverySeed
// discipline, and its private stream derives from nodeSeed(seed,
// IntruderSrc); same-seed runs with the same attack schedule stay
// bit-identical at any event-batch size.
type Intruder struct {
	nw      *Network
	channel int
	rng     *rand.Rand // built by the first Rand call
}

// NewIntruder attaches an attacker radio to the network on the given
// 802.15.4 channel. Create before Run, like taps.
func (nw *Network) NewIntruder(channel int) (*Intruder, error) {
	if _, err := ieee802154.ChannelFrequencyMHz(channel); err != nil {
		return nil, err
	}
	return &Intruder{nw: nw, channel: channel}, nil
}

// Rand exposes the intruder's private deterministic stream, for attack
// schedules that want jitter without touching any victim stream. The
// stream is built on the first call, so an attack that never draws from
// it never seeds its register.
func (in *Intruder) Rand() *rand.Rand {
	if in.rng == nil {
		in.rng = nodeRand(in.nw.cfg.Seed, IntruderSrc)
	}
	return in.rng
}

// Transmit puts a forged frame on the air now, addressed to the node
// with simulator index to. The transmission starts immediately — a real
// attacker gains nothing from listen-before-talk — and lasts the
// frame's on-air duration. When the target is tuned to the intruder's
// channel, the frame collides with any concurrent transmission whose
// receiver shares the destination cell, and it is delivered through the
// network's fidelity tier when the target is idle and the erasure draw
// passes; on any other channel it only reaches the capture stream. Set needAck to
// make the victim spend a transmission acknowledging the forgery.
//
// Transmit copies the frame, payload included, into a recycled
// outgoing record and encodes it there, so the caller may reuse or
// rebuild frame as soon as the call returns: an attack schedule builds
// every forgery into one MACFrame with its Set methods.
//
// Call only from the goroutine driving the event loop (between Run
// calls or from scheduled callbacks).
func (in *Intruder) Transmit(to int, frame *ieee802154.MACFrame, needAck bool) error {
	nw := in.nw
	if to < 0 || to >= len(nw.nodes) {
		return fmt.Errorf("sim: intruder target %d out of range [0,%d)", to, len(nw.nodes))
	}
	out := nw.newOutgoing(intruderKind(frame), targetNode, to, needAck)
	payload := append(out.frame.Payload, frame.Payload...)
	out.frame = *frame
	out.frame.Payload = payload
	if err := out.encode(); err != nil {
		nw.freeOutgoing(out)
		return err
	}
	rx := nw.nodes[to]
	destOwner := to
	if rx.spec.Role == RoleEndDevice {
		destOwner = rx.parentID
	}
	tx := nw.startTransmission(IntruderSrc, in.channel, out, destOwner)
	// A cell is one channel's neighbourhood: a forgery on another
	// channel neither corrupts nor defers the target's traffic.
	if rx.spec.Channel == in.channel {
		nw.cell(destOwner).add(destOwner, tx)
	}
	nw.stats.Injected++
	nw.sched.post(tx.end, action{op: opIntruderTxEnd, arg: uint64(tx.id)})
	return nil
}

// intruderTxEnd is the intruder's counterpart of the node transmit-end
// path: take the frame off the air, publish the capture, and hand a
// frame that survived collision to the target's receive path when the
// target is tuned to the intruder's channel. The attacker has no
// radio-state ledger, so only receiver-side telemetry is charged. The
// transmission and outgoing records go back to the network's free
// lists, each exactly once: the attacker waits for no acknowledgement,
// so the frame's transaction ends here.
func (nw *Network) intruderTxEnd(tx *transmission) {
	out, to := tx.out, tx.out.to
	onChannel := nw.nodes[to].spec.Channel == tx.channel
	if onChannel {
		nw.cell(tx.destOwner).remove(tx)
	}
	if tx.collided {
		nw.stats.Collisions++
	}
	nw.publishCapture(tx)
	// A target tuned elsewhere hears nothing of the forgery.
	if !tx.collided && onChannel && nw.receive(to, tx, nw.sched.Now()) {
		nw.stats.InjectedDelivered++
		nw.handleFrame(nw.nodes[to], tx)
	}
	nw.freeTransmission(tx)
	nw.freeOutgoing(out)
}

// intruderKind classifies a forged frame for metrics and capture
// records, mirroring the kinds the MAC path assigns.
func intruderKind(frame *ieee802154.MACFrame) frameKind {
	switch frame.Type {
	case ieee802154.FrameBeacon:
		return kindBeacon
	case ieee802154.FrameAck:
		return kindAck
	case ieee802154.FrameCommand:
		if len(frame.Payload) > 0 {
			switch ieee802154.CommandID(frame.Payload[0]) {
			case ieee802154.CmdAssociationRequest:
				return kindAssocRequest
			case ieee802154.CmdAssociationResponse:
				return kindAssocResponse
			case ieee802154.CmdBeaconRequest:
				return kindBeaconRequest
			}
		}
	}
	return kindData
}

// remoteChannelChange recognises the remote AT "CH" command the
// scenario B attack forges: a zigbee.ATCommand whose parameter is the
// one-octet new channel.
func remoteChannelChange(payload []byte) (newChannel int, frameID byte, ok bool) {
	cmd, err := zigbee.ParseATCommand(payload)
	if err != nil || cmd.Command != "CH" || len(cmd.Param) != 1 {
		return 0, 0, false
	}
	return int(cmd.Param[0]), cmd.FrameID, true
}

// applyChannelChange executes a remote AT channel-change on the
// receiving node — the scenario B channel-migration denial of service.
// The node obeys its (spoofed) coordinator: it answers with an AT
// response towards its parent, then retunes, which detaches it from the
// PAN — nothing on the old channel reaches it again, and it stops
// reporting. Coordinators ignore remote retunes of their own network.
func (nw *Network) applyChannelChange(r *node, frameID byte, newChannel int) {
	if r.spec.Role == RoleCoordinator || r.state != stateJoined {
		return
	}
	if newChannel < ieee802154.FirstChannel || newChannel > ieee802154.LastChannel || newChannel == r.spec.Channel {
		return
	}
	r.seq++
	// A two-letter command always encodes.
	resp, _ := (&zigbee.ATResponse{FrameID: frameID, Command: "CH"}).Encode()
	out := nw.newOutgoing(kindData, targetNode, r.parentID, false)
	out.frame.SetDataFrame(r.seq, r.pan, r.parentShort, r.short, append(out.frame.Payload, resp...), false)
	nw.enqueueTx(r, out)
	r.state = stateIdle
	nw.stats.ChannelMigrations++
	if nw.flight != nil {
		nw.flight.Record(obs.FlightEvent{
			Kind: "state", Component: "sim", Frame: -1,
			Detail: fmt.Sprintf("channel migration: node %d retuned %d -> %d by remote AT", r.id, r.spec.Channel, newChannel),
		})
	}
	if t := nw.tel; t != nil && t.trace != nil {
		t.trace.instant(r.id, "channel_migration", nw.sched.Now(), 0)
	}
}
