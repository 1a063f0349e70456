package sim

import (
	"fmt"
	"math/rand"

	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/radio"
)

// IntruderSrc is the capture Src of attacker transmissions: an
// out-of-topology index no node ever occupies, so taps and observers can
// separate injected traffic from the mesh's own without deep-parsing
// every PSDU.
const IntruderSrc = -1

// Intruder is an out-of-topology attacker radio bolted onto a running
// mesh: it forges MAC frames and puts them on the victim's air without
// being a node — no CSMA, no queue, no energy ledger of its own. Its
// transmissions occupy the destination's collision domain (they corrupt
// concurrent victim frames and defer victim CCA like any carrier), pass
// through the same calibrated delivery channel, and surface in the
// capture stream with Src = IntruderSrc. Everything the victims do in
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
	rng     *rand.Rand
}

// NewIntruder attaches an attacker radio to the network on the given
// 802.15.4 channel. Create before Run, like taps and observers.
func (nw *Network) NewIntruder(channel int) (*Intruder, error) {
	if _, err := ieee802154.ChannelFrequencyMHz(channel); err != nil {
		return nil, err
	}
	return &Intruder{nw: nw, channel: channel, rng: nodeRand(nw.cfg.Seed, IntruderSrc)}, nil
}

// Rand exposes the intruder's private deterministic stream, for attack
// schedules that want jitter without touching any victim stream.
func (in *Intruder) Rand() *rand.Rand { return in.rng }

// Transmit puts a forged frame on the air now, addressed to the node
// with simulator index to. The transmission starts immediately — a real
// attacker gains nothing from listen-before-talk — and lasts the
// frame's on-air duration. It collides with any concurrent transmission
// whose receiver shares the destination cell, and is delivered through
// the network's fidelity tier when the target is tuned to the
// intruder's channel, idle, and the erasure draw passes. Set needAck to
// make the victim spend a transmission acknowledging the forgery.
//
// Call only from the goroutine driving the event loop (between Run
// calls or from scheduled callbacks).
func (in *Intruder) Transmit(to int, frame *ieee802154.MACFrame, needAck bool) error {
	nw := in.nw
	if to < 0 || to >= len(nw.nodes) {
		return fmt.Errorf("sim: intruder target %d out of range [0,%d)", to, len(nw.nodes))
	}
	psdu, err := frame.Encode()
	if err != nil {
		return err
	}
	rx := nw.nodes[to]
	destOwner := to
	if rx.spec.Role == RoleEndDevice {
		destOwner = rx.parentID
	}
	now := nw.sched.Now()
	nw.frameSeq++
	tx := &transmission{
		src:       IntruderSrc,
		channel:   in.channel,
		kind:      intruderKind(frame),
		frame:     frame,
		psdu:      psdu,
		mode:      targetNode,
		to:        to,
		seq:       nw.frameSeq,
		start:     now,
		end:       now + ieee802154.FrameDuration(len(psdu)),
		needAck:   needAck,
		destOwner: destOwner,
	}
	nw.cell(destOwner).add(destOwner, tx)
	nw.noteFrame(tx)
	nw.stats.Injected++
	nw.cInjected.Inc()
	nw.sched.post(tx.end, action{op: opIntruderTxEnd, tx: tx})
	return nil
}

// intruderTxEnd is the intruder's counterpart of the node transmit-end
// path: take the frame off the air, publish the capture, and deliver it
// when it survived collision, deafness and the erasure draw. The
// attacker has no radio-state ledger, so only receiver-side telemetry
// is charged.
func (nw *Network) intruderTxEnd(tx *transmission) {
	nw.cell(tx.destOwner).remove(tx)
	now := nw.sched.Now()
	if tx.collided {
		nw.stats.Collisions++
		nw.cCollisions.Inc()
	}
	nw.publishCapture(tx)
	if tx.collided {
		return
	}
	rxID := tx.to
	rx := nw.nodes[rxID]
	if rx.spec.Channel != tx.channel {
		return // target tuned elsewhere; nothing hears the forgery
	}
	if rx.radioBusyUntil > tx.start {
		nw.stats.DeafMisses++
		nw.cDeaf.Inc()
		if t := nw.tel; t != nil {
			t.nodes[rxID].deaf++
			t.link(IntruderSrc, rxID).deaf++
		}
		return
	}
	f := channelMHz(tx.channel)
	outcome, err := nw.ch.Deliver(radio.FrameSpec{
		PSDULen:   len(tx.psdu),
		TxFreqMHz: f,
		RxFreqMHz: f,
		Link:      radio.Link{SNRdB: nw.cfg.SNRdB},
		Seed:      deliverySeed(nw.cfg.Seed, tx.seq, rxID),
	})
	if err != nil {
		panic(err) // the channel was validated at New; a Deliver error is a bug
	}
	if !outcome.Delivered() {
		nw.stats.Erasures++
		nw.cErasures.Inc()
		if t := nw.tel; t != nil {
			t.nodes[rxID].erasures++
			t.link(IntruderSrc, rxID).erasures++
		}
		return
	}
	if t := nw.tel; t != nil {
		t.nodes[rxID].rx++
		t.link(IntruderSrc, rxID).delivered++
		t.radioCharge(rxID, now, tx.end-tx.start, RadioRX)
	}
	nw.stats.InjectedDelivered++
	nw.cInjectedDelivered.Inc()
	nw.handleFrame(rx, tx)
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

// The XBee remote AT command wire format (internal/zigbee's ATCommand;
// that package builds on this one, so the constants are mirrored here).
const (
	remoteATRequest  = 0x17
	remoteATResponse = 0x97
)

// remoteChannelChange decodes the remote AT "CH" payload the scenario B
// attack forges: frame type, frame ID, the two command letters and the
// one-octet new channel.
func remoteChannelChange(payload []byte) (newChannel int, frameID byte, ok bool) {
	if len(payload) != 5 || payload[0] != remoteATRequest {
		return 0, 0, false
	}
	if payload[2] != 'C' || payload[3] != 'H' {
		return 0, 0, false
	}
	return int(payload[4]), payload[1], true
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
	resp := []byte{remoteATResponse, frameID, 'C', 'H', 0x00}
	frame := ieee802154.NewDataFrame(r.seq, r.pan, r.parentShort, r.short, resp, false)
	nw.enqueueTx(r, &outgoing{kind: kindData, frame: frame, mode: targetNode, to: r.parentID})
	r.state = stateIdle
	nw.stats.Joined--
	nw.stats.ChannelMigrations++
	nw.cMigrations.Inc()
	nw.noteJoinedGauge()
	nw.flight.Record(obs.FlightEvent{
		Kind: "state", Component: "sim", Frame: -1,
		Detail: fmt.Sprintf("channel migration: node %d retuned %d -> %d by remote AT", r.id, r.spec.Channel, newChannel),
	})
	if t := nw.tel; t != nil && t.trace != nil {
		t.trace.instant(r.id, "channel_migration", nw.sched.Now(), 0)
	}
}
