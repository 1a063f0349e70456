package sim

import (
	"fmt"
	"time"

	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/radio"
)

// MAC timing not covered by the ieee802154 constants.
const (
	// assocRespDelay stands in for the indirect-transmission poll of
	// the standard's association sequence: the coordinator answers a
	// request with a direct response after this delay.
	assocRespDelay = 2 * time.Millisecond
	// assocRespWait approximates macResponseWaitTime: how long a joiner
	// waits for the association response before rescanning.
	assocRespWait = 500 * time.Millisecond
	// scanDuration is how long an active scan collects beacons. 140ms
	// approximates the standard's ScanDuration=3 active scan and rides
	// out CSMA queueing on a loaded parent.
	scanDuration = 140 * time.Millisecond
	// joinSpread is the window over which unjoined nodes begin their
	// first scan, bounding the association storm.
	joinSpread = 2 * time.Second
	// scanRetryBase is the first rescan backoff; it doubles per failed
	// scan up to scanRetryCap.
	scanRetryBase = 100 * time.Millisecond
	scanRetryCap  = 5 * time.Second
)

// ---------------------------------------------------------------------
// Periodic behaviours

// beaconLoop emits one beacon and reschedules itself — the 2-second
// cadence of the acceptance scenario. Routers start their loop when
// they join.
func (nw *Network) beaconLoop(n *node) {
	if n.state == stateJoined {
		n.seq++
		out := nw.newOutgoing(kindBeacon, targetBeaconAudience, 0, false)
		out.frame.SetBeacon(n.seq, n.pan, n.short)
		nw.enqueueTx(n, out)
	}
	nw.after(nw.cfg.BeaconInterval, action{op: opBeacon, node: n})
}

// dataLoop emits one sensor reading towards the node's parent and
// reschedules itself.
func (nw *Network) dataLoop(n *node) {
	if n.state == stateJoined {
		n.reading++
		n.seq++
		out := nw.newOutgoing(kindData, targetNode, n.parentID, true)
		out.frame.SetDataFrame(n.seq, n.pan, n.parentShort, n.short, AppendReading(out.frame.Payload, n.reading, 0), true)
		nw.enqueueTx(n, out)
	}
	nw.after(nw.cfg.DataInterval, action{op: opData, node: n})
}

// AppendReading appends a mesh sensor reading's payload to dst: a tag
// octet, the big-endian value and a hop count routers increment while
// forwarding. It is the mesh's own 4-byte format, not the paper
// network's 3-byte zigbee.SensorPayload.
func AppendReading(dst []byte, reading uint16, hops uint8) []byte {
	return append(dst, 0x77, byte(reading>>8), byte(reading), hops)
}

// ---------------------------------------------------------------------
// Join state machine

// startScan begins an active scan: broadcast a beacon request, collect
// beacons until the scan window closes.
func (nw *Network) startScan(n *node) {
	if n.state == stateJoined {
		return
	}
	n.state = stateScanning
	n.joinGen++
	n.heard = n.heard[:0]
	n.seq++
	out := nw.newOutgoing(kindBeaconRequest, targetParent, 0, false)
	out.frame.SetBeaconRequest(n.seq)
	nw.enqueueTx(n, out)
	nw.after(scanDuration, action{op: opScanEnd, node: n, gen: n.joinGen})
}

// scanEnd closes the scan window: pick a parent from the collected
// beacons (the intended topology parent wins; ties break on the lowest
// node index) and associate, or back off and rescan.
func (nw *Network) scanEnd(n *node, gen uint64) {
	if n.state != stateScanning || n.joinGen != gen {
		return
	}
	if len(n.heard) == 0 {
		nw.rescan(n)
		return
	}
	best := n.heard[0]
	for _, b := range n.heard[1:] {
		if b.src == n.spec.Parent {
			best = b
			break
		}
		if best.src != n.spec.Parent && b.src < best.src {
			best = b
		}
	}
	n.parentID = best.src
	n.parentShort = best.short
	n.pan = best.pan
	n.state = stateWaitAssoc
	n.seq++
	capability := byte(0x88) // RX on when idle, allocate address
	if n.spec.Role == RoleRouter {
		capability = 0x8e // + FFD, mains powered
	}
	out := nw.newOutgoing(kindAssocRequest, targetNode, n.parentID, true)
	out.frame.SetAssociationRequest(n.seq, n.pan, n.parentShort, capability)
	nw.enqueueTx(n, out)
}

// rescan backs off exponentially and starts another scan.
func (nw *Network) rescan(n *node) {
	if n.state == stateJoined {
		return
	}
	n.state = stateIdle
	n.joinGen++
	backoff := scanRetryBase << n.scanRetries
	if backoff > scanRetryCap {
		backoff = scanRetryCap
	}
	if n.scanRetries < 16 {
		n.scanRetries++
	}
	nw.after(backoff+nw.jitter(n, scanRetryBase), action{op: opScan, node: n})
}

// completeJoin finalises an association on the joiner's side and
// counts it on the joiner's tally: the join, the first-join instant and
// a change of parent since the last join.
func (nw *Network) completeJoin(n *node, assigned uint16) {
	n.short = assigned
	n.state = stateJoined
	n.joinGen++
	n.scanRetries = 0
	now := nw.sched.Now()
	c := &n.tally
	c.joins++
	if c.joinedAt < 0 {
		c.joinedAt = now
	}
	if c.lastParent >= 0 && c.lastParent != n.parentID {
		c.parentChanges++
	}
	c.lastParent = n.parentID
	if t := nw.tel; t != nil && t.hJoin != nil {
		t.hJoin.Observe(obs.DurationSeconds(now))
	}
	nw.after(nw.jitter(n, nw.cfg.DataInterval), action{op: opData, node: n})
	if n.spec.Role == RoleRouter {
		n.permitJoin = true
		nw.after(nw.jitter(n, nw.cfg.BeaconInterval), action{op: opBeacon, node: n})
	}
}

// allocShort hands out the next free short address of the root
// coordinator's PAN — the simulator's stand-in for the distributed
// Cskip scheme, centralised for uniqueness.
func (nw *Network) allocShort(root int) uint16 {
	next := nw.allocNext[root]
	if next == 0 {
		next = 1
	}
	for next == 0x0000 || next >= ieee802154.NoShortAddress {
		next++ // wrapped: skip reserved values (exhaustion reuses low space)
	}
	nw.allocNext[root] = next + 1
	return next
}

// ---------------------------------------------------------------------
// CSMA-CA transmit path

// enqueueTx encodes a frame, queues it on the node's single radio and
// starts the CSMA-CA transaction when the radio is idle.
func (nw *Network) enqueueTx(n *node, out *outgoing) {
	if err := out.encode(); err != nil {
		// Frames are built by this package; an encode failure is a bug,
		// not a runtime condition. Drop loudly via the failure counter.
		n.tally.ccaFailures++
		nw.freeOutgoing(out)
		return
	}
	n.queue = append(n.queue, out)
	nw.processQueue(n)
}

// processQueue starts the next queued transmission when the radio is
// idle.
func (nw *Network) processQueue(n *node) {
	if n.txBusy || len(n.queue) == 0 {
		return
	}
	out := n.queue[0]
	copy(n.queue, n.queue[1:])
	n.queue[len(n.queue)-1] = nil
	n.queue = n.queue[:len(n.queue)-1]
	n.txBusy = true
	out.be = ieee802154.MinBE
	out.ncb = 0
	nw.csmaBackoff(n, out)
}

// csmaBackoff draws a backoff and schedules the clear-channel
// assessment.
func (nw *Network) csmaBackoff(n *node, out *outgoing) {
	slots := n.rng.Intn(1 << out.be)
	n.tally.backoffs++
	nw.after(time.Duration(slots)*ieee802154.UnitBackoffPeriod, action{op: opCCA, node: n, out: out})
}

// cca performs the clear-channel assessment: busy carriers re-enter the
// backoff loop, a clear carrier transmits after the turnaround time. The
// node's own radio counts as a carrier — a single half-duplex transceiver
// cannot pass CCA while committed to an acknowledgement it has yet to
// finish transmitting.
func (nw *Network) cca(n *node, out *outgoing) {
	now := nw.sched.Now()
	selfBusy := now < n.radioBusyUntil
	if t := nw.tel; t != nil && !selfBusy {
		// The radio spent the trailing aCCATime measuring channel power.
		// A self-busy radio is mid-transmission and never measured.
		t.radioCharge(n.id, now, ieee802154.CCADuration, RadioCCA)
	}
	busy := selfBusy
	for _, cell := range nw.cellsOf(n) {
		if busy {
			break
		}
		if cell != nil && cell.busy(now) {
			busy = true
		}
	}
	if busy {
		out.ncb++
		if out.ncb > ieee802154.MaxCSMABackoffs {
			n.tally.ccaFailures++
			nw.txFailed(n, out)
			nw.freeOutgoing(out)
			n.txBusy = false
			nw.processQueue(n)
			return
		}
		if out.be < ieee802154.MaxBE {
			out.be++
		}
		nw.csmaBackoff(n, out)
		return
	}
	if t := nw.tel; t != nil {
		t.radioTransition(n.id, now, RadioTurnaround)
	}
	nw.after(ieee802154.TurnaroundTime, action{op: opTxStart, node: n, out: out})
}

// txStart puts the frame on the air. acks bypass CSMA entirely
// (immediate=true): the standard transmits them a turnaround after the
// frame they acknowledge.
func (nw *Network) txStart(n *node, out *outgoing, immediate bool) {
	nw.frameSeq++
	now := nw.sched.Now()
	tx := nw.newTransmission()
	*tx = transmission{
		src:       n.id,
		channel:   n.spec.Channel,
		kind:      out.kind,
		frame:     &out.frame,
		psdu:      out.psdu,
		mode:      out.mode,
		to:        out.to,
		seq:       nw.frameSeq,
		start:     now,
		end:       now + ieee802154.FrameDuration(len(out.psdu)),
		needAck:   out.needAck,
		destOwner: nw.destCellOwner(n, out),
	}
	for _, owner := range nw.cellOwners(n) {
		if owner >= 0 {
			nw.cell(owner).add(owner, tx)
		}
	}
	if tx.end > n.radioBusyUntil {
		n.radioBusyUntil = tx.end
	}
	nw.frames[tx.kind]++
	if t := nw.tel; t != nil {
		t.radioTransition(n.id, now, RadioTX)
		n.tally.tx++
	}
	end := action{op: opTxEnd, node: n, out: out, tx: tx}
	if immediate {
		end.op = opAckEnd
	}
	nw.sched.post(tx.end, end)
}

// txEnd takes the frame off the air, reports it to the channel's taps
// and delivers it to its recipients. The transmission record is
// recycled once nothing refers to it any more, and the outgoing record
// once its transaction ends: at once for acks and unacknowledged
// frames, in handleAck or onAckTimeout for the rest.
func (nw *Network) txEnd(n *node, out *outgoing, tx *transmission, immediate bool) {
	offAir := true
	for _, cell := range nw.cellsOf(n) {
		if cell != nil && !cell.remove(tx) {
			offAir = false
		}
	}
	now := nw.sched.Now()
	if t := nw.tel; t != nil {
		t.radioTransition(n.id, now, RadioIdle)
		if t.trace != nil {
			t.trace.frameSlice(tx.src, tx.kind.String(), tx.start, tx.end-tx.start, tx.seq, len(tx.psdu))
		}
	}
	if tx.collided {
		n.tally.collisions++
		if t := nw.tel; t != nil {
			for _, rxID := range nw.recipients(tx) {
				t.link(tx.src, rxID).colls++
			}
			if t.trace != nil {
				t.trace.instant(tx.src, "collision", now, tx.seq)
			}
		}
	}
	nw.publishCapture(tx)

	if !tx.collided {
		for _, rxID := range nw.recipients(tx) {
			if nw.receive(rxID, tx, now) {
				nw.handleFrame(nw.nodes[rxID], tx)
			}
		}
	}

	needAck := tx.needAck
	if offAir {
		// A sender re-parented mid-frame leaves the record behind in
		// its old cell; only a record no cell holds is reused.
		nw.freeTransmission(tx)
	}
	if immediate {
		// Acks do not hold the radio's CSMA transaction slot.
		nw.freeOutgoing(out)
		return
	}
	if needAck {
		n.awaiting = out
		nw.after(ieee802154.AckWaitDuration+ieee802154.FrameDuration(5), action{op: opAckTimeout, node: n, gen: n.ackGen})
		return
	}
	nw.freeOutgoing(out)
	n.txBusy = false
	nw.processQueue(n)
}

// recipients resolves a transmission's delivery set in deterministic
// order. Interest-filtered propagation: the simulator delivers a frame
// only to nodes whose MAC would act on it (the addressed node, the
// scan neighborhood, beacon audiences), while the per-cell airs keep
// contention physical. Taps still see every frame. The result
// lives in a scratch buffer the next call overwrites; no receive path
// resolves recipients, so a caller may deliver while ranging over it.
func (nw *Network) recipients(tx *transmission) []int {
	rcpt := nw.rcpt[:0]
	switch tx.mode {
	case targetNode:
		// Addressed outside the topology — an acknowledgement or
		// response to an intruder — spends airtime and energy, but no
		// node receives it.
		if tx.to >= 0 && tx.to < len(nw.nodes) {
			rcpt = append(rcpt, tx.to)
		}
	case targetParent:
		if parent := nw.nodes[tx.src].spec.Parent; parent >= 0 {
			if p := nw.nodes[parent]; p.state == stateJoined && p.permitJoin {
				rcpt = append(rcpt, parent)
			}
		}
	case targetBeaconAudience:
		rcpt = append(rcpt, nw.topoKids[tx.src]...)
		for _, c := range nw.coordsOn[tx.channel] {
			if c != tx.src {
				rcpt = append(rcpt, c)
			}
		}
	}
	nw.rcpt = rcpt
	return rcpt
}

// ---------------------------------------------------------------------
// Receive paths

// receive is one frame's arrival at node rxID, for node and intruder
// frames alike: a receiver whose radio was transmitting during the frame
// misses it, otherwise the calibrated channel draws whether it survives.
// It reports whether the frame was delivered; the caller hands a
// delivered frame to the MAC.
func (nw *Network) receive(rxID int, tx *transmission, now time.Duration) bool {
	t := nw.tel
	r := nw.nodes[rxID]
	if r.radioBusyUntil > tx.start {
		// Half-duplex: the receiver never demodulated the frame.
		r.tally.deaf++
		if t != nil {
			t.link(tx.src, rxID).deaf++
			if t.trace != nil {
				t.trace.instant(rxID, "deaf", now, tx.seq)
			}
		}
		return false
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
		// The channel was validated at New and the spec is well-formed
		// by construction; a Deliver error is a bug.
		panic(err)
	}
	if !outcome.Delivered() {
		r.tally.erasures++
		if t != nil {
			t.link(tx.src, rxID).erasures++
			if t.trace != nil {
				t.trace.instant(rxID, "erasure", now, tx.seq)
			}
		}
		return false
	}
	if t != nil {
		r.tally.rx++
		t.link(tx.src, rxID).delivered++
		// The receiver's radio demodulated the whole frame: charge its
		// airtime to RX before the handler commits the radio to anything
		// else (an acknowledgement turnaround).
		t.radioCharge(rxID, now, tx.end-tx.start, RadioRX)
	}
	return true
}

// handleFrame dispatches one delivered frame on the receiving node.
func (nw *Network) handleFrame(r *node, tx *transmission) {
	switch tx.kind {
	case kindAck:
		nw.handleAck(r, tx)
	case kindBeacon:
		nw.handleBeacon(r, tx)
	case kindBeaconRequest:
		nw.handleBeaconRequest(r, tx)
	case kindAssocRequest:
		nw.sendAck(r, tx)
		nw.handleAssocRequest(r, tx)
	case kindAssocResponse:
		nw.sendAck(r, tx)
		nw.handleAssocResponse(r, tx)
	case kindData:
		nw.sendAck(r, tx)
		nw.handleData(r, tx)
	}
}

// sendAck transmits the immediate acknowledgement for a received frame:
// one turnaround after the frame, no CSMA, no queueing. The radio is
// committed from this instant — marking it busy through the ack's end
// keeps the node's own CSMA path from passing CCA into its ack.
func (nw *Network) sendAck(r *node, tx *transmission) {
	if !tx.needAck {
		return
	}
	ack := nw.newOutgoing(kindAck, targetNode, tx.src, false)
	ack.frame.SetAck(tx.frame.Seq)
	if err := ack.encode(); err != nil {
		nw.freeOutgoing(ack)
		return
	}
	ackEnd := nw.sched.Now() + ieee802154.TurnaroundTime + ieee802154.FrameDuration(len(ack.psdu))
	if ackEnd > r.radioBusyUntil {
		r.radioBusyUntil = ackEnd
	}
	if t := nw.tel; t != nil {
		t.radioTransition(r.id, nw.sched.Now(), RadioTurnaround)
	}
	nw.after(ieee802154.TurnaroundTime, action{op: opAckStart, node: r, out: ack})
}

// handleAck completes the sender's pending acknowledged transmission.
func (nw *Network) handleAck(r *node, tx *transmission) {
	out := r.awaiting
	if out == nil || out.frame.Seq != tx.frame.Seq {
		return
	}
	r.awaiting = nil
	r.ackGen++
	nw.txAcked(r, out)
	nw.freeOutgoing(out)
	r.txBusy = false
	nw.processQueue(r)
}

// onAckTimeout retries or abandons an unacknowledged transmission.
func (nw *Network) onAckTimeout(n *node, gen uint64) {
	if n.ackGen != gen || n.awaiting == nil {
		return
	}
	out := n.awaiting
	n.awaiting = nil
	n.ackGen++
	out.retries++
	if out.retries <= ieee802154.MaxFrameRetries {
		n.tally.retries++
		out.be = ieee802154.MinBE
		out.ncb = 0
		nw.csmaBackoff(n, out)
		return
	}
	n.tally.ackFailures++
	nw.txFailed(n, out)
	nw.freeOutgoing(out)
	n.txBusy = false
	nw.processQueue(n)
}

// txAcked runs the post-acknowledgement hooks of a transmission.
func (nw *Network) txAcked(n *node, out *outgoing) {
	if out.kind == kindAssocRequest && n.state == stateWaitAssoc {
		nw.after(assocRespWait, action{op: opAssocWait, node: n, gen: n.joinGen})
	}
}

// assocWaitEnd rescans when the association response a joiner waited
// for never came.
func (nw *Network) assocWaitEnd(n *node, gen uint64) {
	if n.joinGen == gen && n.state != stateJoined {
		nw.rescan(n)
	}
}

// txFailed runs the failure fallbacks of an abandoned transmission.
func (nw *Network) txFailed(n *node, out *outgoing) {
	switch out.kind {
	case kindAssocRequest:
		if n.state == stateWaitAssoc {
			nw.rescan(n)
		}
	case kindBeaconRequest:
		// The scan window will close empty and back off by itself.
	}
}

// handleBeaconRequest answers an active scan when this node can admit
// the scanner.
func (nw *Network) handleBeaconRequest(r *node, tx *transmission) {
	if r.state != stateJoined || !r.permitJoin {
		return
	}
	r.seq++
	out := nw.newOutgoing(kindBeacon, targetBeaconAudience, 0, false)
	out.frame.SetBeacon(r.seq, r.pan, r.short)
	nw.enqueueTx(r, out)
}

// handleBeacon is the triple-duty beacon sink: scanners collect it,
// joined children track their parent's PAN (adopting a post-conflict
// migration), and coordinators detect PAN-ID conflicts.
func (nw *Network) handleBeacon(r *node, tx *transmission) {
	if tx.src < 0 {
		return // forged beacons carry no node to resolve against
	}
	src := nw.nodes[tx.src]
	switch {
	case r.state == stateScanning:
		for _, b := range r.heard {
			if b.src == tx.src {
				return
			}
		}
		r.heard = append(r.heard, beaconHeard{src: tx.src, short: src.short, pan: src.pan})
	case r.state == stateJoined && tx.src == r.parentID && src.pan != r.pan:
		// Parent migrated PANs after a conflict: follow it. Routers
		// propagate the move to their own children via their next
		// beacon.
		r.pan = src.pan
	case r.spec.Role == RoleCoordinator && r.state == stateJoined:
		if src.pan == r.pan && nw.rootOf[tx.src] != r.id {
			nw.panConflict(r)
		}
	}
}

// panConflict resolves a detected PAN-ID collision: the coordinator
// with the higher extended address rebinds to a fresh PAN drawn from
// its private stream (both coordinators hear each other's beacons, so
// exactly one of them moves). Children adopt the new PAN from
// subsequent beacons.
func (nw *Network) panConflict(c *node) {
	for _, other := range nw.coordsOn[c.spec.Channel] {
		o := nw.nodes[other]
		if other != c.id && o.pan == c.pan && o.ext > c.ext {
			return // the other coordinator owns the rebind
		}
	}
	old := c.pan
	next := c.pan
	for next == old || next == ieee802154.BroadcastPAN || nw.panInUse(c.spec.Channel, next, c.id) {
		next = uint16(c.rng.Intn(0xfffe) + 1)
	}
	c.pan = next
	nw.stats.PANConflicts++
	if nw.flight != nil {
		nw.flight.Record(obs.FlightEvent{
			Kind: "state", Component: "sim", Frame: -1,
			Detail: fmt.Sprintf("PAN conflict: coordinator %d rebind %#04x -> %#04x", c.id, old, next),
		})
	}
}

// panInUse reports whether another coordinator on the channel already
// claims the PAN.
func (nw *Network) panInUse(channel int, pan uint16, except int) bool {
	for _, id := range nw.coordsOn[channel] {
		if id != except && nw.nodes[id].pan == pan {
			return true
		}
	}
	return false
}

// handleAssocRequest admits a joiner: assign a short address and answer
// with an association response after the response delay.
func (nw *Network) handleAssocRequest(r *node, tx *transmission) {
	if r.state != stateJoined || !r.permitJoin {
		return
	}
	joiner := tx.src
	assigned := nw.allocShort(nw.rootOf[r.id])
	r.seq++
	out := nw.newOutgoing(kindAssocResponse, targetNode, joiner, true)
	out.frame.SetAssociationResponse(r.seq, r.pan, ieee802154.NoShortAddress, assigned, ieee802154.AssocStatusSuccess)
	nw.after(assocRespDelay, action{op: opAssocResp, node: r, out: out})
}

// handleAssocResponse completes the join on the device side. A forged
// response carries no node to take as the parent, so the device ignores
// it.
func (nw *Network) handleAssocResponse(r *node, tx *transmission) {
	if r.state == stateJoined || tx.src < 0 {
		return
	}
	assigned, status, err := ieee802154.ParseAssociationResponse(tx.frame.Payload)
	if err != nil || status != ieee802154.AssocStatusSuccess {
		return
	}
	r.parentID = tx.src
	r.parentShort = nw.nodes[tx.src].short
	r.pan = nw.nodes[tx.src].pan
	nw.completeJoin(r, assigned)
}

// handleData accepts a sensor reading: coordinators record it, routers
// forward it towards their own parent with the hop count incremented.
func (nw *Network) handleData(r *node, tx *transmission) {
	payload := tx.frame.Payload
	if ch, frameID, ok := remoteChannelChange(payload); ok {
		nw.applyChannelChange(r, frameID, ch)
		return
	}
	if len(payload) != 4 || payload[0] != 0x77 {
		return
	}
	if r.spec.Role == RoleCoordinator {
		r.tally.readings++
		return
	}
	if r.state != stateJoined {
		return
	}
	r.tally.forwarded++
	r.seq++
	out := nw.newOutgoing(kindData, targetNode, r.parentID, true)
	out.frame.SetDataFrame(r.seq, r.pan, r.parentShort, r.short,
		append(out.frame.Payload, payload[0], payload[1], payload[2], payload[3]+1), true)
	nw.enqueueTx(r, out)
}
