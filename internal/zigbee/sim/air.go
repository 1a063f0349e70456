package sim

import (
	"time"

	"wazabee/internal/ieee802154"
)

// frameKind classifies a transmission for metrics and capture records.
type frameKind uint8

const (
	kindBeacon frameKind = iota
	kindBeaconRequest
	kindAssocRequest
	kindAssocResponse
	kindData
	kindAck

	numFrameKinds = int(kindAck) + 1
)

// String implements fmt.Stringer, doubling as the metric label value.
func (k frameKind) String() string {
	switch k {
	case kindBeacon:
		return "beacon"
	case kindBeaconRequest:
		return "beacon_request"
	case kindAssocRequest:
		return "assoc_request"
	case kindAssocResponse:
		return "assoc_response"
	case kindData:
		return "data"
	case kindAck:
		return "ack"
	default:
		return "unknown"
	}
}

// targetMode selects how a transmission's recipients are resolved at
// delivery time.
type targetMode uint8

const (
	// targetNode delivers to one node by simulator index — the MAC
	// unicasts (data, acks, association traffic). The frame still
	// carries real short addresses; the index is the simulator's
	// stand-in for address resolution.
	targetNode targetMode = iota
	// targetParent delivers a broadcast beacon request to the sender's
	// RF neighborhood: its intended parent, when join-capable.
	targetParent
	// targetBeaconAudience delivers a beacon to the sender's topology
	// children (scanning ones collect it, joined ones track PAN
	// migrations) and to every co-channel coordinator (PAN-ID conflict
	// detection).
	targetBeaconAudience
)

// transmission is one frame in the air.
type transmission struct {
	src     int
	channel int
	kind    frameKind
	frame   *ieee802154.MACFrame
	psdu    []byte // encoded once; immutable after txStart
	mode    targetMode
	to      int // recipient node index for targetNode

	seq        uint64 // global capture sequence, assigned at txStart
	start, end time.Duration
	collided   bool
	needAck    bool

	// destOwner is the cell where the frame's receiver lives — the only
	// cell in which an overlap corrupts this frame. In every other cell
	// the transmission contributes carrier (CCA defers to it) and
	// interferes with frames received *there*, but traffic far from this
	// frame's receiver cannot corrupt it: the capture effect of a strong
	// nearby signal over distant interferers.
	destOwner int
}

// air is one spatial-reuse collision domain: the carrier-sense
// neighborhood of one join-capable node (its "cell"). A transmission
// occupies the cell of its sender's parent (where the uplink receiver
// listens) and — when the sender is itself join-capable — the sender's
// own cell, so its children sense the channel busy. Two PANs that share
// a channel are assumed outside each other's carrier-sense range but
// inside beacon-detection range, which is exactly the regime PAN-ID
// conflict resolution exists for.
type air struct {
	busyUntil time.Duration
	active    []*transmission
}

// busy reports whether the cell's carrier is sensed busy at t.
func (a *air) busy(t time.Duration) bool {
	return t < a.busyUntil
}

// add registers a transmission starting now in the cell owned by owner.
// An overlapping pair corrupts a frame only when the shared cell is that
// frame's destination cell — interference is judged at the receiver.
func (a *air) add(owner int, tx *transmission) {
	for _, other := range a.active {
		if owner == other.destOwner {
			other.collided = true
		}
		if owner == tx.destOwner {
			tx.collided = true
		}
	}
	a.active = append(a.active, tx)
	if tx.end > a.busyUntil {
		a.busyUntil = tx.end
	}
}

// remove deregisters a finished transmission, reporting whether the
// cell held it.
func (a *air) remove(tx *transmission) bool {
	for i, other := range a.active {
		if other == tx {
			last := len(a.active) - 1
			a.active[i] = a.active[last]
			a.active[last] = nil
			a.active = a.active[:last]
			return true
		}
	}
	return false
}
