package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"time"
)

// FrameCapture is one transmission as an ideal channel probe sees it:
// every frame put on the air on the channel, flagged when it overlapped
// another transmission. This is the simulator's observable surface — the
// determinism contract promises a byte-identical capture sequence for a
// given (topology, config) at any event-batch size.
type FrameCapture struct {
	// At is the virtual time the transmission started.
	At time.Duration
	// Channel is the 802.15.4 channel the frame went out on.
	Channel int
	// Seq is the global capture sequence number, dense and strictly
	// increasing across all channels.
	Seq uint64
	// Src is the simulator index of the transmitting node.
	Src int
	// Kind labels the MAC frame type ("beacon", "data", "ack", ...).
	Kind string
	// Collided reports that the transmission overlapped another in one
	// of its collision domains; collided frames are never delivered.
	Collided bool
	// PSDU is the encoded MAC frame. It is valid only for the duration
	// of the tap call: a tap that keeps it must copy it, so the network
	// is free to reuse the buffer.
	PSDU []byte
}

// Tap registers a synchronous capture callback for one channel. Taps run
// inline on the event loop — keep them fast and do not call back into
// the network. Register before Run; taps are not synchronised.
func (nw *Network) Tap(channel int, fn func(FrameCapture)) {
	nw.taps[channel] = append(nw.taps[channel], fn)
}

// publishCapture fans a finished transmission out to the channel's
// taps.
func (nw *Network) publishCapture(tx *transmission) {
	taps := nw.taps[tx.channel]
	if len(taps) == 0 {
		return
	}
	fc := FrameCapture{
		At:       tx.start,
		Channel:  tx.channel,
		Seq:      tx.seq,
		Src:      tx.src,
		Kind:     tx.out.kind.String(),
		Collided: tx.collided,
		PSDU:     tx.out.psdu,
	}
	for _, fn := range taps {
		fn(fc)
	}
}

// DigestRecorder folds a capture stream into a SHA-256 digest — the
// oracle behind the determinism tests and `wazabeesim -digest`. Two runs
// are byte-identical iff their digests match.
type DigestRecorder struct {
	hasher interface {
		Write(p []byte) (int, error)
		Sum(b []byte) []byte
	}
	frames uint64
	buf    []byte
}

// NewDigestRecorder returns an empty recorder.
func NewDigestRecorder() *DigestRecorder {
	return &DigestRecorder{hasher: sha256.New()}
}

// Record folds one capture into the digest using a canonical
// little-endian encoding of every observable field.
func (d *DigestRecorder) Record(fc FrameCapture) {
	d.buf = d.buf[:0]
	d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(fc.At))
	d.buf = binary.LittleEndian.AppendUint32(d.buf, uint32(fc.Channel))
	d.buf = binary.LittleEndian.AppendUint64(d.buf, fc.Seq)
	d.buf = binary.LittleEndian.AppendUint32(d.buf, uint32(fc.Src))
	var collided byte
	if fc.Collided {
		collided = 1
	}
	d.buf = append(d.buf, collided)
	d.buf = binary.LittleEndian.AppendUint32(d.buf, uint32(len(fc.PSDU)))
	d.buf = append(d.buf, fc.PSDU...)
	d.hasher.Write(d.buf)
	d.frames++
}

// Frames returns how many captures were folded in.
func (d *DigestRecorder) Frames() uint64 { return d.frames }

// Sum returns the hex digest of everything recorded so far.
func (d *DigestRecorder) Sum() string {
	return hex.EncodeToString(d.hasher.Sum(nil))
}
