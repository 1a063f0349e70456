// Package capture is the persistence and distribution layer of the
// reproduction: what turns the WazaBee reception primitive from a
// print-and-drop demo into a serving-shaped pipeline. It provides
//
//   - Record, the timestamped frame record every producer publishes
//     (channel, RSSI/SNR, decoder kind, PSDU) with a compact
//     length-prefixed binary encoding for TCP streaming;
//   - a classic PCAP writer/reader (LINKTYPE_IEEE802_15_4_WITHFCS, 195)
//     and a ZEP v2 (Zigbee Encapsulation Protocol, UDP/17754)
//     encoder/decoder, so captures open directly in Wireshark;
//   - Hub, a concurrency-safe fan-out from one producer to N bounded
//     subscriber queues with an explicit drop-oldest backpressure
//     policy, accounted in the internal/obs registry;
//   - deterministic replay of recorded captures back through the
//     simulated radio medium into any receiver, so a saved capture
//     becomes a reproducible regression input.
//
// Everything is standard library only, matching the module's empty
// dependency set.
package capture

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"wazabee/internal/dsp"
)

// Record is one captured 802.15.4 frame with its radio metadata — the
// unit every capture sink (pcap file, ZEP datagram, TCP subscriber,
// replay engine) consumes.
type Record struct {
	// At is the capture timestamp.
	At time.Time
	// Channel is the 802.15.4 channel (11–26) the frame was heard on;
	// zero means unknown (e.g. a record recovered from a bare pcap,
	// whose link type carries no radio header).
	Channel int
	// RSSIdBm is the received signal strength indication.
	RSSIdBm float64
	// SNRdB is the link signal-to-noise ratio, when the producer knows
	// it (a simulation does; zero otherwise).
	SNRdB float64
	// LQI is the 802.15.4 link quality indication (0–255).
	LQI uint8
	// Seq numbers the record within its producer's stream, so downstream
	// consumers (ZEP datagrams, subscribers) stay sequence-linked to the
	// capture loop instead of renumbering.
	Seq uint32
	// CFOHz is the carrier frequency offset the demodulator estimated
	// and corrected, in hertz.
	CFOHz float64
	// SyncCorr is the normalized sync-correlation peak (nominal 1.0 for
	// a noiseless, perfectly timed match).
	SyncCorr float64
	// ChipErrors and ChipsCompared carry the despreader's Hamming
	// evidence: chip mismatches observed out of chips compared.
	ChipErrors    uint32
	ChipsCompared uint32
	// Decoder identifies the receive pipeline that produced the record:
	// "wazabee" for the diverted-BLE primitive, "oqpsk" for the
	// legitimate demodulator, "raw" for an undecoded capture.
	Decoder string
	// PSDU is the MAC frame including the trailing two-byte FCS. Empty
	// for a "raw" record (sync loss — the waveform was heard but never
	// decoded).
	PSDU []byte

	// IQ optionally carries the baseband waveform the record was
	// decoded from, for in-process consumers such as the IDS that work
	// below the frame level. It is never serialised by any encoder.
	IQ dsp.IQ

	// Origin is the monotonic emission stamp of the capture this record
	// came from (sim.LiveCapture.At), anchoring the per-stage
	// wazabee_latency_* histograms the hub and its subscriptions
	// observe. In-memory only — never serialised by any encoder — and
	// zero for records that were not produced live (file reads, replay),
	// which skips the origin-anchored latency stages.
	Origin time.Time
}

// Clone returns a record with its own copy of the PSDU (the IQ buffer,
// in-memory only, is shared).
func (r Record) Clone() Record {
	cp := r
	cp.PSDU = append([]byte(nil), r.PSDU...)
	return cp
}

// Binary record layout (all integers big-endian). Version 2 extends the
// version-1 header with the link diagnostics; the reader still accepts
// version-1 streams (the added fields decode as zero):
//
//	version     uint8  = 2
//	flags       uint8  = 0 (reserved)
//	at          int64  Unix nanoseconds
//	channel     uint8
//	lqi         uint8
//	rssi_dbm    uint64 IEEE-754 bits
//	snr_db      uint64 IEEE-754 bits
//	--- end of the version-1 fixed header (28 bytes) ---
//	seq         uint32 producer stream sequence
//	cfo_hz      uint64 IEEE-754 bits
//	sync_corr   uint64 IEEE-754 bits
//	chip_errors uint32
//	chips       uint32
//	--- end of the version-2 fixed header (56 bytes) ---
//	decoder     uint8 length + bytes
//	psdu        uint8 length + bytes
const (
	recordVersion  = 2
	recordV1Header = 28
	recordV2Header = 56
	recordMaxKnown = recordVersion
)

// maxRecordWire bounds the size of one encoded record: the fixed header
// plus two maximal length-prefixed fields.
const maxRecordWire = recordV2Header + 1 + 255 + 1 + 255

// MarshalBinary encodes the record in the version-2 wire layout.
func (r Record) MarshalBinary() ([]byte, error) {
	if r.Channel < 0 || r.Channel > 255 {
		return nil, fmt.Errorf("capture: channel %d outside uint8 range", r.Channel)
	}
	if len(r.Decoder) > 255 {
		return nil, fmt.Errorf("capture: decoder tag %d bytes long", len(r.Decoder))
	}
	if len(r.PSDU) > 255 {
		return nil, fmt.Errorf("capture: PSDU %d bytes exceeds one octet length", len(r.PSDU))
	}
	b := make([]byte, 0, recordV2Header+2+len(r.Decoder)+len(r.PSDU))
	b = append(b, recordVersion, 0)
	b = binary.BigEndian.AppendUint64(b, uint64(r.At.UnixNano()))
	b = append(b, uint8(r.Channel), r.LQI)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.RSSIdBm))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.SNRdB))
	b = binary.BigEndian.AppendUint32(b, r.Seq)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.CFOHz))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.SyncCorr))
	b = binary.BigEndian.AppendUint32(b, r.ChipErrors)
	b = binary.BigEndian.AppendUint32(b, r.ChipsCompared)
	b = append(b, uint8(len(r.Decoder)))
	b = append(b, r.Decoder...)
	b = append(b, uint8(len(r.PSDU)))
	b = append(b, r.PSDU...)
	return b, nil
}

// UnmarshalBinary decodes a version-1 or version-2 record. Unknown
// future versions are rejected with a descriptive error rather than
// misparsed; corrupt input yields an error, never a panic. So does
// anything MarshalBinary never writes — set reserved flags or bytes
// after the PSDU — so an accepted version-2 record re-encodes to its
// own bytes.
func (r *Record) UnmarshalBinary(b []byte) error {
	if len(b) < 1 {
		return fmt.Errorf("capture: empty record")
	}
	version := b[0]
	if version == 0 || version > recordMaxKnown {
		return fmt.Errorf("capture: record version %d is newer than this reader supports (max %d); upgrade the reader or re-record",
			version, recordMaxKnown)
	}
	if len(b) > 1 && b[1] != 0 {
		return fmt.Errorf("capture: reserved record flags %#x set", b[1])
	}
	header := recordV1Header
	if version == 2 {
		header = recordV2Header
	}
	if len(b) < header {
		return fmt.Errorf("capture: version-%d record truncated at %d bytes (want %d-byte header)",
			version, len(b), header)
	}
	at := int64(binary.BigEndian.Uint64(b[2:10]))
	channel := int(b[10])
	lqi := b[11]
	rssi := math.Float64frombits(binary.BigEndian.Uint64(b[12:20]))
	snr := math.Float64frombits(binary.BigEndian.Uint64(b[20:28]))
	var seq, chipErrs, chips uint32
	var cfo, corr float64
	if version == 2 {
		seq = binary.BigEndian.Uint32(b[28:32])
		cfo = math.Float64frombits(binary.BigEndian.Uint64(b[32:40]))
		corr = math.Float64frombits(binary.BigEndian.Uint64(b[40:48]))
		chipErrs = binary.BigEndian.Uint32(b[48:52])
		chips = binary.BigEndian.Uint32(b[52:56])
	}
	rest := b[header:]
	if len(rest) < 1 {
		return fmt.Errorf("capture: record missing decoder tag")
	}
	dlen := int(rest[0])
	rest = rest[1:]
	if len(rest) < dlen {
		return fmt.Errorf("capture: decoder tag truncated (%d < %d)", len(rest), dlen)
	}
	decoder := string(rest[:dlen])
	rest = rest[dlen:]
	if len(rest) < 1 {
		return fmt.Errorf("capture: record missing PSDU length")
	}
	plen := int(rest[0])
	rest = rest[1:]
	if len(rest) < plen {
		return fmt.Errorf("capture: PSDU truncated (%d < %d)", len(rest), plen)
	}
	if len(rest) > plen {
		return fmt.Errorf("capture: %d bytes after the PSDU", len(rest)-plen)
	}
	*r = Record{
		At:            time.Unix(0, at),
		Channel:       channel,
		RSSIdBm:       rssi,
		SNRdB:         snr,
		LQI:           lqi,
		Seq:           seq,
		CFOHz:         cfo,
		SyncCorr:      corr,
		ChipErrors:    chipErrs,
		ChipsCompared: chips,
		Decoder:       decoder,
		PSDU:          append([]byte(nil), rest[:plen]...),
	}
	return nil
}

// WriteRecord frames one record onto a stream as a big-endian uint32
// length prefix followed by the record's binary encoding — the TCP
// subscriber protocol of wazabeed.
func WriteRecord(w io.Writer, rec Record) error {
	body, err := rec.MarshalBinary()
	if err != nil {
		return err
	}
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], uint32(len(body)))
	if _, err := w.Write(prefix[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// ReadRecord reads one length-prefixed record from a stream. It returns
// io.EOF at a clean end of stream (no bytes read).
func ReadRecord(r io.Reader) (Record, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("capture: truncated record length prefix")
		}
		return Record{}, err
	}
	n := binary.BigEndian.Uint32(prefix[:])
	if n > maxRecordWire {
		return Record{}, fmt.Errorf("capture: record length %d exceeds maximum %d", n, maxRecordWire)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Record{}, fmt.Errorf("capture: truncated record body: %w", err)
	}
	var rec Record
	if err := rec.UnmarshalBinary(body); err != nil {
		return Record{}, err
	}
	return rec, nil
}
