package capture

import (
	"time"

	"wazabee/internal/dsp"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs/link"
)

// NewStatsRecord builds the record for one live capture period from the
// receiver's per-frame link diagnostics (core.Receiver.ReceiveStats):
// decoder tag "wazabee" with the recovered PSDU when the receiver
// decoded the burst (dem non-nil), or a PSDU-less "raw" record when it
// did not — so below-frame consumers such as the IDS still see every
// period. The record carries the measured RSSI/SNR/CFO, the computed
// 802.15.4 LQI and the despreader's chip-error evidence, plus the
// capture loop's sequence number so downstream encoders (ZEP, TCP
// subscribers) stay sequence-linked to the source; the waveform rides
// along in the in-memory IQ field. fallbackSNRdB fills the SNR field
// when the frame carried no valid in-band estimate (e.g. a sync
// failure); pass the configured link SNR, or zero when unknown.
func NewStatsRecord(at time.Time, channel int, seq uint64, sig dsp.IQ, dem *ieee802154.Demodulated, st *link.Stats, fallbackSNRdB float64) Record {
	rec := Record{
		At:      at,
		Channel: channel,
		Seq:     uint32(seq),
		SNRdB:   fallbackSNRdB,
		Decoder: "raw",
		IQ:      sig,
	}
	if dem != nil {
		rec.Decoder = "wazabee"
		rec.PSDU = append([]byte(nil), dem.PPDU.PSDU...)
	}
	if st == nil {
		return rec
	}
	rec.RSSIdBm = st.RSSIdBFS
	if st.SNRValid {
		rec.SNRdB = st.SNRdB
	}
	rec.LQI = st.LQI
	rec.CFOHz = st.CFOHz
	rec.SyncCorr = st.SyncCorr
	rec.ChipErrors = uint32(st.ChipErrors)
	rec.ChipsCompared = uint32(st.ChipsCompared)
	return rec
}
