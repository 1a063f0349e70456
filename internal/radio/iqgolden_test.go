package radio_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"wazabee/internal/bitstream"
	"wazabee/internal/ble"
	"wazabee/internal/chip"
	"wazabee/internal/core"
	"wazabee/internal/dsp"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/obs/link"
	"wazabee/internal/radio"
)

// The IQ chain's bit-exact contract (DESIGN.md §9): allocation, operation
// fusion and the representation of the sync scan may change, but every
// IQ sample, soft receiver output and random draw must stay identical.
// These digests hash the float64 bits of each output, so a reordered sum,
// a different trig routine or a moved RNG draw fails here even when
// every hard decision (Table III tallies, the calibration table) still
// agrees.
//
// The pinned values were computed before the fast path existed. A change
// that moves them on purpose must say why and re-pin every entry.
var iqGolden = map[string]string{
	"modulate/core/nRF52832/table3":  "2dd883845fdf54f4786b11fcfca68812ba0cad90ab76b1137bd54576d8a971d8",
	"modulate/core/nRF52832/long":    "aea264ccfdb443434448d41b92f3cdeaf85dde52662235be29d204c3b1825f9c",
	"modulate/core/CC1352-R1/table3": "ac9e0a0d8df9f6e6e427bee426b5768fd6228a18fba01e90b871f3dadac42616",
	"modulate/core/CC1352-R1/long":   "d4c3b739c560c9b4c2b8695ce696efd3f328165a3af399a2ab615c075defb349",
	"modulate/oqpsk/table3":          "2898a534e6d19e92ac740cae2c89ad587b22a6f8009f209fe0db0adb30359786",
	"modulate/oqpsk/long":            "7b6fa9a645cfe608d6eaa8796017fed61ef34710a7938536225d8669c97e43a2",
	"modulate/ble/adv":               "3ebd959d6a307e97e2c138b48178c34a669766e1d94560a3d162a32cff60fb00",
	"medium/cfo+/co-channel":         "f2c366307b9471497dd4ac8465e1cf1eb59f0f76774917b40032e935a1412247",
	"medium/cfo-/co-channel":         "1d160049960ff4a37c10f59a421b570527e03dddfd8c7b5b8d26cdc90fef1395",
	"medium/cfo0/co-channel":         "58486928711abcf8962ffc128388ab9b13f83d56034c4d86e72868fb94c521a2",
	"medium/cfo+/adjacent":           "b7c5b5080013ae6495b312b0c1ae92fe73e49c21e1b2dbbbe4bb6869a5754c35",
	"medium/cfo-/adjacent":           "5d2c10f99573a324708c92bc0bb49ddec5d023b44c5f10250942388ac4da4218",
	"medium/cfo+/out-of-band":        "9f6a4568bbba2db31bacf21f733301993334279c8a3bd354292766d9348136b5",
	"medium/cfo+/co-channel/wifi":    "776d3ed7c9230e5a72685d08d544ac74d8849a7805dc6b086cd5f285750ad46e",
	"medium/cfo-/adjacent/wifi":      "bf2e084dd0f49496b02091067d4bcf0891ec8d0bd63557d50e3719044e620acf",
	"medium/cfo0/no-lead/wifi":       "273cce07c4e9be34e5b695d065c4815d81a2f80476e94452abc1ab3e85274fab",
	"receive/core/nRF52832":          "4ae84ff4ce03bb096183c2c8d9cd8c0fa061bae1dd2ac05efca0a369503b5dca",
	"receive/core/CC1352-R1":         "75d63e4de59e11cc37cabdc67664f96fde77e3bfd45c944198aa9ff93ce65c46",
	"receive/oqpsk/nRF52832":         "088da28cd4d30d2f39ab895f0fd093fc54bf67d592cb83a4e9fd3d5f22d9ba49",
	"receive/oqpsk/CC1352-R1":        "3b6598854e7e840e358d696cfb921aa68a3df027cb2489f01cb32ed0335742ec",
	"receive/ble-frame/access":       "e26c9ab9814311a66312d8dea652e0b6994f1f56436bf0a6bea768af1a6e19d7",
	"receive/ble-frame/adv":          "8d6646a98773e5ebe8d1447d83ae06d2830b56d2d04246edfeeb1b45027aac5d",
}

// digest accumulates values by their exact bit patterns.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) f(v float64) { d.u64(math.Float64bits(v)) }
func (d *digest) i(v int)     { d.u64(uint64(int64(v))) }

func (d *digest) t(v bool) {
	if v {
		d.i(1)
	} else {
		d.i(0)
	}
}

func (d *digest) bytes(b []byte) {
	d.i(len(b))
	d.h.Write(b)
}

func (d *digest) iq(s dsp.IQ) {
	d.i(len(s))
	for _, v := range s {
		d.f(real(v))
		d.f(imag(v))
	}
}

func (d *digest) err(err error) {
	if err == nil {
		d.bytes(nil)
		return
	}
	d.bytes([]byte(err.Error()))
}

func (d *digest) stats(st *link.Stats) {
	if st == nil {
		d.i(-1)
		return
	}
	d.t(st.Synced)
	d.t(st.Decoded)
	d.t(st.Gated)
	d.t(st.FCSOK)
	d.f(st.RSSIdBFS)
	d.f(st.NoisedBFS)
	d.f(st.SNRdB)
	d.t(st.SNRValid)
	d.f(st.CFOHz)
	d.f(st.SyncCorr)
	d.i(st.SyncErrors)
	d.i(st.WorstChipDistance)
	d.i(st.ChipErrors)
	d.i(st.ChipsCompared)
	for _, n := range st.DistHist {
		d.i(int(n))
	}
	d.i(int(st.LQI))
}

func (d *digest) demodulated(dem *ieee802154.Demodulated) {
	if dem == nil {
		d.i(-1)
		return
	}
	d.bytes(dem.PPDU.PSDU)
	d.i(dem.WorstChipDistance)
	d.i(dem.TotalChipDistance)
	d.i(dem.SymbolCount)
	for _, n := range dem.ChipDistHist {
		d.i(int(n))
	}
	d.i(dem.TransitionSpan)
	d.f(dem.SoftEVM)
	d.i(dem.SyncErrors)
	d.i(dem.SampleOffset)
	d.f(dem.CFOBias)
	d.f(dem.SyncCorr)
}

func (d *digest) capture(c *ble.Capture) {
	if c == nil {
		d.i(-1)
		return
	}
	d.bytes(c.Bits)
	d.i(c.PatternErrors)
	d.i(c.PatternStart)
	d.i(c.SampleOffset)
	d.f(c.SyncScore)
	d.f(c.CFOBias)
}

func (d *digest) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }

const goldenSPS = 8

// goldenPSDUs are the frames the modulator digests cover: the Table III
// frame (frame counter 3) and a long random payload.
func goldenPSDUs(t *testing.T) map[string][]byte {
	t.Helper()
	table3, err := ieee802154.NewDataFrame(3, 0x1234, 0x0000, 0x0001, []byte{0x03, 0x00, 0x2a}, false).Encode()
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(11))
	payload := make([]byte, 100)
	rnd.Read(payload)
	fcs := bitstream.FCS16Bytes(bitstream.FCS16(payload))
	long := append(payload, fcs[0], fcs[1])
	return map[string][]byte{"table3": table3, "long": long}
}

func goldenModels() []chip.Model { return []chip.Model{chip.NRF52832(), chip.CC1352R1()} }

// goldenWaveform modulates a PSDU with a chip's diverted transmitter.
func goldenWaveform(t *testing.T, m chip.Model, psdu []byte) dsp.IQ {
	t.Helper()
	tx, err := m.NewWazaBeeTransmitter(goldenSPS)
	if err != nil {
		t.Fatal(err)
	}
	tx.Obs = obs.NewRegistry()
	ppdu, err := ieee802154.NewPPDU(psdu)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := tx.Modulate(ppdu)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

// goldenOQPSK modulates a PSDU with the legitimate O-QPSK modem.
func goldenOQPSK(t *testing.T, psdu []byte) dsp.IQ {
	t.Helper()
	phy, err := chip.RZUSBStick().NewZigbeePHY(goldenSPS)
	if err != nil {
		t.Fatal(err)
	}
	phy.Obs = obs.NewRegistry()
	ppdu, err := ieee802154.NewPPDU(psdu)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := phy.Modulate(ppdu)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

// goldenAdv is a BLE LE 2M burst carrying the advertising preamble and
// Access Address ahead of random payload bits.
func goldenAdv(t *testing.T) (dsp.IQ, bitstream.Bits) {
	t.Helper()
	pattern := append(bitstream.BytesToBits([]byte{0xaa, 0xaa}), bitstream.Uint32ToBits(ble.AdvAccessAddress)...)
	rnd := rand.New(rand.NewSource(5))
	bits := append(bitstream.Clone(pattern), make(bitstream.Bits, 400)...)
	for i := len(pattern); i < len(bits); i++ {
		bits[i] = byte(rnd.Intn(2))
	}
	phy, err := ble.NewPHY(ble.LE2M, goldenSPS)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := phy.ModulateBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	return sig, pattern
}

// goldenMedium is a fresh seeded medium, optionally with the Table III
// WiFi networks on channels 6 and 11.
func goldenMedium(t *testing.T, seed int64, wifi bool) *radio.Medium {
	t.Helper()
	m, err := radio.NewMedium(goldenSPS*ieee802154.ChipRate, seed)
	if err != nil {
		t.Fatal(err)
	}
	m.Obs = obs.NewRegistry()
	if wifi {
		for _, ch := range []int{6, 11} {
			w, err := radio.NewWiFiInterferer(ch, 0.05, 6, goldenSPS*100)
			if err != nil {
				t.Fatal(err)
			}
			m.AddWiFi(w)
		}
	}
	return m
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, ok := iqGolden[name]
	if !ok {
		t.Errorf("%s: no pinned digest (got %s)", name, got)
		return
	}
	if got != want {
		t.Errorf("%s: digest %s, want %s", name, got, want)
	}
}

// TestIQModulatorGolden pins the samples of both transmit modems.
func TestIQModulatorGolden(t *testing.T) {
	for label, psdu := range goldenPSDUs(t) {
		for _, m := range goldenModels() {
			d := newDigest()
			d.iq(goldenWaveform(t, m, psdu))
			checkGolden(t, "modulate/core/"+m.Name+"/"+label, d.sum())
		}
		d := newDigest()
		d.iq(goldenOQPSK(t, psdu))
		checkGolden(t, "modulate/oqpsk/"+label, d.sum())
	}
	sig, _ := goldenAdv(t)
	d := newDigest()
	d.iq(sig)
	checkGolden(t, "modulate/ble/adv", d.sum())
}

// TestIQMediumGolden pins the medium's capture samples across the CFO
// sign, the passband gate (co-channel, adjacent, out of band) and the
// WiFi interferers.
func TestIQMediumGolden(t *testing.T) {
	psdu := goldenPSDUs(t)["table3"]
	sig := goldenWaveform(t, chip.NRF52832(), psdu)
	const tx = 2435.0 // Zigbee channel 17, inside WiFi channel 6
	cases := []struct {
		name      string
		cfo, rx   float64
		lead, lag int
		wifi      bool
	}{
		{"cfo+/co-channel", 41e3, tx, 320, 160, false},
		{"cfo-/co-channel", -37.5e3, tx, 320, 160, false},
		{"cfo0/co-channel", 0, tx, 320, 160, false},
		{"cfo+/adjacent", 23e3, tx + 1.5, 320, 160, false},
		{"cfo-/adjacent", -12e3, tx - 1, 320, 160, false},
		{"cfo+/out-of-band", 41e3, tx + 5, 320, 160, false},
		{"cfo+/co-channel/wifi", 41e3, tx, 320, 160, true},
		{"cfo-/adjacent/wifi", -29e3, tx + 1, 320, 160, true},
		{"cfo0/no-lead/wifi", 0, tx, 0, 40, true},
	}
	for i, c := range cases {
		m := goldenMedium(t, int64(100+i), c.wifi)
		out, err := m.Deliver(sig, tx, c.rx, radio.Link{
			SNRdB: 7, CFOHz: c.cfo, LeadSamples: c.lead, LagSamples: c.lag,
			InterferenceRejectionDB: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		d := newDigest()
		d.iq(out)
		// The next draw shows the medium consumed exactly the same
		// number of random values.
		d.f(m.Rand().Float64())
		checkGolden(t, "medium/"+c.name, d.sum())
	}
}

// goldenCaptures delivers sig over a WiFi-loaded channel at every SNR
// from -1 to 12 dB, two seeds each, and hands each capture to fn.
func goldenCaptures(t *testing.T, sig dsp.IQ, fn func(capture dsp.IQ)) {
	t.Helper()
	const freq = 2435.0
	for snr := -1; snr <= 12; snr++ {
		for seed := int64(0); seed < 2; seed++ {
			m := goldenMedium(t, 1000*int64(snr+2)+seed, true)
			cfo := (m.Rand().Float64()*2 - 1) * 60e3
			capture, err := m.Deliver(sig, freq, freq, radio.Link{
				SNRdB: float64(snr), CFOHz: cfo,
				LeadSamples: 40 * goldenSPS, LagSamples: 20 * goldenSPS,
			})
			if err != nil {
				t.Fatal(err)
			}
			fn(capture)
		}
	}
}

// TestIQReceiverGolden pins every receiver's soft outputs (sync score,
// CFO bias, timing phase, SoftEVM, link statistics) for captures from
// -1 to 12 dB.
func TestIQReceiverGolden(t *testing.T) {
	psdu := goldenPSDUs(t)["table3"]
	oqpsk := goldenOQPSK(t, psdu)
	for _, m := range goldenModels() {
		rx, err := m.NewWazaBeeReceiver(goldenSPS)
		if err != nil {
			t.Fatal(err)
		}
		rx.Obs = obs.NewRegistry()
		d := newDigest()
		goldenCaptures(t, oqpsk, func(capture dsp.IQ) {
			dem, st, err := rx.ReceiveStats(capture)
			d.demodulated(dem)
			d.stats(st)
			d.err(err)
		})
		checkGolden(t, "receive/core/"+m.Name, d.sum())

		phy, err := chip.RZUSBStick().NewZigbeePHY(goldenSPS)
		if err != nil {
			t.Fatal(err)
		}
		phy.Obs = obs.NewRegistry()
		d = newDigest()
		goldenCaptures(t, goldenWaveform(t, m, psdu), func(capture dsp.IQ) {
			dem, st, err := phy.DemodulateStats(capture)
			d.demodulated(dem)
			d.stats(st)
			d.err(err)
		})
		checkGolden(t, "receive/oqpsk/"+m.Name, d.sum())
	}

	blePHY, err := ble.NewPHY(ble.LE2M, goldenSPS)
	if err != nil {
		t.Fatal(err)
	}
	d := newDigest()
	goldenCaptures(t, oqpsk, func(capture dsp.IQ) {
		c, err := blePHY.DemodulateFrame(capture, core.AccessPattern(), 3)
		d.capture(c)
		d.err(err)
	})
	checkGolden(t, "receive/ble-frame/access", d.sum())

	adv, pattern := goldenAdv(t)
	d = newDigest()
	goldenCaptures(t, adv, func(capture dsp.IQ) {
		c, err := blePHY.DemodulateFrame(capture, pattern, 3)
		d.capture(c)
		d.err(err)
	})
	checkGolden(t, "receive/ble-frame/adv", d.sum())
}
