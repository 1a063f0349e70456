// Command signals emits the waveform data behind Figures 1–3 of the
// paper as CSV on stdout, for plotting:
//
//	signals -figure 1    2-FSK/MSK baseband: I, Q and instantaneous frequency per sample
//	signals -figure 2    O-QPSK half-sine temporal decomposition: I(t), Q(t), s(t)
//	signals -figure 3    O-QPSK phase trajectory (constellation transitions)
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"wazabee/internal/bitstream"
	"wazabee/internal/ble"
	"wazabee/internal/core"
	"wazabee/internal/dsp"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
)

const sps = 32 // high oversampling for smooth plots

func main() {
	obs.RegisterBuildInfo(nil)
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "signals:", err)
		os.Exit(1)
	}
}

// run writes the selected figure's CSV to out; flag errors go to errOut.
func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("signals", flag.ContinueOnError)
	fs.SetOutput(errOut)
	figure := fs.Int("figure", 1, "paper figure to regenerate (1, 2 or 3; 4 emits the GFSK-vs-O-QPSK spectra)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *figure {
	case 1:
		return figure1(out)
	case 2:
		return figure2(out)
	case 3:
		return figure3(out)
	case 4:
		return spectra(out)
	default:
		return fmt.Errorf("unknown figure %d", *figure)
	}
}

// spectra emits the power spectral densities of the two waveforms the
// attack equates: the BLE GFSK emission of a WazaBee frame and the same
// frame from a native O-QPSK radio — the starting point for the
// spectrum-monitoring counter-measures of section VII.
func spectra(out io.Writer) error {
	const fftSize = 1024
	payload := make([]byte, 32)
	for i := range payload {
		payload[i] = byte(i*37 + 11)
	}
	zphy, err := ieee802154.NewPHY(sps)
	if err != nil {
		return err
	}
	chips := ieee802154.Spread(payload)
	oqpsk, err := zphy.ModulateChips(chips)
	if err != nil {
		return err
	}
	bphy, err := ble.NewPHY(ble.LE2M, sps)
	if err != nil {
		return err
	}
	msk, err := core.ConvertChipStream(chips)
	if err != nil {
		return err
	}
	gfsk, err := bphy.ModulateBits(msk)
	if err != nil {
		return err
	}
	psdO, err := dsp.PowerSpectralDensity(oqpsk, fftSize)
	if err != nil {
		return err
	}
	psdG, err := dsp.PowerSpectralDensity(gfsk, fftSize)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "freq_mhz,oqpsk_db,gfsk_db")
	sampleRate := float64(sps) * ieee802154.ChipRate
	for i := 0; i < fftSize; i++ {
		freq := (float64(i) - fftSize/2) * sampleRate / fftSize / 1e6
		fmt.Fprintf(out, "%.4f,%.2f,%.2f\n", freq, 10*math.Log10(psdO[i]+1e-15), 10*math.Log10(psdG[i]+1e-15))
	}
	return nil
}

// figure1 shows the 2-FSK I/Q rotation directions: a 1 encoded by a
// counter-clockwise rotation, a 0 by a clockwise rotation.
func figure1(out io.Writer) error {
	phy, err := ble.NewPHYWithShaping(ble.LE2M, sps, 0.5, 0)
	if err != nil {
		return err
	}
	bits, err := bitstream.ParseBits("1100101")
	if err != nil {
		return err
	}
	sig, err := phy.ModulateBits(bits)
	if err != nil {
		return err
	}
	incs := dsp.Discriminate(sig)
	fmt.Fprintln(out, "sample,bit,i,q,freq")
	for n, v := range sig {
		bit := n / sps
		if bit >= len(bits) {
			break
		}
		f := 0.0
		if n < len(incs) {
			f = incs[n]
		}
		fmt.Fprintf(out, "%d,%d,%.6f,%.6f,%.6f\n", n, bits[bit], real(v), imag(v), f)
	}
	return nil
}

// figure2 reproduces the temporal decomposition of the O-QPSK modulated
// signal: the half-sine shaped I and Q components and their sum.
func figure2(out io.Writer) error {
	phy, err := ieee802154.NewPHY(sps)
	if err != nil {
		return err
	}
	chips, err := bitstream.ParseBits("110100101101")
	if err != nil {
		return err
	}
	sig, err := phy.ModulateChips(chips)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "sample,chip,i,q,magnitude")
	for n, v := range sig {
		chipIdx := n / sps
		chipVal := -1
		if chipIdx < len(chips) {
			chipVal = int(chips[chipIdx])
		}
		re, im := real(v), imag(v)
		fmt.Fprintf(out, "%d,%d,%.6f,%.6f,%.6f\n", n, chipVal, re, im, re*re+im*im)
	}
	return nil
}

// figure3 emits the phase trajectory of the O-QPSK signal: ±π/2 linear
// transitions between constellation states.
func figure3(out io.Writer) error {
	phy, err := ieee802154.NewPHY(sps)
	if err != nil {
		return err
	}
	chips := ieee802154.Spread([]byte{0x5a})
	sig, err := phy.ModulateChips(chips)
	if err != nil {
		return err
	}
	phase := dsp.UnwrapPhase(sig)
	trans := ieee802154.ChipTransitions(chips)
	fmt.Fprintln(out, "sample,phase,i,q,transition")
	for n, v := range sig {
		chipIdx := n / sps
		t := -1
		if chipIdx >= 1 && chipIdx-1 < len(trans) {
			t = int(trans[chipIdx-1])
		}
		fmt.Fprintf(out, "%d,%.6f,%.6f,%.6f,%d\n", n, phase[n], real(v), imag(v), t)
	}
	return nil
}
