// Command wazabee is the CLI for the WazaBee reproduction: it prints the
// attack's lookup tables, converts PN sequences, and runs single frames
// through the simulated air in both directions.
//
// Usage:
//
//	wazabee table              print the PN/MSK correspondence table (Table I + Algorithm 1)
//	wazabee channels           print the Zigbee/BLE common channels (Table II)
//	wazabee chips              print the chip capability matrix
//	wazabee convert <bits>     convert a 32-chip PN sequence to its MSK encoding
//	wazabee tx [-chip name] [-channel n] [-payload hex]
//	                           WazaBee TX -> legitimate 802.15.4 RX over the simulated air
//	wazabee rx [-chip name] [-channel n] [-payload hex]
//	                           legitimate 802.15.4 TX -> WazaBee RX over the simulated air
//	wazabee link [-chip name] [-channel n] [-frames n] [-snr dB]
//	                           sound the link with test frames and print the
//	                           per-frame LinkStats table (RSSI/SNR/CFO/LQI)
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"wazabee/internal/bitstream"
	"wazabee/internal/chip"
	"wazabee/internal/core"
	"wazabee/internal/experiment"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/obs/link"
	"wazabee/internal/radio"
	"wazabee/internal/zigbee"
)

func main() {
	obs.RegisterBuildInfo(nil)
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "wazabee:", err)
		os.Exit(1)
	}
}

func run(args []string, out, errOut io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand (table, channels, chips, convert, tx, rx, link)")
	}
	switch args[0] {
	case "link":
		return linkReport(args[1:], out, errOut)
	case "table":
		return printTable(out)
	case "channels":
		return printChannels(out)
	case "chips":
		return printChips(out)
	case "convert":
		if len(args) < 2 {
			return fmt.Errorf("convert needs a 32-chip bit string")
		}
		return convert(out, args[1])
	case "tx":
		return overAir(args[1:], out, errOut, experiment.Transmission)
	case "rx":
		return overAir(args[1:], out, errOut, experiment.Reception)
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func printTable(out io.Writer) error {
	table, err := core.CorrespondenceTable()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "symbol  PN sequence (32 chips, Table I)      MSK encoding (31 bits, Algorithm 1)")
	for _, row := range table {
		fmt.Fprintf(out, "%4d    %s %s\n", row.Symbol, row.PN, row.MSK)
	}
	fmt.Fprintf(out, "\nBLE access address for 802.15.4 preamble detection: 0x%08x\n", core.AccessAddress())
	return nil
}

func printChannels(out io.Writer) error {
	fmt.Fprintln(out, "Zigbee channel  BLE channel  centre frequency (Table II)")
	for _, m := range core.CommonChannels() {
		fmt.Fprintf(out, "%14d  %11d  %g MHz\n", m.Zigbee, m.BLE, m.FrequencyMHz)
	}
	return nil
}

func printChips(out io.Writer) error {
	models := []chip.Model{
		chip.NRF52832(), chip.CC1352R1(), chip.NRF51822(),
		chip.CC2652R(), chip.AndroidController(), chip.RZUSBStick(),
	}
	fmt.Fprintf(out, "%-24s %-8s %-9s %-9s %-9s %-8s %s\n",
		"chip", "mode", "any-freq", "crc-off", "whit-off", "tx", "rx")
	for _, m := range models {
		mode := "-"
		if m.Mode != 0 {
			mode = m.Mode.String()
		}
		txOK, rxOK := "no", "no"
		if _, err := m.NewWazaBeeTransmitter(8); err == nil {
			txOK = "yes"
		}
		if _, err := m.NewWazaBeeReceiver(8); err == nil {
			rxOK = "yes"
		}
		fmt.Fprintf(out, "%-24s %-8s %-9v %-9v %-9v %-8s %s\n",
			m.Name, mode, m.ArbitraryFrequency, m.CanDisableCRC, m.CanDisableWhitening, txOK, rxOK)
	}
	return nil
}

func convert(out io.Writer, s string) error {
	pn, err := bitstream.ParseBits(s)
	if err != nil {
		return err
	}
	msk, err := core.ConvertPNSequence(pn)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "PN : %s\nMSK: %s\n", pn, msk)
	return nil
}

// linkReport sounds the simulated link with test frames and prints each
// frame's LinkStats plus the per-channel aggregate — the one-shot
// diagnostics table the CI smoke target runs.
func linkReport(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("link", flag.ContinueOnError)
	fs.SetOutput(errOut)
	chipName := fs.String("chip", "nrf52832", "BLE chip model (nrf52832, cc1352r1, nrf51822)")
	channel := fs.Int("channel", zigbee.DefaultChannel, "Zigbee channel (11-26)")
	frames := fs.Int("frames", 10, "number of sounding frames")
	snr := fs.Float64("snr", 12, "link SNR in dB")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *frames < 1 {
		return fmt.Errorf("frame count %d < 1", *frames)
	}
	const sps = 8
	air := radio.Link{SNRdB: *snr, LeadSamples: 40 * sps, LagSamples: 20 * sps}
	if err := air.Validate(); err != nil {
		return err
	}

	model, err := chipByName(*chipName)
	if err != nil {
		return err
	}
	if !model.CanTune(*channel) {
		return fmt.Errorf("%s cannot tune Zigbee channel %d", model.Name, *channel)
	}

	freq, err := ieee802154.ChannelFrequencyMHz(*channel)
	if err != nil {
		return err
	}
	medium, err := radio.NewMedium(float64(sps)*ieee802154.ChipRate, *seed)
	if err != nil {
		return err
	}
	// Keep the sounding run's telemetry out of the process totals.
	reg := obs.NewRegistry()
	medium.Obs = reg
	modulate, err := chip.RZUSBStick().Modulator(sps, reg, nil)
	if err != nil {
		return err
	}
	// The receiver is the WazaBee primitive itself rather than a modem
	// half: the sounding stamps each capture's emission time.
	rx, err := model.NewWazaBeeReceiver(sps)
	if err != nil {
		return err
	}
	rx.Obs = reg
	agg := link.NewAggregator(reg)

	fmt.Fprintf(out, "sounding channel %d (%g MHz), %s receiving, %d frames at %g dB SNR\n\n",
		*channel, freq, model.Name, *frames, *snr)
	fmt.Fprintf(out, "%-6s %-10s %9s %9s %10s %6s %9s %5s\n",
		"frame", "result", "rssi(dB)", "snr(dB)", "cfo(Hz)", "sync", "chip-err", "lqi")
	for i := 0; i < *frames; i++ {
		ppdu, err := ieee802154.NewPPDU(experiment.CounterFrame(i))
		if err != nil {
			return err
		}
		sig, err := modulate(ppdu)
		if err != nil {
			return err
		}
		origin := time.Now() // the frame hits the air now
		capture, err := medium.Deliver(sig, freq, freq, air)
		if err != nil {
			return err
		}
		_, st, _ := rx.ReceiveStatsAt(origin, capture)
		agg.Observe(*channel, st)
		fmt.Fprintf(out, "%-6d %-10s %9.1f %9.1f %10.0f %6.2f %9.4f %5d\n",
			i, st.Result(), st.RSSIdBFS, st.SNRdB, st.CFOHz, st.SyncCorr, st.ChipErrorRate(), st.LQI)
	}
	fmt.Fprintln(out, "\nper-channel aggregate:")
	fmt.Fprint(out, agg.Table())
	hDemod := obs.LatencyHistogram(reg, "demod", "decoder", "wazabee")
	if n := hDemod.Count(); n > 0 {
		fmt.Fprintf(out, "\ndecode latency (emit→verdict, %d frames): p50 %.3f ms  p99 %.3f ms\n",
			n, hDemod.Quantile(0.5)*1e3, hDemod.Quantile(0.99)*1e3)
	}
	return nil
}

func chipByName(name string) (chip.Model, error) {
	switch name {
	case "nrf52832":
		return chip.NRF52832(), nil
	case "cc1352r1":
		return chip.CC1352R1(), nil
	case "nrf51822":
		return chip.NRF51822(), nil
	default:
		return chip.Model{}, fmt.Errorf("unknown chip %q (nrf52832, cc1352r1, nrf51822)", name)
	}
}

// overAir sends one frame across the side's link: on Transmission the
// diverted chip transmits to the RZUSBStick, on Reception the RZUSBStick
// transmits to the diverted chip.
func overAir(args []string, out, errOut io.Writer, side experiment.Side) error {
	fs := flag.NewFlagSet("air", flag.ContinueOnError)
	fs.SetOutput(errOut)
	chipName := fs.String("chip", "nrf52832", "BLE chip model (nrf52832, cc1352r1, nrf51822)")
	channel := fs.Int("channel", zigbee.DefaultChannel, "Zigbee channel (11-26)")
	payloadHex := fs.String("payload", "cafe0042", "MAC payload bytes (hex)")
	snr := fs.Float64("snr", 12, "link SNR in dB")
	seed := fs.Int64("seed", 1, "random seed")
	metrics := fs.Bool("metrics", false, "print the span trace and telemetry snapshot after the round trip")
	if err := fs.Parse(args); err != nil {
		return err
	}
	const sps = 8
	air := radio.Link{SNRdB: *snr, LeadSamples: 40 * sps, LagSamples: 20 * sps}
	if err := air.Validate(); err != nil {
		return err
	}

	model, err := chipByName(*chipName)
	if err != nil {
		return err
	}
	if !model.CanTune(*channel) {
		return fmt.Errorf("%s cannot tune Zigbee channel %d", model.Name, *channel)
	}
	payload, err := hex.DecodeString(*payloadHex)
	if err != nil {
		return fmt.Errorf("payload: %w", err)
	}

	freq, err := ieee802154.ChannelFrequencyMHz(*channel)
	if err != nil {
		return err
	}
	medium, err := radio.NewMedium(float64(sps)*ieee802154.ChipRate, *seed)
	if err != nil {
		return err
	}

	// With -metrics, every pipeline component reports into a private
	// registry and span trace, printed once the round trip is done.
	var reg *obs.Registry
	var tr *obs.Trace
	if *metrics {
		reg = obs.NewRegistry()
		direction := "rx"
		if side == experiment.Transmission {
			direction = "tx"
		}
		tr = obs.NewTrace(fmt.Sprintf("wazabee %s, %s, channel %d", direction, model.Name, *channel))
		medium.Obs, medium.Trace = reg, tr
	}

	frame := ieee802154.NewDataFrame(1, zigbee.DefaultPAN, zigbee.DefaultCoordinator, zigbee.DefaultSensor, payload, false)
	psdu, err := frame.Encode()
	if err != nil {
		return err
	}
	ppdu, err := ieee802154.NewPPDU(psdu)
	if err != nil {
		return err
	}

	tx, rx := side.Ends(model)
	modulate, err := tx.Modulator(sps, reg, tr)
	if err != nil {
		return err
	}
	demodulate, err := rx.Demodulator(sps, reg, tr)
	if err != nil {
		return err
	}
	sig, err := modulate(ppdu)
	if err != nil {
		return err
	}
	if side == experiment.Transmission {
		fmt.Fprintf(out, "WazaBee TX on %s: %d-byte PSDU as %d GFSK bits on channel %d (%g MHz)\n",
			model.Name, len(psdu), len(sig)/sps, *channel, freq)
	} else {
		fmt.Fprintf(out, "802.15.4 TX (%s): %d-byte PSDU on channel %d (%g MHz)\n", tx.Name, len(psdu), *channel, freq)
	}

	capture, err := medium.Deliver(sig, freq, freq, air)
	if err != nil {
		return err
	}

	// The failure case is precisely when the telemetry matters, so dump
	// it before surfacing a receive error.
	dumpMetrics := func() error {
		if !*metrics {
			return nil
		}
		fmt.Fprintln(out, "\n=== span trace ===")
		fmt.Fprint(out, tr.Tree())
		fmt.Fprintln(out, "\n=== telemetry snapshot (Prometheus text format) ===")
		return reg.WritePrometheus(out)
	}

	dem, _, err := demodulate(capture)
	if err != nil {
		_ = dumpMetrics() // the receive error is the one to report
		if side == experiment.Transmission {
			return fmt.Errorf("802.15.4 RX: %w", err)
		}
		return fmt.Errorf("WazaBee RX: %w", err)
	}
	if side == experiment.Transmission {
		fmt.Fprintf(out, "802.15.4 RX (%s): frame received\n", rx.Name)
	} else {
		fmt.Fprintf(out, "WazaBee RX on %s: frame received\n", model.Name)
	}

	fmt.Fprintf(out, "  PSDU: %x\n", dem.PPDU.PSDU)
	fmt.Fprintf(out, "  FCS valid: %v, worst chip distance: %d, sync errors: %d\n",
		bitstream.CheckFCS(dem.PPDU.PSDU), dem.WorstChipDistance, dem.SyncErrors)
	rxFrame, err := ieee802154.ParseMACFrame(dem.PPDU.PSDU)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  MAC: %v seq=%d PAN=%#04x dest=%#04x src=%#04x payload=%x\n",
		rxFrame.Type, rxFrame.Seq, rxFrame.DestPAN, rxFrame.DestAddr, rxFrame.SrcAddr, rxFrame.Payload)
	return dumpMetrics()
}
