// Quickstart: the two WazaBee primitives in their simplest form.
//
// A diverted BLE chip (nRF52832 model) transmits an IEEE 802.15.4 frame
// that a legitimate Zigbee radio decodes, then a legitimate Zigbee
// transmission is captured by a diverted BLE receiver — both across the
// simulated air with realistic noise and crystal offsets.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"wazabee"
	"wazabee/internal/bitstream"
	"wazabee/internal/ieee802154"
	"wazabee/internal/radio"
)

const (
	sps     = 8  // baseband samples per 2 Mbit/s symbol
	channel = 14 // Zigbee channel of the victim network (2420 MHz)
	snrDB   = 15
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// The simulated 2.4 GHz medium both radios share.
	medium, err := radio.NewMedium(float64(sps)*ieee802154.ChipRate, 42)
	if err != nil {
		return err
	}
	freq, err := ieee802154.ChannelFrequencyMHz(channel)
	if err != nil {
		return err
	}
	link := radio.Link{SNRdB: snrDB, CFOHz: 40e3, LeadSamples: 300, LagSamples: 150}

	// A legitimate Zigbee endpoint (RZUSBStick-class radio).
	zigbeePHY, err := wazabee.RZUSBStick().NewZigbeePHY(sps)
	if err != nil {
		return err
	}

	// ---- Direction 1: BLE chip transmits, Zigbee radio receives. ----
	tx, err := wazabee.NewTransmitter(wazabee.NRF52832(), sps)
	if err != nil {
		return err
	}
	frame := wazabee.NewDataFrame(7, 0x1234, 0x0042, 0x0063, []byte("hello zigbee"), false)
	psdu, err := frame.Encode()
	if err != nil {
		return err
	}
	sig, err := tx.ModulatePSDU(psdu)
	if err != nil {
		return err
	}
	capture, err := medium.Deliver(sig, freq, freq, link)
	if err != nil {
		return err
	}
	dem, err := zigbeePHY.Demodulate(capture)
	if err != nil {
		return fmt.Errorf("zigbee RX: %w", err)
	}
	rx1, err := ieee802154.ParseMACFrame(dem.PPDU.PSDU)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "BLE chip -> Zigbee radio: %q (FCS ok: %v)\n",
		rx1.Payload, bitstream.CheckFCS(dem.PPDU.PSDU))

	// ---- Direction 2: Zigbee radio transmits, BLE chip receives. ----
	rx, err := wazabee.NewReceiver(wazabee.CC1352R1(), sps)
	if err != nil {
		return err
	}
	reply := wazabee.NewDataFrame(8, 0x1234, 0x0063, 0x0042, []byte("hello ble"), false)
	replyPSDU, err := reply.Encode()
	if err != nil {
		return err
	}
	replyPPDU, err := wazabee.NewFrame(replyPSDU)
	if err != nil {
		return err
	}
	sig2, err := zigbeePHY.Modulate(replyPPDU)
	if err != nil {
		return err
	}
	capture2, err := medium.Deliver(sig2, freq, freq, link)
	if err != nil {
		return err
	}
	dem2, err := rx.Receive(capture2)
	if err != nil {
		return fmt.Errorf("WazaBee RX: %w", err)
	}
	rx2, err := ieee802154.ParseMACFrame(dem2.PPDU.PSDU)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Zigbee radio -> BLE chip: %q (worst chip distance %d)\n",
		rx2.Payload, dem2.WorstChipDistance)

	// The table the whole trick rests on.
	table, err := wazabee.CorrespondenceTable()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nsymbol 0 PN : %s\nsymbol 0 MSK: %s\n", table[0].PN, table[0].MSK)
	fmt.Fprintf(w, "BLE access address for 802.15.4 detection: %#08x\n", wazabee.AccessAddress())
	return nil
}
