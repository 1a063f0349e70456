// Smart-lamp takeover through the full Zigbee stack. The paper cites the
// "IoT goes nuclear" chain reaction [4], which rode ZCL On/Off traffic
// between smart lamps; here a diverted BLE chip speaks the complete
// MAC/NWK/APS/ZCL stack to toggle a lamp it was never supposed to reach.
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
	"wazabee/internal/zigbee"
)

const (
	sps      = 8
	pan      = 0x1a62
	lampAddr = 0x4444
	attacker = 0x0b0b
	channel  = 16
)

// lamp is the victim device: a ZCL On/Off server.
type lamp struct {
	phy *ieee802154.PHY
	on  bool
}

// handle processes a received capture through the whole stack,
// applies On/Off commands addressed to the lamp and reports its state
// to w.
func (l *lamp) handle(w io.Writer, capture []complex128) error {
	dem, err := l.phy.Demodulate(capture)
	if err != nil {
		return fmt.Errorf("no frame: %w", err)
	}
	if !bitstream.CheckFCS(dem.PPDU.PSDU) {
		return fmt.Errorf("FCS failed")
	}
	mac, err := ieee802154.ParseMACFrame(dem.PPDU.PSDU)
	if err != nil {
		return err
	}
	if mac.DestPAN != pan || mac.DestAddr != lampAddr {
		return fmt.Errorf("not for this lamp")
	}
	nwk, aps, err := zigbee.ParseZigbeeDataFrame(mac.Payload)
	if err != nil {
		return err
	}
	if aps.ClusterID != zigbee.ClusterOnOff {
		return fmt.Errorf("cluster %#x unsupported", aps.ClusterID)
	}
	zcl, err := zigbee.ParseZCLFrame(aps.Payload)
	if err != nil {
		return err
	}
	switch zcl.Command {
	case zigbee.OnOffCmdOn:
		l.on = true
	case zigbee.OnOffCmdOff:
		l.on = false
	case zigbee.OnOffCmdToggle:
		l.on = !l.on
	}
	fmt.Fprintf(w, "lamp: NWK %#04x -> %#04x, ZCL cmd %#02x — lamp is now %s\n",
		nwk.SrcAddr, nwk.DestAddr, zcl.Command, state(l.on))
	return nil
}

func state(on bool) string {
	if on {
		return "ON"
	}
	return "off"
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	phy, err := wazabee.RZUSBStick().NewZigbeePHY(sps)
	if err != nil {
		return err
	}
	victim := &lamp{phy: phy}
	tx, err := wazabee.NewTransmitter(wazabee.NRF52832(), sps)
	if err != nil {
		return err
	}
	medium, err := radio.NewMedium(float64(sps)*ieee802154.ChipRate, 16)
	if err != nil {
		return err
	}
	freq, err := ieee802154.ChannelFrequencyMHz(channel)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "lamp starts %s\n", state(victim.on))
	for i, cmd := range []uint8{zigbee.OnOffCmdOn, zigbee.OnOffCmdToggle, zigbee.OnOffCmdToggle, zigbee.OnOffCmdOn} {
		payload, err := zigbee.BuildOnOffCommand(uint8(i+1), uint8(i+1), uint8(i+1), lampAddr, attacker, cmd)
		if err != nil {
			return err
		}
		frame := wazabee.NewDataFrame(uint8(i+1), pan, lampAddr, attacker, payload, false)
		psdu, err := frame.Encode()
		if err != nil {
			return err
		}
		sig, err := tx.ModulatePSDU(psdu)
		if err != nil {
			return err
		}
		capture, err := medium.Deliver(sig, freq, freq, radio.Link{SNRdB: 16, LeadSamples: 200, LagSamples: 100})
		if err != nil {
			return err
		}
		if err := victim.handle(w, capture); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "\nfull-stack Zigbee (MAC/NWK/APS/ZCL) spoken by a BLE radio")
	return nil
}
