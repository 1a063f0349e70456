// Watchdog: the section VII counter-measure in action. A radio monitor
// inspects channel 14 while the victim network operates normally, then
// while each attack of the paper runs. Legitimate traffic stays clean;
// the scenario A injection is caught by both its BLE framing and its
// GFSK modulation fingerprint; the scenario B spoofing is caught by the
// fingerprint alone.
//
// The final section runs the monitor as a streaming consumer: one live
// sniffer producer publishes into a capture.Hub and two subscribers — a
// frame logger and the IDS — consume the same stream concurrently.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"wazabee"
	"wazabee/internal/capture"
	"wazabee/internal/ids"
	"wazabee/internal/ieee802154"
	"wazabee/internal/zigbee"
)

const sps = 8

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// report writes one verdict block (the frame line, then one line per
// alert) to w in a single Write, so concurrent reporters never split a
// block.
func report(w io.Writer, label string, v *ids.Verdict) {
	status := "clean"
	if v.Suspicious() {
		status = "ALERT"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s frame=%v EVM=%.2f -> %s\n", label, v.FrameSeen, v.SoftEVM, status)
	for _, a := range v.Alerts {
		fmt.Fprintf(&b, "    [%v] %s\n", a.Kind, a.Detail())
	}
	io.WriteString(w, b.String())
}

// lockedWriter serialises the streaming consumers' writes.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func run(w io.Writer) error {
	monitor, err := ids.NewMonitor(sps)
	if err != nil {
		return err
	}
	network, err := wazabee.NewVictimNetwork(99, sps, 25)
	if err != nil {
		return err
	}

	// 1. Routine sensor traffic.
	capture, err := network.Capture(zigbee.DefaultChannel)
	if err != nil {
		return err
	}
	v, err := monitor.Inspect(capture)
	if err != nil {
		return err
	}
	report(w, "legitimate sensor reading", v)

	// 2. Scenario A: smartphone injection through extended advertising.
	phone, err := wazabee.NewSmartphone(sps)
	if err != nil {
		return err
	}
	frame := wazabee.NewDataFrame(9, zigbee.DefaultPAN, zigbee.DefaultCoordinator,
		zigbee.DefaultSensor, zigbee.SensorPayload(6666), false)
	psdu, err := frame.Encode()
	if err != nil {
		return err
	}
	ppdu, err := ieee802154.NewPPDU(psdu)
	if err != nil {
		return err
	}
	for event := uint16(0); ; event++ {
		if event > 1000 {
			return fmt.Errorf("CSA#2 never hit channel 8")
		}
		sig, bleChannel, err := phone.AdvertiseOnce(event, ppdu)
		if err != nil {
			return err
		}
		if bleChannel != 8 { // 2420 MHz = channel 14
			continue
		}
		padded, err := sig.Pad(150, 100)
		if err != nil {
			return err
		}
		v, err = monitor.Inspect(padded)
		if err != nil {
			return err
		}
		report(w, "scenario A advertising injection", v)
		break
	}

	// 3. Scenario B: spoofed reading from a diverted BLE tracker.
	tx, err := wazabee.NewTransmitter(wazabee.NRF51822(), sps)
	if err != nil {
		return err
	}
	atkSig, err := tx.ModulatePSDU(psdu)
	if err != nil {
		return err
	}
	padded, err := atkSig.Pad(150, 100)
	if err != nil {
		return err
	}
	v, err = monitor.Inspect(padded)
	if err != nil {
		return err
	}
	report(w, "scenario B tracker spoofing", v)

	// 4. Band policy: the same legitimate frame on a channel where no
	// network is deployed.
	monitor.ChannelExpected = false
	capture2, err := network.Capture(zigbee.DefaultChannel)
	if err != nil {
		return err
	}
	v, err = monitor.Inspect(capture2)
	if err != nil {
		return err
	}
	report(w, "traffic on a forbidden channel", v)

	// 5. Streaming monitoring: the same IDS as a hub subscriber, next
	// to a frame logger, both fed by one live sniffer producer.
	monitor.ChannelExpected = true
	return streamingDemo(w, monitor)
}

// streamingDemo publishes a few live capture periods through a
// capture.Hub and lets two concurrent consumers — a frame logger and
// the IDS — process the identical stream, the deployment shape a real
// monitoring post would use (record once, analyse many ways).
func streamingDemo(out io.Writer, monitor *ids.Monitor) error {
	fmt.Fprintln(out, "\n--- streaming: one sniffer producer, logger + IDS consumers ---")
	w := &lockedWriter{w: out}
	network, err := wazabee.NewVictimNetwork(123, sps, 25)
	if err != nil {
		return err
	}
	live, err := wazabee.StartLiveNetwork(network, 20*time.Millisecond, zigbee.DefaultChannel)
	if err != nil {
		return err
	}
	defer live.Shutdown()
	rx, err := wazabee.NewReceiver(wazabee.CC1352R1(), sps)
	if err != nil {
		return err
	}

	hub := capture.NewHub(nil)
	var consumers sync.WaitGroup

	logSub, err := hub.Subscribe("logger", 8)
	if err != nil {
		return err
	}
	consumers.Add(1)
	go func() {
		defer consumers.Done()
		for {
			rec, ok := logSub.Recv()
			if !ok {
				return
			}
			if frame, err := ieee802154.ParseMACFrame(rec.PSDU); err == nil {
				fmt.Fprintf(w, "logger: seq=%3d %#04x->%#04x LQI=%d\n",
					frame.Seq, frame.SrcAddr, frame.DestAddr, rec.LQI)
			} else {
				fmt.Fprintf(w, "logger: period with no decodable frame (RSSI %.1f dB)\n", rec.RSSIdBm)
			}
		}
	}()

	idsSub, err := hub.Subscribe("ids", 8)
	if err != nil {
		return err
	}
	consumers.Add(1)
	go func() {
		defer consumers.Done()
		for {
			rec, ok := idsSub.Recv()
			if !ok {
				return
			}
			// The IDS works below the frame level, on the waveform the
			// record carries in memory.
			verdict, err := monitor.Inspect(rec.IQ)
			if err != nil {
				fmt.Fprintln(w, "ids: inspect:", err)
				continue
			}
			report(w, fmt.Sprintf("ids: live period (ch %d)", rec.Channel), verdict)
		}
	}()

	for i := 0; i < 3; i++ {
		c, ok := <-live.Captures()
		if !ok {
			fmt.Fprintf(w, "watchdog: capture stream ended early: %v\n", live.Err())
			break
		}
		dem, st, err := rx.ReceiveStats(c.IQ)
		if err != nil {
			dem = nil
		}
		hub.Publish(capture.NewStatsRecord(c.At, c.Channel, c.Seq, c.IQ, dem, st, 25))
	}
	hub.Close()
	consumers.Wait()
	return nil
}
