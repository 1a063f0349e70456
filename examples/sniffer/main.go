// Cross-protocol sniffer: the WazaBee reception primitive used
// standalone. A BLE chip, configured with the MSK access address and CRC
// checking disabled, passively logs 802.15.4 traffic streamed by the
// live victim network — the covert monitoring use case the paper's
// introduction warns about (exfiltration through a protocol "not
// supposed to be monitored").
//
// Every decoded period is published through a capture.Hub, so the
// console logger is just one subscriber among equals: -o tees the
// stream to a Wireshark-ready pcap file (link type 195) and -zep
// forwards each frame as a ZEP v2 datagram to a UDP collector.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"wazabee"
	"wazabee/internal/bitstream"
	"wazabee/internal/capture"
	"wazabee/internal/ieee802154"
	"wazabee/internal/zigbee"
)

const (
	sps   = 8
	snrDB = 22
	// interval compresses the paper's two-second reporting period so
	// the demo finishes quickly.
	interval = 50 * time.Millisecond
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run parses args and sniffs the live network, writing the console
// log to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("sniffer", flag.ContinueOnError)
	pcapPath := fs.String("o", "", "tee decoded frames to this pcap file (Wireshark link type 195)")
	zepTarget := fs.String("zep", "", "stream decoded frames as ZEP v2 datagrams to this UDP host:port")
	periods := fs.Int("periods", 8, "sensor reporting periods to sniff")
	if err := fs.Parse(args); err != nil {
		return err
	}

	network, err := wazabee.NewVictimNetwork(7, sps, snrDB)
	if err != nil {
		return err
	}
	live, err := wazabee.StartLiveNetwork(network, interval, zigbee.DefaultChannel)
	if err != nil {
		return err
	}
	defer live.Shutdown()

	rx, err := wazabee.NewReceiver(wazabee.CC1352R1(), sps)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sniffing Zigbee channel %d live with a diverted BLE chip (AA %#08x, CRC off)\n\n",
		zigbee.DefaultChannel, wazabee.AccessAddress())

	hub := capture.NewHub(nil)
	var consumers sync.WaitGroup
	captured := 0

	// Consumer 1: the console logger.
	logSub, err := hub.Subscribe("logger", 16)
	if err != nil {
		return err
	}
	consumers.Add(1)
	go func() {
		defer consumers.Done()
		period := 0
		for {
			rec, ok := logSub.Recv()
			if !ok {
				return
			}
			logRecord(w, period, rec)
			period++
		}
	}()

	// Consumer 2 (optional): the pcap file.
	if *pcapPath != "" {
		pcap, err := capture.OpenRotatingPCAP(*pcapPath, 0, nil)
		if err != nil {
			return err
		}
		sub, err := hub.Subscribe("pcap", 64)
		if err != nil {
			return err
		}
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			for {
				rec, ok := sub.Recv()
				if !ok {
					break
				}
				if err := pcap.WriteRecord(rec); err != nil {
					fmt.Fprintln(os.Stderr, "sniffer: pcap:", err)
					break
				}
			}
			if err := pcap.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "sniffer: pcap close:", err)
			}
		}()
	}

	// Consumer 3 (optional): the ZEP/UDP forwarder.
	if *zepTarget != "" {
		conn, err := net.Dial("udp", *zepTarget)
		if err != nil {
			return fmt.Errorf("zep target: %w", err)
		}
		sub, err := hub.Subscribe("zep", 64)
		if err != nil {
			return err
		}
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			defer conn.Close()
			var seq uint32
			for {
				rec, ok := sub.Recv()
				if !ok {
					return
				}
				if len(rec.PSDU) == 0 {
					continue
				}
				datagram, err := capture.EncodeZEP(rec, 0x5742, seq)
				if err != nil {
					continue
				}
				seq++
				if _, err := conn.Write(datagram); err != nil {
					fmt.Fprintln(os.Stderr, "sniffer: zep:", err)
					return
				}
			}
		}()
	}

	// Producer: decode each live period and publish it to every
	// subscriber. A closed capture stream ends the run gracefully — we
	// keep whatever was captured so far and surface the cause.
	var streamErr error
	for i := 0; i < *periods; i++ {
		c, ok := <-live.Captures()
		if !ok {
			streamErr = live.Err()
			break
		}
		dem, st, err := rx.ReceiveStats(c.IQ)
		if err != nil {
			dem = nil
		}
		rec := capture.NewStatsRecord(c.At, c.Channel, c.Seq, c.IQ, dem, st, snrDB)
		if dem != nil {
			captured++
		}
		hub.Publish(rec)
	}
	hub.Close()
	consumers.Wait()

	fmt.Fprintf(w, "\ncaptured %d/%d sensor reports without owning any 802.15.4 hardware\n", captured, *periods)
	if streamErr != nil {
		fmt.Fprintf(os.Stderr, "sniffer: capture stream ended early: %v\n", streamErr)
	}
	if *pcapPath != "" {
		fmt.Fprintf(w, "pcap capture written to %s (open with: wireshark %s)\n", *pcapPath, *pcapPath)
	}
	return nil
}

func logRecord(w io.Writer, period int, rec capture.Record) {
	if len(rec.PSDU) == 0 {
		fmt.Fprintf(w, "period %d: no frame (RSSI %.1f dB)\n", period, rec.RSSIdBm)
		return
	}
	frame, err := ieee802154.ParseMACFrame(rec.PSDU)
	if err != nil {
		fmt.Fprintf(w, "period %d: undecodable PSDU %x\n", period, rec.PSDU)
		return
	}
	value := "-"
	if v, err := zigbee.ParseSensorPayload(frame.Payload); err == nil {
		value = fmt.Sprintf("%d", v)
	}
	fmt.Fprintf(w, "period %d: %v seq=%3d PAN=%#04x %#04x->%#04x value=%s LQI=%d FCS=%v\n",
		period, frame.Type, frame.Seq, frame.DestPAN, frame.SrcAddr, frame.DestAddr,
		value, rec.LQI, bitstream.CheckFCS(rec.PSDU))
}
