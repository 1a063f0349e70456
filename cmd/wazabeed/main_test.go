package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wazabee/internal/capture"
	"wazabee/internal/obs"
	"wazabee/internal/zigbee"
)

// TestDaemonSmoke runs the daemon end-to-end: it starts, serves one
// TCP record subscriber and one ZEP/UDP subscriber, publishes the
// buffer pool gauges on /metrics, tees a non-empty pcap file, and shuts
// down cleanly on context cancellation.
func TestDaemonSmoke(t *testing.T) {
	dir := t.TempDir()
	cfg := config{
		seed:         7,
		sps:          8,
		snrDB:        25,
		interval:     20 * time.Millisecond,
		channel:      zigbee.DefaultChannel,
		periods:      0, // run until cancelled
		pcapPath:     filepath.Join(dir, "smoke.pcap"),
		pcapMaxBytes: 0,
		listenTCP:    "127.0.0.1:0",
		listenZEP:    "127.0.0.1:0",
		metricsAddr:  "127.0.0.1:0",
		deviceID:     0x5742,
		queueDepth:   64,
	}
	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.tcpAddr() == "" || d.zepAddr() == "" || d.metricsAddr() == "" {
		t.Fatalf("listeners not bound: tcp=%q zep=%q metrics=%q", d.tcpAddr(), d.zepAddr(), d.metricsAddr())
	}

	ctx, cancel := context.WithCancel(context.Background())
	var out bytes.Buffer
	runDone := make(chan error, 1)
	go func() { runDone <- d.run(ctx, &out) }()

	// TCP subscriber: read two framed records.
	conn, err := net.Dial("tcp", d.tcpAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var tcpFrames int
	for tcpFrames < 2 {
		rec, err := capture.ReadRecord(conn)
		if err != nil {
			t.Fatalf("tcp subscriber after %d records: %v", tcpFrames, err)
		}
		if rec.Channel != zigbee.DefaultChannel {
			t.Errorf("record on channel %d, want %d", rec.Channel, zigbee.DefaultChannel)
		}
		if len(rec.PSDU) > 0 {
			if rec.Decoder != "wazabee" {
				t.Errorf("decoded record tagged %q, want wazabee", rec.Decoder)
			}
			tcpFrames++
		}
	}

	// ZEP subscriber: one datagram subscribes, then frames arrive.
	zep, err := net.Dial("udp", d.zepAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer zep.Close()
	if _, err := zep.Write([]byte("subscribe")); err != nil {
		t.Fatal(err)
	}
	zep.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 2048)
	n, err := zep.Read(buf)
	if err != nil {
		t.Fatalf("zep subscriber: %v", err)
	}
	rec, deviceID, _, err := capture.DecodeZEP(buf[:n])
	if err != nil {
		t.Fatalf("zep datagram does not decode: %v", err)
	}
	if deviceID != 0x5742 {
		t.Errorf("zep device id %#x, want 0x5742", deviceID)
	}
	if rec.Channel != zigbee.DefaultChannel || len(rec.PSDU) == 0 {
		t.Errorf("zep record %+v lacks channel/frame", rec)
	}

	// The buffer pool gauges are published once periods have been
	// received.
	resp, err := http.Get("http://" + d.metricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"wazabee_stream_pool_hits_total", "wazabee_stream_pool_misses_total"} {
		if !strings.Contains(string(body), name) {
			t.Errorf("/metrics missing %s", name)
		}
	}

	// Clean shutdown.
	cancel()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("daemon exited with %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(out.String(), "periods published") {
		t.Errorf("missing shutdown summary in output:\n%s", out.String())
	}

	// The pcap tee is non-empty and well-formed.
	records, err := capture.OpenPCAP(cfg.pcapPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("pcap capture is empty")
	}
	for i, rec := range records {
		if len(rec.PSDU) == 0 {
			t.Errorf("pcap packet %d is empty", i)
		}
	}
}

// TestRunRejectsBadFlags: bad input makes run return an error before
// the daemon binds a listener, with nothing on stdout. Each case runs on
// top of a one-period, listener-free configuration, so input wrongly
// accepted ends the run instead of serving forever.
func TestRunRejectsBadFlags(t *testing.T) {
	// run points the process logger at its errOut; later tests' daemons
	// log from many goroutines, which a bytes.Buffer cannot take.
	t.Cleanup(func() { obs.DefaultLogger().SetSink(nil) })
	base := []string{"-listen", "", "-pcap", "", "-interval", "1ms", "-periods", "1"}
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-fidelity", "frame"},
		{"-snr", "NaN"},
		{"-snr", "-Inf"},
		{"-periods", "-1"},
		{"-zep-device", "70000"},
		{"-pcap-max-bytes", "-5"},
		{"-queue", "0"},
		{"-log-level", "loud"},
	} {
		var out, errOut bytes.Buffer
		if err := run(append(base, args...), &out, &errOut); err == nil {
			t.Errorf("run(%v) accepted invalid input", args)
		}
		if out.Len() > 0 {
			t.Errorf("run(%v) wrote to stdout:\n%s", args, out.String())
		}
	}
}

// TestDaemonDebugEndpoints boots the daemon with the metrics server on an
// ephemeral port and checks the link-quality and log endpoints serve the
// pipeline's diagnostics while it runs, and that the live scheduler is
// visible only as its heap gauges on /metrics.
func TestDaemonDebugEndpoints(t *testing.T) {
	cfg := config{
		seed:        7,
		sps:         8,
		snrDB:       25,
		interval:    10 * time.Millisecond,
		channel:     zigbee.DefaultChannel,
		periods:     0,
		listenTCP:   "127.0.0.1:0",
		listenZEP:   "127.0.0.1:0",
		metricsAddr: "127.0.0.1:0",
		deviceID:    0x5742,
		queueDepth:  64,
		logLevel:    "info",
	}
	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.metricsAddr() == "" {
		t.Fatal("metrics listener not bound")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out bytes.Buffer
	runDone := make(chan error, 1)
	go func() { runDone <- d.run(ctx, &out) }()

	// Wait for frames to flow so the aggregator has something to say.
	conn, err := net.Dial("tcp", d.tcpAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := capture.ReadRecord(conn); err != nil {
		t.Fatal(err)
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + d.metricsAddr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var linkPayload struct {
		Channels []struct {
			Channel int    `json:"channel"`
			Frames  uint64 `json:"frames"`
		} `json:"channels"`
	}
	if err := json.Unmarshal(get("/debug/link"), &linkPayload); err != nil {
		t.Fatalf("/debug/link not JSON: %v", err)
	}
	if len(linkPayload.Channels) != 1 || linkPayload.Channels[0].Channel != zigbee.DefaultChannel {
		t.Fatalf("/debug/link channels = %+v", linkPayload.Channels)
	}
	if linkPayload.Channels[0].Frames == 0 {
		t.Error("/debug/link reports zero frames after a record was published")
	}

	if !strings.Contains(string(get("/metrics")), `wazabee_sim_heap_executed{driver="live"}`) {
		t.Error("/metrics lacks the live driver's heap gauges")
	}
	if resp, err := http.Get("http://" + d.metricsAddr() + "/debug/sim"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /debug/sim: status %d, want 404", resp.StatusCode)
		}
	}

	var logPayload struct {
		Events []struct {
			Component string `json:"component"`
			Msg       string `json:"msg"`
		} `json:"events"`
	}
	if err := json.Unmarshal(get("/logz"), &logPayload); err != nil {
		t.Fatalf("/logz not JSON: %v", err)
	}
	if len(logPayload.Events) == 0 {
		t.Fatal("/logz returned no events from a running daemon")
	}
	seen := false
	for _, ev := range logPayload.Events {
		if ev.Component == "daemon" && strings.Contains(ev.Msg, "pipeline started") {
			seen = true
		}
	}
	if !seen {
		t.Errorf("/logz missing the daemon startup event: %+v", logPayload.Events)
	}

	cancel()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("daemon exited with %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(out.String(), "link quality by channel") {
		t.Errorf("missing link-quality summary in shutdown output:\n%s", out.String())
	}
}
