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

// TestRunWritesEventLines runs one listener-free period at two
// thresholds: at -log-level info stderr carries the daemon's start as
// an info-level JSON line, and at -log-level warn it carries no info
// line at all.
func TestRunWritesEventLines(t *testing.T) {
	base := []string{"-listen", "", "-pcap", "", "-interval", "1ms", "-periods", "1"}
	for _, tc := range []struct {
		level       string
		wantStarted bool
	}{
		{"info", true},
		{"warn", false},
	} {
		var out, errOut bytes.Buffer
		if err := run(append(base, "-log-level", tc.level), &out, &errOut); err != nil {
			t.Fatalf("-log-level %s: %v\nstderr:\n%s", tc.level, err, errOut.String())
		}
		started := false
		for _, line := range strings.Split(strings.TrimSpace(errOut.String()), "\n") {
			if line == "" {
				continue
			}
			var ev struct {
				Level string `json:"level"`
			}
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("-log-level %s: stderr line is not JSON: %v: %q", tc.level, err, line)
			}
			if tc.level == "warn" && ev.Level == "info" {
				t.Errorf("-log-level warn wrote an info line: %s", line)
			}
			if ev.Level == "info" && strings.Contains(line, "pipeline started") {
				started = true
			}
		}
		if started != tc.wantStarted {
			t.Errorf("-log-level %s: info line naming \"pipeline started\" present = %v, want %v\nstderr:\n%s",
				tc.level, started, tc.wantStarted, errOut.String())
		}
	}
}

// TestDaemonDebugEndpoints boots the daemon with the metrics server on an
// ephemeral port and checks the link-quality and flight-recorder
// endpoints serve the pipeline's diagnostics while it runs, that
// /metrics counts the published periods and holds no series of the live
// network, and that neither /debug/sim nor /logz is served.
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
	start := time.Now()
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

	// The daemon sets the periods gauge after publishing each record and
	// before publishing the next, so it exists once a second record has
	// arrived. The live network publishes no series of its own.
	if _, err := capture.ReadRecord(conn); err != nil {
		t.Fatal(err)
	}
	metrics := string(get("/metrics"))
	if !strings.Contains(metrics, "wazabee_capture_daemon_periods") {
		t.Error("/metrics lacks wazabee_capture_daemon_periods")
	}
	if strings.Contains(metrics, `driver="live"`) {
		t.Error(`/metrics holds a driver="live" series`)
	}
	for _, path := range []string{"/debug/sim", "/logz"} {
		resp, err := http.Get("http://" + d.metricsAddr() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}

	var flightPayload struct {
		Events []obs.FlightEvent `json:"events"`
	}
	if err := json.Unmarshal(get("/debug/flight?level=info&component=daemon"), &flightPayload); err != nil {
		t.Fatalf("/debug/flight not JSON: %v", err)
	}
	seen := false
	for _, ev := range flightPayload.Events {
		if ev.Level < obs.LevelInfo || ev.Component != "daemon" {
			t.Errorf("/debug/flight?level=info&component=daemon returned %+v", ev)
		}
		// The process recorder also holds earlier tests' daemons.
		if ev.Detail == "pipeline started" && !ev.At.Before(start) {
			seen = true
		}
	}
	if !seen {
		t.Errorf("/debug/flight missing the daemon startup event: %+v", flightPayload.Events)
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
