// wazabeed is the long-running sniffer daemon: it runs the live victim
// network next to a WazaBee receiver (a diverted BLE chip), tees every
// decoded 802.15.4 frame into a rotating pcap file, and serves the
// capture stream to any number of concurrent subscribers — over TCP as
// length-prefixed records and over UDP as ZEP v2 datagrams — while
// exposing the process's /metrics and pprof handlers.
//
//	wazabeed -listen :7754 -zep-listen :17754 -pcap wazabee.pcap -metrics-addr :9090
//
// TCP subscribers connect and read framed capture.Record values; ZEP
// subscribers send any datagram to the UDP port to subscribe and then
// receive one ZEP v2 packet per captured frame (Wireshark dissects
// them natively: udp.port == 17754).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"wazabee"
	"wazabee/internal/capture"
	"wazabee/internal/dsp/stream"
	"wazabee/internal/obs"
	"wazabee/internal/obs/link"
	"wazabee/internal/radio"
	"wazabee/internal/zigbee"
)

type config struct {
	seed         int64
	sps          int
	snrDB        float64
	interval     time.Duration
	channel      int
	periods      int // 0 = run until the context is cancelled
	pcapPath     string
	pcapMaxBytes int64
	listenTCP    string
	listenZEP    string
	metricsAddr  string
	healthAddr   string
	deviceID     uint
	queueDepth   int
	logLevel     string
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		os.Exit(1)
	}
}

// run parses flags, builds the daemon and drives it to completion. It
// returns errors instead of calling log.Fatal so every deferred
// shutdown (signal handler, listeners, pcap flush) runs on the way out.
func run(args []string, out, errOut io.Writer) error {
	cfg := config{}
	fs := flag.NewFlagSet("wazabeed", flag.ContinueOnError)
	fs.SetOutput(errOut)
	registerFlags(fs, &cfg)
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger := obs.DefaultLogger()
	logger.SetSink(errOut)
	lv, err := obs.ParseLevel(cfg.logLevel)
	if err != nil {
		logger.Error("daemon", "bad -log-level", "err", err.Error())
		return err
	}
	logger.SetLevel(lv)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	d, err := newDaemon(cfg)
	if err != nil {
		logger.Error("daemon", "startup failed", "err", err.Error())
		return err
	}
	if err := d.run(ctx, out); err != nil {
		logger.Error("daemon", "pipeline failed", "err", err.Error())
		return err
	}
	return nil
}

func registerFlags(flag *flag.FlagSet, cfg *config) {
	flag.Int64Var(&cfg.seed, "seed", 7, "victim network simulation seed")
	flag.IntVar(&cfg.sps, "sps", 8, "baseband samples per chip")
	flag.Float64Var(&cfg.snrDB, "snr", 22, "attacker link SNR in dB")
	flag.DurationVar(&cfg.interval, "interval", 250*time.Millisecond, "sensor reporting interval")
	flag.IntVar(&cfg.channel, "channel", zigbee.DefaultChannel, "802.15.4 channel to sniff")
	flag.IntVar(&cfg.periods, "periods", 0, "stop after this many reporting periods (0 = run until interrupted)")
	flag.StringVar(&cfg.pcapPath, "pcap", "wazabee.pcap", "rotating pcap output path (empty disables)")
	flag.Int64Var(&cfg.pcapMaxBytes, "pcap-max-bytes", 16<<20, "rotate the pcap file beyond this size (0 = never)")
	flag.StringVar(&cfg.listenTCP, "listen", ":7754", "serve length-prefixed records to TCP subscribers here (empty disables)")
	flag.StringVar(&cfg.listenZEP, "zep-listen", "", "serve ZEP v2 datagrams to UDP subscribers here, e.g. :17754 (empty disables)")
	flag.StringVar(&cfg.metricsAddr, "metrics-addr", "", "serve /metrics, /healthz, /readyz, /debug/flight and net/http/pprof on this address (empty disables)")
	flag.StringVar(&cfg.healthAddr, "health-addr", "", "additionally serve only /healthz, /readyz and /debug/flight on this dedicated address, for probes that must not reach pprof (empty disables; the endpoints stay on -metrics-addr either way)")
	flag.UintVar(&cfg.deviceID, "zep-device", 0x5742, "ZEP device id stamped on outgoing datagrams")
	flag.IntVar(&cfg.queueDepth, "queue", 256, "per-subscriber bounded queue depth")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "structured log threshold: debug, info, warn or error")
}

// daemon owns the sniffer pipeline and its listeners. Listeners bind in
// newDaemon so tests (and operators using port 0) can learn the chosen
// addresses before the pipeline starts.
type daemon struct {
	cfg    config
	hub    *capture.Hub
	log    *obs.Logger
	link   *link.Aggregator
	health *obs.Health
	flight *obs.Flight

	// probeEvery is the background health re-evaluation period; the
	// endpoints themselves probe on every request regardless. Tests
	// shorten it.
	probeEvery time.Duration

	tcpLn     net.Listener
	zepPC     net.PacketConn
	metricsLn net.Listener
	healthLn  net.Listener
	pcap      *capture.RotatingPCAP
}

func newDaemon(cfg config) (*daemon, error) {
	if cfg.queueDepth < 1 {
		return nil, fmt.Errorf("wazabeed: queue depth %d < 1", cfg.queueDepth)
	}
	if err := (radio.Link{SNRdB: cfg.snrDB}).Validate(); err != nil {
		return nil, fmt.Errorf("wazabeed: -snr: %w", err)
	}
	if cfg.periods < 0 {
		return nil, fmt.Errorf("wazabeed: -periods %d < 0", cfg.periods)
	}
	if cfg.deviceID > 0xFFFF {
		return nil, fmt.Errorf("wazabeed: -zep-device %d does not fit ZEP's 16-bit field", cfg.deviceID)
	}
	if cfg.pcapMaxBytes < 0 {
		return nil, fmt.Errorf("wazabeed: -pcap-max-bytes %d < 0", cfg.pcapMaxBytes)
	}
	d := &daemon{
		cfg:        cfg,
		hub:        capture.NewHub(nil),
		log:        obs.DefaultLogger(),
		link:       link.NewAggregator(nil),
		health:     obs.NewHealth(nil),
		flight:     obs.DefaultFlight(),
		probeEvery: time.Second,
	}
	d.hub.Log = d.log
	d.hub.Flight = d.flight
	if cfg.listenTCP != "" {
		ln, err := net.Listen("tcp", cfg.listenTCP)
		if err != nil {
			return nil, fmt.Errorf("wazabeed: tcp listener: %w", err)
		}
		d.tcpLn = ln
	}
	if cfg.listenZEP != "" {
		pc, err := net.ListenPacket("udp", cfg.listenZEP)
		if err != nil {
			return nil, fmt.Errorf("wazabeed: zep listener: %w", err)
		}
		d.zepPC = pc
	}
	if cfg.metricsAddr != "" {
		ln, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			return nil, fmt.Errorf("wazabeed: metrics listener: %w", err)
		}
		d.metricsLn = ln
	}
	if cfg.healthAddr != "" {
		ln, err := net.Listen("tcp", cfg.healthAddr)
		if err != nil {
			return nil, fmt.Errorf("wazabeed: health listener: %w", err)
		}
		d.healthLn = ln
	}
	if cfg.pcapPath != "" {
		pcap, err := capture.OpenRotatingPCAP(cfg.pcapPath, cfg.pcapMaxBytes, nil)
		if err != nil {
			return nil, fmt.Errorf("wazabeed: pcap: %w", err)
		}
		d.pcap = pcap
	}
	return d, nil
}

// tcpAddr returns the bound TCP address, or "" when disabled.
func (d *daemon) tcpAddr() string {
	if d.tcpLn == nil {
		return ""
	}
	return d.tcpLn.Addr().String()
}

// zepAddr returns the bound ZEP/UDP address, or "" when disabled.
func (d *daemon) zepAddr() string {
	if d.zepPC == nil {
		return ""
	}
	return d.zepPC.LocalAddr().String()
}

// metricsAddr returns the bound metrics/debug address, or "" when
// disabled.
func (d *daemon) metricsAddr() string {
	if d.metricsLn == nil {
		return ""
	}
	return d.metricsLn.Addr().String()
}

// healthAddr returns the bound dedicated health address, or "" when
// disabled.
func (d *daemon) healthAddr() string {
	if d.healthLn == nil {
		return ""
	}
	return d.healthLn.Addr().String()
}

// healthMux routes the probe-safe endpoint set: health, readiness and
// the flight recorder, with nothing that can block or leak (no pprof,
// no log tail).
func (d *daemon) healthMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/healthz", d.health.Healthz())
	mux.Handle("/readyz", d.health.Readyz())
	mux.Handle("/debug/flight", d.flight)
	return mux
}

func (d *daemon) run(ctx context.Context, out io.Writer) error {
	cfg := d.cfg
	network, err := wazabee.NewVictimNetwork(cfg.seed, cfg.sps, cfg.snrDB)
	if err != nil {
		return err
	}
	live, err := wazabee.StartLiveNetwork(network, cfg.interval, cfg.channel)
	if err != nil {
		return err
	}
	defer live.Shutdown()

	rx, err := wazabee.NewReceiver(wazabee.CC1352R1(), cfg.sps)
	if err != nil {
		return err
	}

	// Observability: build-info and uptime gauges, the runtime sampler,
	// the health registry with one component per moving part, and a
	// SIGQUIT handler that dumps the flight recorder without stopping
	// the daemon (the classic "what just happened" escape hatch).
	obs.RegisterBuildInfo(nil)
	obs.StartRuntimeSampler(ctx, nil, 0)
	d.health.Register("live", true, live.Err)
	d.health.Register("hub", true, nil).SetOK()
	hcPipeline := d.health.Register("rxstream", true, nil)
	hcPipeline.SetOK()
	go d.health.Run(ctx, d.probeEvery)

	sigq := make(chan os.Signal, 1)
	signal.Notify(sigq, syscall.SIGQUIT)
	defer signal.Stop(sigq)
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-sigq:
				fmt.Fprintln(out, "wazabeed: SIGQUIT — flight recorder dump:")
				d.flight.Dump(out)
			}
		}
	}()

	var consumers sync.WaitGroup

	// Consumer: the rotating pcap tee. A write error degrades the pcap
	// health component and is surfaced as a warn event, but the tee keeps
	// consuming: one full disk must not silently end the capture trail
	// for every later record that would have fit after rotation.
	if d.pcap != nil {
		hcPcap := d.health.Register("pcap", false, nil)
		hcPcap.SetOK()
		sub, err := d.hub.Subscribe("pcap", cfg.queueDepth)
		if err != nil {
			return err
		}
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			for {
				rec, ok := sub.Recv()
				if !ok {
					return
				}
				if err := d.pcap.WriteRecord(rec); err != nil {
					d.log.Warn("pcap", "write failed",
						"path", cfg.pcapPath, "seq", rec.Seq, "err", err.Error())
					hcPcap.SetDegraded(fmt.Sprintf("write %s: %v", cfg.pcapPath, err))
					d.flight.Record(obs.FlightEvent{
						Kind: "error", Component: "pcap", Frame: int64(rec.Seq),
						Detail: err.Error(),
					})
					continue
				}
				hcPcap.SetOK()
			}
		}()
		defer d.pcap.Close()
	}

	// Consumers: one per accepted TCP connection.
	if d.tcpLn != nil {
		hcTCP := d.health.Register("tcp", true, nil)
		hcTCP.SetOK()
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			d.serveTCP(hcTCP)
		}()
		defer d.tcpLn.Close()
		fmt.Fprintf(out, "wazabeed: serving records on tcp %s\n", d.tcpAddr())
	}

	// Consumer: the ZEP/UDP fan-out.
	if d.zepPC != nil {
		hcZEP := d.health.Register("zep", true, nil)
		hcZEP.SetOK()
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			d.serveZEP(hcZEP)
		}()
		defer d.zepPC.Close()
		fmt.Fprintf(out, "wazabeed: serving ZEP v2 on udp %s\n", d.zepAddr())
	}

	if d.metricsLn != nil {
		mux := d.healthMux()
		mux.Handle("/metrics", obs.Default())
		mux.Handle("/debug/link", d.link)
		mux.Handle("/logz", d.log)
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		srv := &http.Server{Handler: mux}
		go func() {
			if err := srv.Serve(d.metricsLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				d.log.Error("daemon", "metrics server failed", "err", err.Error())
			}
		}()
		defer srv.Close()
		fmt.Fprintf(out, "wazabeed: serving /metrics, /healthz, /readyz, /debug/flight, /debug/link, /logz and /debug/pprof on %s\n", d.metricsAddr())
	}

	if d.healthLn != nil {
		srv := &http.Server{Handler: d.healthMux()}
		go func() {
			if err := srv.Serve(d.healthLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				d.log.Error("daemon", "health server failed", "err", err.Error())
			}
		}()
		defer srv.Close()
		fmt.Fprintf(out, "wazabeed: serving /healthz, /readyz and /debug/flight on %s\n", d.healthAddr())
	}

	// Producer: decode live periods and publish them to the hub until
	// the period budget, a stream end, or a signal stops the daemon.
	d.log.Info("daemon", "pipeline started",
		"channel", cfg.channel, "snr_db", cfg.snrDB, "interval", cfg.interval.String())
	published, decoded := 0, 0
	reg := obs.Default()
	pool := stream.Shared()
	var streamErr error
producer:
	for cfg.periods == 0 || published < cfg.periods {
		select {
		case <-ctx.Done():
			break producer
		case c, ok := <-live.Captures():
			if !ok {
				if streamErr = live.Err(); streamErr != nil {
					hcPipeline.SetDown(streamErr.Error())
					d.flight.Record(obs.FlightEvent{
						Kind: "error", Component: "live", Frame: -1, Detail: streamErr.Error(),
					})
					fmt.Fprintln(out, "wazabeed: capture stream ended:", streamErr)
				}
				break producer
			}
			dem, st, err := rx.ReceiveStatsAt(c.At, c.IQ)
			if err != nil {
				dem = nil
			} else {
				decoded++
			}
			d.link.Observe(c.Channel, st)
			d.log.Debug("daemon", "period received",
				"seq", c.Seq, "result", st.Result(), "lqi", st.LQI,
				"snr_db", st.SNRdB, "cfo_hz", st.CFOHz)
			d.flight.Record(obs.FlightEvent{
				Kind: "frame", Component: "rx", Frame: int64(c.Seq), Detail: st.Result(),
				Latency: time.Since(c.At),
			})
			rec := capture.NewStatsRecord(c.At, c.Channel, c.Seq, c.IQ, dem, st, c.LinkSNRdB)
			rec.Origin = c.At
			d.hub.Publish(rec)
			published++
			reg.Gauge("wazabee_capture_daemon_periods").Set(float64(published))
			ps := pool.Stats()
			reg.Gauge("wazabee_stream_pool_hits_total").Set(float64(ps.Hits))
			reg.Gauge("wazabee_stream_pool_misses_total").Set(float64(ps.Misses))
		}
	}

	// Shut down: snapshot the subscriber accounting while the subs are
	// still registered, end the stream, let subscribers drain, close
	// listeners so their accept/read loops unblock.
	subSnaps := d.hub.Snapshot()
	d.hub.Close()
	if d.tcpLn != nil {
		d.tcpLn.Close()
	}
	if d.zepPC != nil {
		d.zepPC.Close()
	}
	consumers.Wait()

	d.log.Info("daemon", "pipeline stopped", "published", published, "decoded", decoded)
	fmt.Fprintf(out, "wazabeed: %d periods published, %d frames decoded\n", published, decoded)
	if table := d.link.Table(); table != "" {
		fmt.Fprintf(out, "wazabeed: link quality by channel:\n%s", table)
	}
	if len(subSnaps) > 0 {
		fmt.Fprintf(out, "wazabeed: subscribers:\n")
		fmt.Fprintf(out, "  %-24s %9s %9s %7s %9s\n", "subscriber", "offered", "delivered", "dropped", "max queue")
		for _, s := range subSnaps {
			fmt.Fprintf(out, "  %-24s %9d %9d %7d %9d\n",
				s.Name, s.Offered, s.Delivered, s.Dropped, s.MaxQueueDepth)
		}
	}
	fmt.Fprintf(out, "wazabeed: flight recorder: %d events (%s)\n",
		d.flight.Recorded(), d.flight.Summary())
	if d.pcap != nil {
		fmt.Fprintf(out, "wazabeed: pcap capture at %s (%d packets) — open with: wireshark %s\n",
			cfg.pcapPath, d.pcap.Packets(), cfg.pcapPath)
	}
	return streamErr
}

// serveTCP accepts subscribers and streams them length-prefixed
// records; each connection gets its own bounded hub subscription, so a
// stalled client only drops its own records. The health component goes
// Down the moment the accept loop exits — before draining the live
// connections, whose subscribers may legitimately stay connected for a
// long tail — so readiness flips as soon as new subscribers are refused.
func (d *daemon) serveTCP(hc *obs.HealthComponent) {
	var conns sync.WaitGroup
	defer conns.Wait()
	for {
		conn, err := d.tcpLn.Accept()
		if err != nil {
			hc.SetDown("accept loop exited: " + err.Error())
			return // listener closed on shutdown
		}
		name := "tcp:" + conn.RemoteAddr().String()
		sub, err := d.hub.Subscribe(name, d.cfg.queueDepth)
		if err != nil {
			conn.Close()
			return // hub closed
		}
		conns.Add(1)
		go func() {
			defer conns.Done()
			defer conn.Close()
			defer sub.Close()
			for {
				rec, ok := sub.Recv()
				if !ok {
					return
				}
				if err := capture.WriteRecord(conn, rec); err != nil {
					return // subscriber went away
				}
			}
		}()
	}
}

// serveZEP tracks UDP subscribers (any inbound datagram subscribes its
// source address) and pushes each captured frame as one ZEP v2 packet.
// The health component goes Down when the registration socket dies —
// existing collectors keep receiving, but new ones can no longer join.
func (d *daemon) serveZEP(hc *obs.HealthComponent) {
	reg := obs.Default()
	var mu sync.Mutex
	peers := make(map[string]net.Addr)

	// Registration loop: one datagram from a collector subscribes it.
	go func() {
		buf := make([]byte, 64)
		for {
			_, addr, err := d.zepPC.ReadFrom(buf)
			if err != nil {
				hc.SetDown("registration socket closed: " + err.Error())
				return // socket closed on shutdown
			}
			mu.Lock()
			peers[addr.String()] = addr
			reg.Gauge("wazabee_capture_zep_subscribers").Set(float64(len(peers)))
			mu.Unlock()
		}
	}()

	sub, err := d.hub.Subscribe("zep", d.cfg.queueDepth)
	if err != nil {
		return
	}
	for {
		rec, ok := sub.Recv()
		if !ok {
			return
		}
		if len(rec.PSDU) == 0 {
			continue
		}
		// The datagram reuses the record's own stream sequence number, so
		// collectors see the same numbering (and gaps) as the capture loop.
		datagram, err := capture.EncodeZEPRecord(rec, uint16(d.cfg.deviceID))
		if err != nil {
			continue
		}
		mu.Lock()
		for key, addr := range peers {
			if _, err := d.zepPC.WriteTo(datagram, addr); err != nil {
				delete(peers, key)
				continue
			}
			reg.Counter("wazabee_capture_zep_datagrams_total").Inc()
		}
		reg.Gauge("wazabee_capture_zep_subscribers").Set(float64(len(peers)))
		mu.Unlock()
	}
}
