// Command table3 regenerates Table III of the paper: the assessment of
// the WazaBee reception and transmission primitives, 100 frames per
// Zigbee channel, on the nRF52832 and CC1352-R1 models, under WiFi
// interference on channels 6 and 11. It prints the measured rows next to
// the published ones.
//
// With -metrics the run's full telemetry is printed afterwards: the
// per-channel classification counters, the pipeline's sync/CRC failure
// counters and chip-distance histograms, per-stage timing histograms,
// and a span trace of one instrumented TX→medium→RX round trip. With
// -metrics-addr the same registry is additionally served at /metrics
// (Prometheus text; ?format=json for the JSON snapshot) next to
// net/http/pprof, and the process stays alive for scraping.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"

	"wazabee/internal/chip"
	"wazabee/internal/experiment"
	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/radio"
	"wazabee/internal/zigbee"
)

func main() {
	obs.RegisterBuildInfo(nil)
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "table3:", err)
		os.Exit(1)
	}
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("table3", flag.ContinueOnError)
	fs.SetOutput(errOut)
	frames := fs.Int("frames", 100, "frames per channel")
	seed := fs.Int64("seed", 1, "random seed")
	side := fs.String("side", "both", "primitive to assess: rx, tx or both")
	wifi := fs.Bool("wifi", true, "enable WiFi interference on channels 6 and 11")
	workers := fs.Int("workers", 0, "Monte-Carlo worker pool size; 0 = GOMAXPROCS (results are identical at any value)")
	checkpoint := fs.String("checkpoint", "", "checkpoint file prefix; each chip/side run persists completed shards to <prefix>.<chip>.<side>.json and resumes from it (Ctrl-C is a clean interruption)")
	ciHalf := fs.Float64("ci", 0, "adaptive stop: end each channel once the 95% CI half-width of its valid rate reaches this target; 0 = fixed frame count")
	fidelity := fs.String("fidelity", "iq", "frame-delivery tier: iq (full DSP ground truth), symbol (calibrated per-symbol draws) or frame (closed-form erasures)")
	metrics := fs.Bool("metrics", false, "print the telemetry snapshot and a traced round trip after the run")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics and net/http/pprof on this address (e.g. :9090); implies -metrics and keeps the process alive")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var sides []experiment.Side
	switch *side {
	case "rx":
		sides = []experiment.Side{experiment.Reception}
	case "tx":
		sides = []experiment.Side{experiment.Transmission}
	case "both":
		sides = []experiment.Side{experiment.Reception, experiment.Transmission}
	default:
		return fmt.Errorf("invalid -side %q (rx, tx, both)", *side)
	}

	reg := obs.NewRegistry()
	// Pre-register the failure families at zero so a clean run still
	// exports them — absence of a series should mean "not instrumented",
	// never "nothing failed".
	for _, decoder := range []string{"wazabee", "oqpsk"} {
		reg.Counter("wazabee_sync_failures_total", "decoder", decoder)
		reg.Counter("wazabee_crc_checks_total", "decoder", decoder, "result", "fail")
	}
	if *metricsAddr != "" {
		*metrics = true
		http.Handle("/metrics", reg)
		go func() {
			if err := http.ListenAndServe(*metricsAddr, nil); err != nil {
				fmt.Fprintln(errOut, "table3: metrics server:", err)
			}
		}()
		fmt.Fprintf(out, "serving /metrics and /debug/pprof on %s\n\n", *metricsAddr)
	}

	fid, err := radio.ParseFidelity(*fidelity)
	if err != nil {
		return err
	}

	cfg := experiment.DefaultConfig()
	cfg.FramesPerChannel = *frames
	cfg.Seed = *seed
	cfg.WiFi = *wifi
	cfg.Workers = *workers
	cfg.CIHalfWidth = *ciHalf
	cfg.Fidelity = fid
	cfg.Obs = reg

	// Ctrl-C cancels the sweep cleanly: with -checkpoint set, the
	// completed shards survive and the next identical invocation resumes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	for _, model := range []chip.Model{chip.NRF52832(), chip.CC1352R1()} {
		for _, s := range sides {
			if *checkpoint != "" {
				cfg.Checkpoint = fmt.Sprintf("%s.%s.%s.json", *checkpoint, model.Name, s)
			}
			res, err := experiment.RunContext(ctx, cfg, model, s)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, experiment.FormatComparison(res))
		}
	}

	if *metrics {
		if err := printRoundTripTrace(out, reg, *seed); err != nil {
			return err
		}
		fmt.Fprintln(out, "=== telemetry snapshot (Prometheus text format) ===")
		if err := reg.WritePrometheus(out); err != nil {
			return err
		}
		printStageQuantiles(out, reg)
	}
	if *metricsAddr != "" {
		fmt.Fprintf(out, "\nstill serving /metrics on %s — Ctrl-C to exit\n", *metricsAddr)
		select {}
	}
	return nil
}

// printRoundTripTrace sends one frame through each primitive with a span
// trace attached — the worked example of what the per-stage telemetry
// measures — and prints both flame trees.
func printRoundTripTrace(out io.Writer, reg *obs.Registry, seed int64) error {
	const sps = 8
	model := chip.NRF52832()
	channel := zigbee.DefaultChannel
	freq, err := ieee802154.ChannelFrequencyMHz(channel)
	if err != nil {
		return err
	}

	frame := ieee802154.NewDataFrame(1, zigbee.DefaultPAN, zigbee.DefaultCoordinator,
		zigbee.DefaultSensor, zigbee.SensorPayload(0x2a), false)
	psdu, err := frame.Encode()
	if err != nil {
		return err
	}
	ppdu, err := ieee802154.NewPPDU(psdu)
	if err != nil {
		return err
	}

	medium, err := radio.NewMedium(float64(sps)*ieee802154.ChipRate, seed)
	if err != nil {
		return err
	}
	tr := obs.NewTrace(fmt.Sprintf("one frame per side, %s <-> %s, channel %d", model.Name, chip.RZUSBStick().Name, channel))
	medium.Obs, medium.Trace = reg, tr
	link := radio.Link{SNRdB: 12, LeadSamples: 40 * sps, LagSamples: 20 * sps}

	// Transmission first, then reception: both deliveries draw from the
	// one medium's stream in that order.
	for _, side := range []experiment.Side{experiment.Transmission, experiment.Reception} {
		tx, rx := side.Ends(model)
		modulate, err := tx.Modulator(sps, reg, tr)
		if err != nil {
			return err
		}
		demodulate, err := rx.Demodulator(sps, reg, tr)
		if err != nil {
			return err
		}
		span := tr.Start(side.String()).SetAttr("channel", channel)
		sig, err := modulate(ppdu)
		if err != nil {
			return err
		}
		capture, err := medium.Deliver(sig, freq, freq, link)
		if err != nil {
			return err
		}
		if dem, _, err := demodulate(capture); err != nil {
			span.SetAttr("result", err.Error())
		} else {
			span.SetAttr("result", "received").SetAttr("worst_chip_distance", dem.WorstChipDistance)
		}
		span.End()
	}

	fmt.Fprintln(out, "=== round-trip span trace ===")
	fmt.Fprint(out, tr.Tree())
	fmt.Fprintln(out)
	return nil
}

// printStageQuantiles summarises the per-stage timing histograms as a
// small table — the human-readable companion of the raw bucket dump.
func printStageQuantiles(out io.Writer, reg *obs.Registry) {
	rows := false
	for _, s := range reg.Snapshot() {
		if s.Name != obs.StageSecondsMetric || s.Count == 0 {
			continue
		}
		if !rows {
			fmt.Fprintln(out, "\n=== per-stage timings ===")
			fmt.Fprintf(out, "%-14s %10s %12s %12s %12s\n", "stage", "calls", "mean", "p50", "p99")
			rows = true
		}
		fmt.Fprintf(out, "%-14s %10d %12s %12s %12s\n",
			s.Labels["stage"], s.Count,
			fmt.Sprintf("%.1fµs", s.Mean*1e6),
			fmt.Sprintf("%.1fµs", s.Quantiles["p50"]*1e6),
			fmt.Sprintf("%.1fµs", s.Quantiles["p99"]*1e6))
	}
}
