// wazabeecampaign runs the attack/defense campaign engine from the
// command line: every selected scenario from the internal/campaign
// catalogue crossed with every IDS threshold, each cell a deterministic
// Monte-Carlo point, reduced into an attack-vs-detection ROC matrix with
// Wilson confidence intervals plus per-scenario impact averages. The
// same seed reproduces the matrix byte for byte at any -workers.
//
//	wazabeecampaign -scenarios all -trials 200 -fidelity frame
//	wazabeecampaign -scenarios scenario-a-injection,benign-baseline -trials 50 -out roc.json
//	wazabeecampaign -list
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"wazabee/internal/campaign"
	"wazabee/internal/obs"
	"wazabee/internal/radio"
)

type config struct {
	scenarios  string
	trials     int
	fidelity   string
	workers    int
	out        string
	csvOut     string
	seed       int64
	thresholds string
	duration   time.Duration
	devices    int
	snrDB      float64
	chip       string
	impact     int
	checkpoint string
	digest     bool
	list       bool
	quiet      bool
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "wazabeecampaign: %v\n", err)
		os.Exit(1)
	}
}

func registerFlags(fs *flag.FlagSet, cfg *config) {
	fs.StringVar(&cfg.scenarios, "scenarios", "all", "comma-separated scenario names, or \"all\" (see -list)")
	fs.IntVar(&cfg.trials, "trials", campaign.DefaultTrials, "Monte-Carlo trials per (scenario, threshold) cell")
	fs.StringVar(&cfg.fidelity, "fidelity", "frame", "mesh delivery tier: frame or symbol")
	fs.IntVar(&cfg.workers, "workers", 0, "runner worker pool; 0 means GOMAXPROCS (any value yields the identical matrix)")
	fs.StringVar(&cfg.out, "out", "", "write the matrix JSON here (empty skips it)")
	fs.StringVar(&cfg.csvOut, "csv", "", "write the flat per-detector CSV here (empty skips it)")
	fs.Int64Var(&cfg.seed, "seed", 42, "campaign seed; same seed, same flags -> byte-identical matrix")
	fs.StringVar(&cfg.thresholds, "thresholds", "", "comma-separated IDS soft-EVM thresholds (empty selects the default sweep)")
	fs.DurationVar(&cfg.duration, "duration", 0, "virtual time per scenario run (0 selects the default)")
	fs.IntVar(&cfg.devices, "devices", 0, "end devices in the victim star mesh (0 selects the default)")
	fs.Float64Var(&cfg.snrDB, "snr", 0, "victim link SNR in dB (0 selects the default)")
	fs.StringVar(&cfg.chip, "chip", "", "energy-accountant profile: cc2652 or nrf52840 (empty selects cc2652)")
	fs.IntVar(&cfg.impact, "impact", 0, "serial impact samples per scenario (0 selects the default)")
	fs.StringVar(&cfg.checkpoint, "checkpoint", "", "resume file for the Monte-Carlo sweep (empty disables)")
	fs.BoolVar(&cfg.digest, "digest", true, "print the matrix sha256 digest (the cross-machine regression oracle)")
	fs.BoolVar(&cfg.list, "list", false, "list the scenario catalogue and exit")
	fs.BoolVar(&cfg.quiet, "quiet", false, "suppress the text ROC table on stdout")
}

// parseThresholds resolves the -thresholds flag.
func parseThresholds(s string) ([]float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad threshold %q: %w", f, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -thresholds %q", s)
	}
	return out, nil
}

func run(args []string, out, errOut io.Writer) error {
	cfg := config{}
	fs := flag.NewFlagSet("wazabeecampaign", flag.ContinueOnError)
	fs.SetOutput(errOut)
	registerFlags(fs, &cfg)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if cfg.list {
		for _, sc := range campaign.Catalogue() {
			kind := "attack"
			if !sc.Attack() {
				kind = "benign"
			}
			fmt.Fprintf(out, "%-22s %-7s %s\n", sc.Name(), kind, sc.Description())
		}
		return nil
	}

	scenarios, err := campaign.ParseScenarios(cfg.scenarios)
	if err != nil {
		return err
	}
	thresholds, err := parseThresholds(cfg.thresholds)
	if err != nil {
		return err
	}
	fid, err := radio.ParseFidelity(cfg.fidelity)
	if err != nil {
		return err
	}
	if fid == radio.FidelityIQ {
		return fmt.Errorf("-fidelity iq is not supported by the mesh simulator (use symbol or frame)")
	}
	if cfg.trials < 1 {
		return fmt.Errorf("-trials %d < 1", cfg.trials)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	matrix, err := campaign.RunMatrix(ctx, campaign.MatrixSpec{
		Scenarios:     scenarios,
		Thresholds:    thresholds,
		Trials:        cfg.trials,
		Seed:          cfg.seed,
		Workers:       cfg.workers,
		Fidelity:      fid,
		SNRdB:         cfg.snrDB,
		Duration:      cfg.duration,
		Devices:       cfg.devices,
		Chip:          cfg.chip,
		ImpactSamples: cfg.impact,
		Checkpoint:    cfg.checkpoint,
		Obs:           obs.NewRegistry(),
	})
	if err != nil {
		return err
	}
	wall := time.Since(start)

	if cfg.out != "" {
		f, err := os.Create(cfg.out)
		if err != nil {
			return fmt.Errorf("create -out file: %w", err)
		}
		if err := matrix.WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("write matrix JSON: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("write matrix JSON: %w", err)
		}
	}
	if cfg.csvOut != "" {
		f, err := os.Create(cfg.csvOut)
		if err != nil {
			return fmt.Errorf("create -csv file: %w", err)
		}
		if err := matrix.WriteCSV(f); err != nil {
			f.Close()
			return fmt.Errorf("write matrix CSV: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("write matrix CSV: %w", err)
		}
	}

	if !cfg.quiet {
		if err := matrix.WriteText(out); err != nil {
			return err
		}
	}
	cells := len(matrix.Cells)
	fmt.Fprintf(errOut, "wazabeecampaign: %d cells x %d trials in %v\n",
		cells, cfg.trials, wall.Round(time.Millisecond))
	if cfg.digest {
		fmt.Fprintf(out, "digest sha256:%s\n", matrix.Digest())
	}
	return nil
}
