// Command pivotscan implements the prospective tool of the paper's
// conclusion: a modulation-similarity survey that anticipates which
// radios can be diverted into 802.15.4 transmitters. Scores near 1 mean
// "pivotable" (the WazaBee case); low scores mean rate or deviation
// mismatches eat the demodulation margin.
//
// By default the survey runs as a Monte-Carlo scan: -bursts random
// representative bursts per catalogue entry on the sharded runner, with
// the mean score and the 95% Wilson interval of the pivotable fraction.
// -bursts 1 reproduces the original single-burst survey.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"wazabee/internal/experiment"
	"wazabee/internal/modsim"
	"wazabee/internal/obs"
)

func main() {
	obs.RegisterBuildInfo(nil)
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pivotscan:", err)
		os.Exit(1)
	}
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("pivotscan", flag.ContinueOnError)
	fs.SetOutput(errOut)
	sps := fs.Int("sps", 8, "samples per symbol")
	seed := fs.Int64("seed", 1, "random seed")
	bursts := fs.Int("bursts", 32, "random bursts per catalogue entry; 1 = the original single-burst survey")
	workers := fs.Int("workers", 0, "Monte-Carlo worker pool size; 0 = GOMAXPROCS (results are identical at any value)")
	checkpoint := fs.String("checkpoint", "", "checkpoint file; completed shards persist here and an identical invocation resumes from it")
	ciHalf := fs.Float64("ci", 0, "adaptive stop: end each entry once the 95% CI half-width of its pivotable rate reaches this target; 0 = fixed burst count")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The single-burst survey below never reaches the runner, which
	// validates the pool size on every other path, so check it here.
	if *workers < 0 {
		return fmt.Errorf("negative -workers %d (0 means GOMAXPROCS)", *workers)
	}
	if *bursts == 1 && *checkpoint == "" && *ciHalf == 0 {
		scores, err := modsim.SurveyAgainstOQPSK(*sps, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "pivotability against %s (1.0 = full demodulation margin)\n\n", scores[0].Target)
		for _, s := range scores {
			fmt.Fprintf(out, "%-36s %.3f %s\n", s.Emulator, s.Score, bar(s.Score))
		}
		fmt.Fprintln(out, "\nscores ≥ ~0.6 indicate a WazaBee-style pivot is practical")
		return nil
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := experiment.DefaultPivotScanConfig()
	cfg.BurstsPerEntry = *bursts
	cfg.SamplesPerSymbol = *sps
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.Checkpoint = *checkpoint
	cfg.CIHalfWidth = *ciHalf

	rows, err := experiment.RunPivotScan(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "pivotability against %s (1.0 = full demodulation margin)\n", rows[0].Target)
	fmt.Fprintf(out, "%d random bursts per entry; pivotable = score ≥ %.1f\n\n", *bursts, experiment.PivotableThreshold)
	for _, r := range rows {
		fmt.Fprintf(out, "%-36s mean %.3f  pivotable %3.0f %% (95%% CI %3.0f–%3.0f %%, n=%d) %s\n",
			r.Emulator, r.MeanScore, 100*r.PivotableRate, 100*r.PivotableLo, 100*r.PivotableHi,
			r.Bursts, bar(r.MeanScore))
	}
	fmt.Fprintln(out, "\nscores ≥ ~0.6 indicate a WazaBee-style pivot is practical")
	return nil
}

func bar(score float64) string {
	b := ""
	for i := 0; i < int(score*40); i++ {
		b += "#"
	}
	return b
}
