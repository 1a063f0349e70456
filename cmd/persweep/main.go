// Command persweep extends the paper's evaluation with packet error
// rate versus SNR waterfalls for both primitives: where Table III
// samples one operating point per channel, this sweep locates the
// sensitivity knee and quantifies the Gaussian-approximation penalty of
// transmitting through a BLE modulator. Output is CSV; every PER comes
// with its 95% Wilson interval.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"wazabee/internal/chip"
	"wazabee/internal/experiment"
	"wazabee/internal/obs"
	"wazabee/internal/radio"
)

func main() {
	obs.RegisterBuildInfo(nil)
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "persweep:", err)
		os.Exit(1)
	}
}

func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("persweep", flag.ContinueOnError)
	fs.SetOutput(errOut)
	frames := fs.Int("frames", 50, "frames per SNR point")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "Monte-Carlo worker pool size; 0 = GOMAXPROCS (results are identical at any value)")
	checkpoint := fs.String("checkpoint", "", "checkpoint file prefix; each chip/side sweep persists completed shards to <prefix>.<chip>.<side>.json and resumes from it (Ctrl-C is a clean interruption)")
	ciHalf := fs.Float64("ci", 0, "adaptive stop: end each SNR point once the 95% CI half-width of its PER reaches this target; 0 = fixed frame count")
	fidelity := fs.String("fidelity", "iq", "frame-delivery tier: iq (full DSP ground truth), symbol (calibrated per-symbol draws) or frame (closed-form erasures)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	fid, err := radio.ParseFidelity(*fidelity)
	if err != nil {
		return err
	}

	cfg := experiment.DefaultSweepConfig()
	cfg.FramesPerPoint = *frames
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.CIHalfWidth = *ciHalf
	cfg.Fidelity = fid

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	header := "chip,side,snr_db,frames,per,per_lo,per_hi,corrupted,lost\n"
	for _, model := range []chip.Model{chip.NRF52832(), chip.CC1352R1()} {
		for _, side := range []experiment.Side{experiment.Reception, experiment.Transmission} {
			if *checkpoint != "" {
				cfg.Checkpoint = fmt.Sprintf("%s.%s.%s.json", *checkpoint, model.Name, side)
			}
			points, err := experiment.RunSweepContext(ctx, cfg, model, side)
			if err != nil {
				return err
			}
			// The header follows the first completed sweep, so a
			// rejected configuration leaves stdout empty.
			fmt.Fprint(out, header)
			header = ""
			for _, p := range points {
				fmt.Fprintf(out, "%s,%v,%.1f,%d,%.4f,%.4f,%.4f,%.4f,%.4f\n",
					model.Name, side, p.SNRdB, p.Frames, p.PER, p.PERLo, p.PERHi, p.CorruptedRate, p.LossRate)
			}
		}
	}
	return nil
}
