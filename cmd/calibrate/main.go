// Command calibrate regenerates the fidelity-tier calibration table:
// the offline pass that runs ground-truth IQ frames across the Table III
// operating grid (both WazaBee chips on both sides plus the native
// O-QPSK link, an SNR sweep through the waterfall knee, crystal-budget
// carrier offsets, clean and WiFi-degraded channels) and fits the
// per-cell sync-failure rates and despreading distance distributions the
// symbol and frame fidelity tiers replay.
//
// Usage:
//
//	go run ./cmd/calibrate                  # rewrite internal/radio/caldata/table.json
//	go run ./cmd/calibrate -check           # regenerate and fail on drift (CI)
//	go run ./cmd/calibrate -frames 64 -out /tmp/table.json
//
// The fit is fully deterministic in -seed, so -check is a byte
// comparison: any drift means the DSP chain, the chip models or the
// fitter changed without the table being regenerated. The grid cells
// run on the experiment runner's default pool of GOMAXPROCS workers;
// the table is the same at any worker count.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"wazabee/internal/calib"
	"wazabee/internal/obs"
)

func main() {
	obs.RegisterBuildInfo(nil)
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}
}

// run fits the table and writes it to -out, or with -check compares it
// against -out. Progress goes to errOut and the outcome line to out.
// Bad flags and fit errors return before -out is touched.
func run(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	fs.SetOutput(errOut)
	path := fs.String("out", "internal/radio/caldata/table.json", "where to write the fitted table")
	check := fs.Bool("check", false, "regenerate and compare against -out instead of writing; non-zero exit on drift")
	frames := fs.Int("frames", calib.DefaultOptions().FramesPerCell, "ground-truth frames per grid cell")
	seed := fs.Int64("seed", calib.DefaultOptions().Seed, "fit seed")
	sps := fs.Int("sps", calib.DefaultOptions().SamplesPerChip, "IQ samples per chip")
	quiet := fs.Bool("q", false, "suppress progress output")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	opts := calib.Options{SamplesPerChip: *sps, FramesPerCell: *frames, Seed: *seed}
	start := time.Now()
	if !*quiet {
		opts.Progress = func(profile string, done, total int) {
			fmt.Fprintf(errOut, "calibrate: [%d/%d] %-25s %s\n", done, total, profile, time.Since(start).Round(time.Millisecond))
		}
	}
	table, err := calib.Fit(opts)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(table, "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')

	if *check {
		have, err := os.ReadFile(*path)
		if err != nil {
			return fmt.Errorf("read checked-in table: %w", err)
		}
		if !bytes.Equal(have, data) {
			return fmt.Errorf("%s drifted from a fresh fit (regenerate with `make calibrate`)", *path)
		}
		fmt.Fprintf(out, "calibrate: %s matches a fresh fit (%s)\n", *path, time.Since(start).Round(time.Millisecond))
		return nil
	}
	if err := os.WriteFile(*path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "calibrate: wrote %s (%d profiles, %d bytes, %s)\n",
		*path, len(table.Profiles), len(data), time.Since(start).Round(time.Millisecond))
	return nil
}
