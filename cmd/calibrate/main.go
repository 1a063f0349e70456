// Command calibrate regenerates the fidelity-tier calibration table:
// the offline pass that runs ground-truth IQ frames across the Table III
// operating grid (both WazaBee chips on both sides plus the native
// O-QPSK link, an SNR sweep through the waterfall knee, crystal-budget
// carrier offsets, clean and WiFi-degraded channels) and fits the
// per-cell counts the symbol and frame fidelity tiers replay: the frames
// the receiver returned nothing for and the despreading distances of the
// frames it decoded. The table is stored as those counts
// (radio.CalTable.Encode) and divided into rates when it is loaded.
//
// Usage:
//
//	go run ./cmd/calibrate                  # rewrite internal/radio/caldata/tallies.txt
//	go run ./cmd/calibrate -check           # regenerate and fail on drift (CI)
//	go run ./cmd/calibrate -frames 64 -out /tmp/tallies.txt
//
// The fit is fully deterministic in -seed, so -check is a byte
// comparison: any drift means the DSP chain, the chip models or the
// fitter changed without the table being regenerated. On drift it names
// the first profile and grid cell that differ and prints both tallies
// with their sync-fail rates and 95% Wilson intervals. The grid cells
// run on the experiment runner's default pool of GOMAXPROCS workers;
// the table is the same at any worker count.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"wazabee/internal/calib"
	"wazabee/internal/experiment/runner"
	"wazabee/internal/obs"
	"wazabee/internal/radio"
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
	path := fs.String("out", "internal/radio/caldata/tallies.txt", "where to write the fitted table")
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
	data, err := table.Encode()
	if err != nil {
		return err
	}

	if *check {
		have, err := os.ReadFile(*path)
		if err != nil {
			return fmt.Errorf("read checked-in table: %w", err)
		}
		if !bytes.Equal(have, data) {
			return fmt.Errorf("%s drifted from a fresh fit (regenerate with `make calibrate`): %s", *path, drift(have, table))
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

// drift describes the first difference between a checked-in table and a
// fresh fit: a file that does not parse, a header or profile mismatch,
// or the first profile (in name order) and grid cell whose tallies
// differ, named by its SNR, |CFO| and WiFi weight, with both tallies and
// their sync-fail rates.
func drift(have []byte, fresh *radio.CalTable) string {
	old, err := radio.ParseCalTable(have)
	if err != nil {
		return fmt.Sprintf("the checked-in table does not load: %v", err)
	}
	if old.SamplesPerChip != fresh.SamplesPerChip || old.FramesPerCell != fresh.FramesPerCell || old.Seed != fresh.Seed {
		return fmt.Sprintf("checked in at %d samples per chip, %d frames per cell, seed %d; fresh fit at %d, %d, %d",
			old.SamplesPerChip, old.FramesPerCell, old.Seed, fresh.SamplesPerChip, fresh.FramesPerCell, fresh.Seed)
	}
	names := make([]string, 0, len(old.Profiles)+len(fresh.Profiles))
	for name := range old.Profiles {
		names = append(names, name)
	}
	for name := range fresh.Profiles {
		if old.Profiles[name] == nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		op, fp := old.Profiles[name], fresh.Profiles[name]
		switch {
		case op == nil:
			return fmt.Sprintf("profile %q is missing from the checked-in table", name)
		case fp == nil:
			return fmt.Sprintf("profile %q is not in a fresh fit", name)
		case !slices.Equal(op.SNRdB, fp.SNRdB) || !slices.Equal(op.CFOHz, fp.CFOHz) || !slices.Equal(op.WiFi, fp.WiFi):
			return fmt.Sprintf("profile %q has different axes", name)
		}
		for i := range fp.Tallies {
			if op.Tallies[i] == fp.Tallies[i] {
				continue
			}
			nc, nw := len(fp.CFOHz), len(fp.WiFi)
			return fmt.Sprintf("profile %q cell (SNR %g dB, |CFO| %g Hz, WiFi %g):\n  checked in: %s\n  fresh fit:  %s",
				name, fp.SNRdB[i/(nc*nw)], fp.CFOHz[i/nw%nc], fp.WiFi[i%nw],
				describeTally(op.Tallies[i], old.FramesPerCell), describeTally(fp.Tallies[i], fresh.FramesPerCell))
		}
	}
	return "no tally differs"
}

// describeTally prints a cell's counts and its sync-fail rate with the
// rate's 95% Wilson interval.
func describeTally(t radio.CalTally, frames int) string {
	hist := make([]string, len(t.Hist))
	for d, n := range t.Hist {
		hist[d] = fmt.Sprint(n)
	}
	lo, hi := runner.Wilson(int(t.Fails), frames)
	return fmt.Sprintf("%d fails, distances [%s]; sync-fail %d/%d = %.3f (95%% CI %.3f–%.3f)",
		t.Fails, strings.Join(hist, " "), t.Fails, frames, t.Cell(frames).SyncFail, lo, hi)
}
