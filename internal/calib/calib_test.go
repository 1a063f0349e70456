package calib

import (
	"bytes"
	"runtime"
	"testing"

	"wazabee/internal/radio"
)

// distAt is a distance distribution with all its mass at k chip errors.
func distAt(k int) [17]float64 {
	var d [17]float64
	d[k] = 1
	return d
}

// histAt is a distance histogram of 5 symbols, all at k chip errors.
func histAt(k int) [17]uint64 {
	var h [17]uint64
	h[k] = 5
	return h
}

// TestSmoothProfileClampsColumn hand-builds a profile of 10-frame cells
// whose first WiFi column violates both monotonicity rules: the fail
// count rises with SNR at the middle cell, and its distance histogram
// decodes worse than the cell below it. The middle cell must take the
// lower cell's fail count and histogram. The second column is already
// monotone, and its lowest-SNR cell decoded nothing (an all-zero
// histogram); it must come through untouched.
func TestSmoothProfileClampsColumn(t *testing.T) {
	const frames = 10
	p := &radio.CalProfile{
		SNRdB:   []float64{0, 5, 10},
		CFOHz:   []float64{0},
		WiFi:    []float64{0, 0.5},
		Tallies: make([]radio.CalTally, 6),
	}
	set := func(si, wi int, fails uint64, hist [17]uint64) {
		p.Tallies[cellIndex(p, si, 0, wi)] = radio.CalTally{Fails: fails, Hist: hist}
	}
	set(0, 0, 3, histAt(6))
	set(1, 0, 4, histAt(10)) // SyncFail rises, P[symbol correct] falls
	set(2, 0, 1, histAt(0))
	set(0, 1, 10, [17]uint64{})
	set(1, 1, 5, histAt(8))
	set(2, 1, 0, histAt(0))
	monotone := append([]radio.CalTally(nil), p.Tallies...)

	smoothProfile(p, frames)

	mid := p.Tallies[cellIndex(p, 1, 0, 0)]
	if mid.Fails != 3 {
		t.Errorf("rising fail count smoothed to %d, want the previous cell's 3", mid.Fails)
	}
	if mid.Hist != histAt(6) {
		t.Errorf("falling decode probability kept Hist %v, want the previous cell's", mid.Hist)
	}
	if cell := mid.Cell(frames); cell.SyncFail != 0.3 || cell.Dist != distAt(6) {
		t.Errorf("smoothed cell divides to %+v, want SyncFail 0.3 and the previous cell's Dist", cell)
	}
	if top := p.Tallies[cellIndex(p, 2, 0, 0)]; top.Fails != 1 || top.Hist != histAt(0) {
		t.Errorf("monotone step above the clamp changed to %+v", top)
	}
	for si := range p.SNRdB {
		i := cellIndex(p, si, 0, 1)
		if p.Tallies[i] != monotone[i] {
			t.Errorf("monotone column cell %d changed: %+v, was %+v", si, p.Tallies[i], monotone[i])
		}
	}
}

// TestCellIndexMatchesLookup fills every fitted profile's grid with
// distinguishable cells at the fitter's cellIndex and checks that
// radio.CalProfile.Lookup reads each one back at its grid point.
func TestCellIndexMatchesLookup(t *testing.T) {
	for _, spec := range profileSpecs() {
		p := &radio.CalProfile{
			Name:  spec.name,
			SNRdB: snrGrid,
			CFOHz: spec.cfo,
			WiFi:  spec.wifi,
			Cells: make([]radio.CalCell, len(snrGrid)*len(spec.cfo)*len(spec.wifi)),
		}
		for si := range p.SNRdB {
			for ci := range p.CFOHz {
				for wi := range p.WiFi {
					i := cellIndex(p, si, ci, wi)
					p.Cells[i] = radio.CalCell{SyncFail: float64(i) / float64(len(p.Cells)), Dist: distAt(i % 17)}
				}
			}
		}
		for si, snr := range p.SNRdB {
			for ci, cfo := range p.CFOHz {
				for wi, wifi := range p.WiFi {
					want := p.Cells[cellIndex(p, si, ci, wi)]
					if got := p.Lookup(snr, cfo, wifi); got != want {
						t.Fatalf("%s: Lookup(%g, %g, %g) = %+v, want cell (%d,%d,%d) %+v",
							spec.name, snr, cfo, wifi, got, si, ci, wi, want)
					}
				}
			}
		}
	}
}

func TestFitRejectsBadOptions(t *testing.T) {
	for _, opts := range []Options{
		{SamplesPerChip: 0, FramesPerCell: 1},
		{SamplesPerChip: -8, FramesPerCell: 1},
		{SamplesPerChip: 8, FramesPerCell: 0},
		{SamplesPerChip: 8, FramesPerCell: -1},
	} {
		if table, err := Fit(opts); err == nil {
			t.Errorf("Fit(%+v) = %d profiles, want an error", opts, len(table.Profiles))
		}
	}
}

// TestFitIdenticalAcrossWorkerCounts fits a one-frame-per-cell table on
// one and on four runner workers (the runner's pool is GOMAXPROCS) and
// requires identical encoded tables, with Progress reporting every
// profile once, in order, on both.
func TestFitIdenticalAcrossWorkerCounts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var fits [][]byte
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		var done []int
		opts := Options{SamplesPerChip: 8, FramesPerCell: 1, Seed: 1,
			Progress: func(_ string, d, total int) {
				if total != len(profileSpecs()) {
					t.Errorf("Progress total %d, want %d", total, len(profileSpecs()))
				}
				done = append(done, d)
			}}
		table, err := Fit(opts)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		inOrder := len(done) == len(profileSpecs())
		for i, d := range done {
			inOrder = inOrder && d == i+1
		}
		if !inOrder {
			t.Errorf("GOMAXPROCS %d: Progress done sequence %v, want 1..%d", procs, done, len(profileSpecs()))
		}
		data, err := table.Encode()
		if err != nil {
			t.Fatal(err)
		}
		fits = append(fits, data)
	}
	if !bytes.Equal(fits[0], fits[1]) {
		t.Error("FramesPerCell 1 fit differs between GOMAXPROCS 1 and 4")
	}
}
