package radio

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
)

// The calibration table is the bridge between the fidelity tiers: the IQ
// tier is the ground truth, an offline pass (internal/calib, run via
// cmd/calibrate) measures how it behaves across the Table III operating
// grid, and the symbol and frame tiers replay those measurements instead
// of synthesising waveforms. Each profile covers one (chip, side)
// combination plus the native O-QPSK link of the mesh simulator; each
// cell holds the sync-failure rate and the per-symbol despreading
// distance distribution measured at one (SNR, |CFO|, WiFi-weight) grid
// point.

//go:embed caldata/table.json
var defaultCalJSON []byte

// ProfileOQPSK is the calibration profile of a native O-QPSK link
// (802.15.4 radio to 802.15.4 radio, no BLE diversion) — the profile the
// mesh simulator's erasure draws run on.
const ProfileOQPSK = "oqpsk/native"

// CalProfileName returns the calibration profile name of one WazaBee
// (chip, side) combination, e.g. "nRF52832/reception".
func CalProfileName(chipName, side string) string {
	return chipName + "/" + side
}

// CalCell is the calibrated behaviour at one operating point.
type CalCell struct {
	// SyncFail is the probability that the receiver delivers nothing at
	// all: preamble synchronisation failures, mid-frame aborts and
	// quality-gate drops, measured as the fraction of calibration frames
	// the IQ receiver returned an error for.
	SyncFail float64 `json:"sync_fail"`
	// Dist is the per-symbol despreading distance distribution of the
	// frames that did decode: Dist[d] is the probability that one
	// PHR/PSDU symbol despreads at Hamming distance d (clamped at 16).
	Dist [17]float64 `json:"dist"`
}

// CalProfile is the calibrated grid of one link flavour. Cells are laid
// out SNR-major: index = (si*len(CFOHz)+ci)*len(WiFi)+wi.
type CalProfile struct {
	Name  string    `json:"name"`
	SNRdB []float64 `json:"snr_db"`
	CFOHz []float64 `json:"cfo_hz"`
	WiFi  []float64 `json:"wifi"`
	Cells []CalCell `json:"cells"`
}

// CalTable is a fitted calibration table (see internal/calib for the
// fitter and cmd/calibrate for the offline pass that regenerates the
// checked-in default).
type CalTable struct {
	Version        int                    `json:"version"`
	SamplesPerChip int                    `json:"samples_per_chip"`
	FramesPerCell  int                    `json:"frames_per_cell"`
	Seed           int64                  `json:"seed"`
	Profiles       map[string]*CalProfile `json:"profiles"`
}

// Validate checks the table's structural invariants: ascending axes,
// complete cell grids and per-cell distributions that are probabilities.
func (t *CalTable) Validate() error {
	for name, p := range t.Profiles {
		if p == nil {
			return fmt.Errorf("radio: calibration profile %q is nil", name)
		}
		if len(p.SNRdB) == 0 || len(p.CFOHz) == 0 || len(p.WiFi) == 0 {
			return fmt.Errorf("radio: calibration profile %q has an empty axis", name)
		}
		for _, axis := range [][]float64{p.SNRdB, p.CFOHz, p.WiFi} {
			if !sort.Float64sAreSorted(axis) {
				return fmt.Errorf("radio: calibration profile %q has an unsorted axis", name)
			}
		}
		want := len(p.SNRdB) * len(p.CFOHz) * len(p.WiFi)
		if len(p.Cells) != want {
			return fmt.Errorf("radio: calibration profile %q has %d cells, want %d", name, len(p.Cells), want)
		}
		for i, c := range p.Cells {
			if c.SyncFail < 0 || c.SyncFail > 1 {
				return fmt.Errorf("radio: profile %q cell %d sync_fail %g out of [0,1]", name, i, c.SyncFail)
			}
			sum := 0.0
			for _, d := range c.Dist {
				if d < 0 {
					return fmt.Errorf("radio: profile %q cell %d has a negative distance weight", name, i)
				}
				sum += d
			}
			if math.Abs(sum-1) > 1e-9 {
				return fmt.Errorf("radio: profile %q cell %d distance distribution sums to %g", name, i, sum)
			}
		}
	}
	return nil
}

// Profile returns the named calibration profile.
func (t *CalTable) Profile(name string) (*CalProfile, error) {
	p := t.Profiles[name]
	if p == nil {
		return nil, fmt.Errorf("radio: no calibration profile %q (run `make calibrate` to regenerate the table)", name)
	}
	return p, nil
}

// ParseCalTable decodes and validates a calibration table from JSON.
func ParseCalTable(data []byte) (*CalTable, error) {
	var t CalTable
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("radio: parse calibration table: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

var (
	defaultCalOnce  sync.Once
	defaultCalTable *CalTable
	defaultCalErr   error
)

// DefaultCalTable returns the embedded calibration table shipped with
// the package (internal/radio/caldata/table.json, regenerated by
// cmd/calibrate).
func DefaultCalTable() (*CalTable, error) {
	defaultCalOnce.Do(func() {
		defaultCalTable, defaultCalErr = ParseCalTable(defaultCalJSON)
	})
	return defaultCalTable, defaultCalErr
}

// axisWeights locates v on an ascending axis: the bracketing indices and
// the interpolation weight of the upper one. Out-of-range values clamp
// to the edge cells.
func axisWeights(axis []float64, v float64) (lo, hi int, w float64) {
	if v <= axis[0] {
		return 0, 0, 0
	}
	last := len(axis) - 1
	if v >= axis[last] {
		return last, last, 0
	}
	hi = sort.SearchFloat64s(axis, v)
	lo = hi - 1
	span := axis[hi] - axis[lo]
	if span <= 0 {
		return lo, lo, 0
	}
	return lo, hi, (v - axis[lo]) / span
}

func (p *CalProfile) cellAt(si, ci, wi int) *CalCell {
	return &p.Cells[(si*len(p.CFOHz)+ci)*len(p.WiFi)+wi]
}

// Lookup interpolates the calibrated behaviour at an operating point:
// trilinear over (SNR, |CFO|, WiFi weight), clamped to the grid edges.
// The blended distance distribution is a convex combination of cell
// distributions, so it remains a probability distribution, and SyncFail
// stays in [0,1].
func (p *CalProfile) Lookup(snrDB, cfoHz, wifi float64) CalCell {
	if cfoHz < 0 {
		cfoHz = -cfoHz
	}
	s0, s1, sw := axisWeights(p.SNRdB, snrDB)
	c0, c1, cw := axisWeights(p.CFOHz, cfoHz)
	w0, w1, ww := axisWeights(p.WiFi, wifi)

	var out CalCell
	accumulate := func(si, ci, wi int, weight float64) {
		if weight == 0 {
			return
		}
		cell := p.cellAt(si, ci, wi)
		out.SyncFail += weight * cell.SyncFail
		for d := range cell.Dist {
			out.Dist[d] += weight * cell.Dist[d]
		}
	}
	for _, s := range [2]struct {
		i int
		w float64
	}{{s0, 1 - sw}, {s1, sw}} {
		for _, c := range [2]struct {
			i int
			w float64
		}{{c0, 1 - cw}, {c1, cw}} {
			for _, w := range [2]struct {
				i int
				w float64
			}{{w0, 1 - ww}, {w1, ww}} {
				if s.i == s0 && sw == 0 && s.w == 0 {
					continue
				}
				accumulate(s.i, c.i, w.i, s.w*c.w*w.w)
			}
		}
	}
	// The corner weights sum to 1 only up to rounding, so a blend of
	// cells that all sit at SyncFail 1 can land an ulp above it. The
	// symbol tier draws u < SyncFail and the frame tier u < (1-SyncFail)
	// times the symbol term, with u in [0,1), so the clamp changes no
	// outcome; it keeps SyncFail a probability.
	if out.SyncFail > 1 {
		out.SyncFail = 1
	}
	return out
}
