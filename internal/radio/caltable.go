package radio

import (
	_ "embed"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The calibration table is the bridge between the fidelity tiers: the IQ
// tier is the ground truth, an offline pass (internal/calib, run via
// cmd/calibrate) measures how it behaves across the Table III operating
// grid, and the symbol and frame tiers replay those measurements instead
// of synthesising waveforms. Each profile covers one (chip, side)
// combination plus the native O-QPSK link of the mesh simulator; each
// cell holds what the fit counted at one (SNR, |CFO|, WiFi-weight) grid
// point: the frames the receiver returned nothing for and the per-symbol
// despreading distances of the frames it decoded. The counts are the
// stored form; they are divided into probabilities once, at load.

//go:embed caldata/tallies.txt
var defaultCalTallies []byte

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
	SyncFail float64
	// Dist is the per-symbol despreading distance distribution of the
	// frames that did decode: Dist[d] is the probability that one
	// PHR/PSDU symbol despreads at Hamming distance d (clamped at 16).
	Dist [17]float64
}

// CalTally is one grid cell as the calibration fit counted it.
type CalTally struct {
	// Fails counts the calibration frames the IQ receiver returned an
	// error for: preamble synchronisation failures, mid-frame aborts and
	// quality-gate drops.
	Fails uint64
	// Hist[d] counts the PHR/PSDU symbols of the decoded frames that
	// despread at Hamming distance d (clamped at 16).
	Hist [17]uint64
}

// Cell divides the tally into the probabilities the fidelity tiers read,
// out of framesPerCell calibration frames: SyncFail = Fails/framesPerCell
// and Dist[d] = Hist[d]/ΣHist. An all-zero histogram means nothing
// decoded, so the distance distribution is unobservable; it is pinned to
// the worst bucket (Dist[16] = 1), so that any interpolation toward the
// cell degrades pessimistically. Both the fit and the loader divide
// through here, so the fitted and the loaded table hold the same floats.
func (t *CalTally) Cell(framesPerCell int) CalCell {
	c := CalCell{SyncFail: float64(t.Fails) / float64(framesPerCell)}
	var symbols uint64
	for _, n := range t.Hist {
		symbols += n
	}
	if symbols == 0 {
		c.Dist[16] = 1
		return c
	}
	for d, n := range t.Hist {
		c.Dist[d] = float64(n) / float64(symbols)
	}
	return c
}

// CalProfile is the calibrated grid of one link flavour. Cells are laid
// out SNR-major: index = (si*len(CFOHz)+ci)*len(WiFi)+wi.
type CalProfile struct {
	Name  string
	SNRdB []float64
	CFOHz []float64
	WiFi  []float64
	// Tallies are the fitted counts in the cell layout: the stored form.
	Tallies []CalTally
	// Cells are the Tallies divided by CalTally.Cell: what Lookup blends.
	Cells []CalCell
}

// CalTable is a fitted calibration table (see internal/calib for the
// fitter and cmd/calibrate for the offline pass that regenerates the
// checked-in default).
type CalTable struct {
	SamplesPerChip int
	FramesPerCell  int
	Seed           int64
	Profiles       map[string]*CalProfile
}

// Validate checks the table's stored form: at least one sample per chip
// and one frame per cell, finite ascending axes, complete tally grids, no
// more fails than frames in a cell and histograms whose total fits a
// uint64.
func (t *CalTable) Validate() error {
	if t.SamplesPerChip < 1 || t.FramesPerCell < 1 {
		return fmt.Errorf("radio: calibration table has %d samples per chip and %d frames per cell, want at least 1 of each",
			t.SamplesPerChip, t.FramesPerCell)
	}
	for name, p := range t.Profiles {
		if p == nil {
			return fmt.Errorf("radio: calibration profile %q is nil", name)
		}
		if len(p.SNRdB) == 0 || len(p.CFOHz) == 0 || len(p.WiFi) == 0 {
			return fmt.Errorf("radio: calibration profile %q has an empty axis", name)
		}
		for _, axis := range [][]float64{p.SNRdB, p.CFOHz, p.WiFi} {
			for _, v := range axis {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("radio: calibration profile %q has a non-finite axis value %g", name, v)
				}
			}
			if !sort.Float64sAreSorted(axis) {
				return fmt.Errorf("radio: calibration profile %q has an unsorted axis", name)
			}
		}
		want := len(p.SNRdB) * len(p.CFOHz) * len(p.WiFi)
		if len(p.Tallies) != want {
			return fmt.Errorf("radio: calibration profile %q has %d cells, want %d", name, len(p.Tallies), want)
		}
		for i, c := range p.Tallies {
			if c.Fails > uint64(t.FramesPerCell) {
				return fmt.Errorf("radio: profile %q cell %d has %d fails in %d frames", name, i, c.Fails, t.FramesPerCell)
			}
			var sum, carry uint64
			for _, n := range c.Hist {
				if sum, carry = bits.Add64(sum, n, 0); carry != 0 {
					return fmt.Errorf("radio: profile %q cell %d distance histogram overflows", name, i)
				}
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

// calTallyHeader is the first line of a stored table.
const calTallyHeader = "calibration-tallies v1 samples_per_chip %d frames_per_cell %d seed %d"

// calAxes labels a profile's axis lines, in order.
var calAxes = [3]string{"snr_db", "cfo_hz", "wifi"}

// Encode writes the table in its stored form. The first line is the
// header,
//
//	calibration-tallies v1 samples_per_chip 8 frames_per_cell 28 seed 1
//
// and each profile follows in name order: a "profile <name>" line, the
// "snr_db", "cfo_hz" and "wifi" axis lines (each label followed by the
// axis values in strconv's shortest 'g' form) and one line per cell in
// Cells order, holding the fail count and the 17 distance counts. Fields
// are separated by single spaces and every line ends in a newline.
func (t *CalTable) Encode() ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(t.Profiles))
	for name := range t.Profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	b := fmt.Appendf(nil, calTallyHeader+"\n", t.SamplesPerChip, t.FramesPerCell, t.Seed)
	for _, name := range names {
		p := t.Profiles[name]
		b = append(append(append(b, "profile "...), name...), '\n')
		for i, axis := range [3][]float64{p.SNRdB, p.CFOHz, p.WiFi} {
			b = append(b, calAxes[i]...)
			for _, v := range axis {
				b = strconv.AppendFloat(append(b, ' '), v, 'g', -1, 64)
			}
			b = append(b, '\n')
		}
		for _, c := range p.Tallies {
			b = strconv.AppendUint(b, c.Fails, 10)
			for _, n := range c.Hist {
				b = strconv.AppendUint(append(b, ' '), n, 10)
			}
			b = append(b, '\n')
		}
	}
	return b, nil
}

// ParseCalTable decodes a stored table (see Encode), validates it and
// divides its tallies into cells. It accepts only Encode's own spelling,
// so any table it returns encodes back to the bytes it was given.
func ParseCalTable(data []byte) (*CalTable, error) {
	t, err := parseCalTallies(string(data))
	if err != nil {
		return nil, fmt.Errorf("radio: parse calibration table: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	for _, p := range t.Profiles {
		p.Cells = make([]CalCell, len(p.Tallies))
		for i := range p.Tallies {
			p.Cells[i] = p.Tallies[i].Cell(t.FramesPerCell)
		}
	}
	return t, nil
}

// parseCalTallies reads the lines Encode writes; Validate then checks
// what the lines say.
func parseCalTallies(text string) (*CalTable, error) {
	lines := strings.Split(text, "\n")
	if lines[len(lines)-1] != "" {
		return nil, fmt.Errorf("line %d does not end in a newline", len(lines))
	}
	lines = lines[:len(lines)-1]
	if len(lines) == 0 {
		return nil, fmt.Errorf("no header line")
	}
	t := &CalTable{Profiles: make(map[string]*CalProfile)}
	_, err := fmt.Sscanf(lines[0], calTallyHeader, &t.SamplesPerChip, &t.FramesPerCell, &t.Seed)
	if err != nil || fmt.Sprintf(calTallyHeader, t.SamplesPerChip, t.FramesPerCell, t.Seed) != lines[0] {
		return nil, fmt.Errorf("header %q is not of the form %q", lines[0], calTallyHeader)
	}

	prev := ""
	for i := 1; i < len(lines); {
		name, ok := strings.CutPrefix(lines[i], "profile ")
		if !ok {
			return nil, fmt.Errorf("line %d: %q is not a profile line", i+1, lines[i])
		}
		if i > 1 && name <= prev {
			return nil, fmt.Errorf("line %d: profile %q repeated or out of order after %q", i+1, name, prev)
		}
		if i+len(calAxes) >= len(lines) {
			return nil, fmt.Errorf("line %d: profile %q ends before its axes", i+1, name)
		}
		p := &CalProfile{Name: name}
		for k, axis := range [3]*[]float64{&p.SNRdB, &p.CFOHz, &p.WiFi} {
			if *axis, err = parseCalAxis(lines[i+1+k], calAxes[k]); err != nil {
				return nil, fmt.Errorf("line %d: %w", i+2+k, err)
			}
		}
		i += 1 + len(calAxes)
		end := i
		for end < len(lines) && !strings.HasPrefix(lines[end], "profile ") {
			end++
		}
		p.Tallies = make([]CalTally, end-i)
		for c := range p.Tallies {
			if p.Tallies[c], err = parseCalTally(lines[i+c]); err != nil {
				return nil, fmt.Errorf("line %d: %w", i+c+1, err)
			}
		}
		t.Profiles[name] = p
		prev, i = name, end
	}
	return t, nil
}

// parseCalAxis reads one axis line: its label, then values in the form
// strconv.FormatFloat(v, 'g', -1, 64) writes.
func parseCalAxis(line, label string) ([]float64, error) {
	fields := strings.Split(line, " ")
	if fields[0] != label {
		return nil, fmt.Errorf("axis line %q, want label %q", line, label)
	}
	axis := make([]float64, len(fields)-1)
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || strconv.FormatFloat(v, 'g', -1, 64) != f {
			return nil, fmt.Errorf("%s value %q is not a float in shortest form", label, f)
		}
		axis[i] = v
	}
	return axis, nil
}

// parseCalTally reads one cell line: the fail count, then the 17
// distance counts.
func parseCalTally(line string) (CalTally, error) {
	var counts [1 + len(CalTally{}.Hist)]uint64
	n := 0
	for rest, more := line, true; more; n++ {
		if n == len(counts) {
			return CalTally{}, fmt.Errorf("cell line has more than %d fields", len(counts))
		}
		var f string
		f, rest, more = strings.Cut(rest, " ")
		v, err := parseCalCount(f)
		if err != nil {
			return CalTally{}, err
		}
		counts[n] = v
	}
	if n != len(counts) {
		return CalTally{}, fmt.Errorf("cell line has %d fields, want %d", n, len(counts))
	}
	c := CalTally{Fails: counts[0]}
	copy(c.Hist[:], counts[1:])
	return c, nil
}

// parseCalCount reads a count: decimal digits with no sign and no
// leading zero.
func parseCalCount(f string) (uint64, error) {
	n, err := strconv.ParseUint(f, 10, 64)
	if err != nil || len(f) > 1 && f[0] == '0' {
		return 0, fmt.Errorf("count %q is not a plain decimal", f)
	}
	return n, nil
}

var (
	defaultCalOnce  sync.Once
	defaultCalTable *CalTable
	defaultCalErr   error
)

// DefaultCalTable returns the embedded calibration table shipped with
// the package (internal/radio/caldata/tallies.txt, regenerated by
// cmd/calibrate).
func DefaultCalTable() (*CalTable, error) {
	defaultCalOnce.Do(func() {
		defaultCalTable, defaultCalErr = ParseCalTable(defaultCalTallies)
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
		// Each product is rounded before the add, so no architecture
		// fuses it into a multiply-add with different rounding.
		out.SyncFail += float64(weight * cell.SyncFail)
		for d := range cell.Dist {
			out.Dist[d] += float64(weight * cell.Dist[d])
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
