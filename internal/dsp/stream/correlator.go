package stream

import (
	"math/bits"

	"wazabee/internal/dsp"
)

// Correlator is the streaming Access-Address/preamble synchronisation
// stage. It accumulates phase increments, maintains the per-sampling-
// phase symbol sums and hard bit decisions incrementally, and scans
// each phase for the bit pattern with the exact candidate-selection
// semantics of the one-shot receiver (dsp.FindPattern ranking plus
// dsp.SoftScore tie-breaking across phases): per phase the candidate
// with the fewest mismatches wins, earliest position on ties, scanning
// freezes once a zero-error match is found; across phases the
// qualifying candidate with the highest soft correlation wins.
//
// All carry-over state — partial symbol windows at chunk boundaries,
// scan positions, per-phase best candidates — lives inside the stage,
// so feeding a capture in chunks of any size produces bit-identical
// decisions to processing it whole.
//
// It is the one synchronisation search of every production receiver
// (core.RxStream, ieee802154.PHY.DemodulateStats, ble.PHY.
// DemodulateFrame). A pattern of at most 64 bits is scanned as a packed
// 64-bit window, one XOR and popcount per offset; a longer one falls
// back to the byte-wise comparison. Both count the same mismatches, so
// the decisions match dsp.FindPattern, which stays byte-wise as the
// reference the tests compare against.
type Correlator struct {
	// pattern is the hard bit pattern to correlate (the 32-bit WazaBee
	// Access Address, or an 802.15.4 preamble window).
	pattern []byte
	// maxErrors is the tolerated mismatch count for a candidate to
	// qualify.
	maxErrors int
	// sps is the number of samples per symbol; the correlator tracks
	// one candidate search per sampling phase.
	sps int
	// packed reports that the pattern is 1 to 64 bits of 0s and 1s,
	// held in the low bits of word (first bit highest) with mask
	// selecting them.
	packed     bool
	word, mask uint64

	pool   *BufferPool
	incs   []float64
	phases []phaseState
}

// phaseState is the per-sampling-phase carry-over state.
type phaseState struct {
	sums []float64
	bits []byte
	// scan is the next candidate offset (symbol index) to evaluate.
	scan int
	// best candidate so far: qualifying iff has.
	bestPos, bestErrs int
	has               bool
}

// NewCorrelator builds a correlator over pool-backed buffers. pool nil
// falls back to the shared pool.
func NewCorrelator(pool *BufferPool, pattern []byte, maxErrors, sps int) *Correlator {
	return newCorrelator(pool, pattern, maxErrors, sps, 4096)
}

// Correlate is the one-shot form of the correlator for a whole capture:
// it discriminates sig straight into the correlator's increment buffer
// and scans every sampling phase, exactly as Process(dsp.Discriminate(sig))
// would. The caller reads Best and Sums, then calls Close.
func Correlate(pool *BufferPool, sig dsp.IQ, pattern []byte, maxErrors, sps int) *Correlator {
	c := newCorrelator(pool, pattern, maxErrors, sps, len(sig))
	c.incs = dsp.DiscriminateInto(c.incs, sig)
	c.extend()
	return c
}

// newCorrelator sizes the pooled buffers for incs phase increments.
func newCorrelator(pool *BufferPool, pattern []byte, maxErrors, sps, incs int) *Correlator {
	pool = Or(pool)
	c := &Correlator{
		pattern:   pattern,
		maxErrors: maxErrors,
		sps:       sps,
		packed:    len(pattern) > 0 && len(pattern) <= 64,
		pool:      pool,
		incs:      pool.F64(incs),
		phases:    make([]phaseState, sps),
	}
	if c.packed {
		for _, b := range pattern {
			if b > 1 {
				c.packed = false
			}
			c.word = c.word<<1 | uint64(b)
		}
		c.mask = ^uint64(0) >> (64 - len(pattern))
	}
	symbols := incs/max(sps, 1) + 1
	for p := range c.phases {
		c.phases[p] = phaseState{
			sums:     pool.F64(symbols),
			bits:     pool.Bits(symbols),
			bestErrs: maxErrors + 1,
		}
	}
	return c
}

// Name implements Stage.
func (c *Correlator) Name() string { return "aa-correlate" }

// Reset implements Stage: it drops every retained increment and
// candidate while keeping buffer capacity.
func (c *Correlator) Reset() {
	c.incs = c.incs[:0]
	for p := range c.phases {
		ps := &c.phases[p]
		ps.sums = ps.sums[:0]
		ps.bits = ps.bits[:0]
		ps.scan = 0
		ps.bestPos, ps.bestErrs, ps.has = 0, c.maxErrors+1, false
	}
}

// Close returns the stage's buffers to the pool. The correlator must
// not be used afterwards.
func (c *Correlator) Close() {
	c.pool.PutF64(c.incs)
	c.incs = nil
	for p := range c.phases {
		c.pool.PutF64(c.phases[p].sums)
		c.pool.PutBits(c.phases[p].bits)
		c.phases[p].sums, c.phases[p].bits = nil, nil
	}
}

// Process appends a chunk of phase increments and advances the
// per-phase symbol integration and pattern scans.
func (c *Correlator) Process(incs []float64) {
	c.incs = append(c.incs, incs...)
	c.extend()
}

// extend grows every phase's symbol sums/bits to cover the retained
// increments and advances its candidate scan.
func (c *Correlator) extend() {
	sps := c.sps
	for p := range c.phases {
		ps := &c.phases[p]
		// Complete symbol windows available at this phase. The inner
		// summation order matches dsp.IntegrateSymbols exactly so the
		// floating-point results are bit-identical. The bit is set
		// without a branch: a branch on a noisy sum mispredicts about
		// every other symbol and serialises the independent sums.
		if p < len(c.incs) {
			n := (len(c.incs) - p) / sps
			sums, bits := ps.sums, ps.bits
			for k := len(sums); k < n; k++ {
				var sum float64
				for _, v := range c.incs[p+k*sps : p+(k+1)*sps] {
					sum += v
				}
				var bit byte
				if sum > 0 {
					bit = 1
				}
				sums = append(sums, sum)
				bits = append(bits, bit)
			}
			ps.sums, ps.bits = sums, bits
		}
		c.scanPhase(ps)
	}
}

// scanPhase advances the candidate search over newly available windows,
// replicating dsp.FindPattern: ascending offsets, a candidate must
// strictly beat the best so far (initially maxErrors), and the scan
// freezes after a perfect match.
func (c *Correlator) scanPhase(ps *phaseState) {
	if ps.has && ps.bestErrs == 0 {
		return
	}
	n := len(c.pattern)
	if ps.scan+n > len(ps.bits) {
		return
	}
	if !c.packed {
		c.scanBytes(ps)
		return
	}
	// w slides over the bit stream: after the shift in iteration off it
	// holds bits[off : off+n], first bit highest, like c.word.
	var w uint64
	for _, b := range ps.bits[ps.scan : ps.scan+n-1] {
		w = w<<1 | uint64(b)
	}
	for off := ps.scan; off+n <= len(ps.bits); off++ {
		w = (w<<1 | uint64(ps.bits[off+n-1])) & c.mask
		ps.scan = off + 1
		if ps.take(off, bits.OnesCount64(w^c.word)) {
			return
		}
	}
}

// scanBytes is scanPhase for patterns the packed window cannot hold:
// it compares byte by byte, abandoning a window once it cannot win.
func (c *Correlator) scanBytes(ps *phaseState) {
	for off := ps.scan; off+len(c.pattern) <= len(ps.bits); off++ {
		limit := ps.bestErrs - 1
		errs := 0
		for i, pb := range c.pattern {
			if ps.bits[off+i] != pb {
				errs++
				if errs > limit {
					break
				}
			}
		}
		ps.scan = off + 1
		if ps.take(off, errs) {
			return
		}
	}
}

// take records the window at off as the phase's best candidate when its
// mismatch count strictly beats the best so far, and reports whether it
// is a perfect match, which freezes the scan.
func (ps *phaseState) take(off, errs int) (frozen bool) {
	// bestErrs-1 rather than errs < bestErrs: FindPattern's limit
	// arithmetic, which wraps the same way for maxErrors = MaxInt.
	if errs > ps.bestErrs-1 {
		return false
	}
	ps.bestErrs = errs
	ps.bestPos = off
	ps.has = true
	return errs == 0
}

// Candidate is the correlator's current synchronisation decision.
type Candidate struct {
	// Phase is the winning sampling phase, Pos the symbol offset of the
	// pattern within that phase's bit stream.
	Phase, Pos int
	// Errors is the hard mismatch count inside the pattern window,
	// Score the soft correlation of the window.
	Errors int
	Score  float64
}

// Best returns the current cross-phase winner, ranked by soft
// correlation with ties resolving to the lowest phase — the same
// decision the one-shot receiver makes over the data seen so far.
func (c *Correlator) Best() (Candidate, bool) {
	var best Candidate
	found := false
	for p := range c.phases {
		ps := &c.phases[p]
		if !ps.has {
			continue
		}
		score, ok := dsp.SoftScore(ps.sums, c.pattern, ps.bestPos)
		if !ok {
			continue
		}
		if !found || score > best.Score {
			best = Candidate{Phase: p, Pos: ps.bestPos, Errors: ps.bestErrs, Score: score}
			found = true
		}
	}
	return best, found
}

// Sums exposes a phase's symbol sums (read-only; valid until the next
// Process, Compact or Reset).
func (c *Correlator) Sums(phase int) []float64 { return c.phases[phase].sums }

// Len returns the number of retained increments.
func (c *Correlator) Len() int { return len(c.incs) }

// Compact drops the first n retained increments and re-anchors every
// phase to the new origin, reprocessing the retained tail in place. The
// receiver calls it after consuming a decoded frame, so buffer growth
// is bounded by the frame length rather than the stream length.
func (c *Correlator) Compact(n int) {
	if n <= 0 {
		return
	}
	if n >= len(c.incs) {
		c.Reset()
		return
	}
	kept := copy(c.incs, c.incs[n:])
	c.incs = c.incs[:kept]
	for p := range c.phases {
		ps := &c.phases[p]
		ps.sums = ps.sums[:0]
		ps.bits = ps.bits[:0]
		ps.scan = 0
		ps.bestPos, ps.bestErrs, ps.has = 0, c.maxErrors+1, false
	}
	c.extend()
}
