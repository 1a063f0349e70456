package stream

import (
	"math"
	"math/rand"
	"testing"

	"wazabee/internal/dsp"
)

// correlateIncs runs Correlate's search over phase increments given
// directly, so a test can place a pattern symbol by symbol.
func correlateIncs(incs []float64, pattern []byte, maxErrors, sps int) *Correlator {
	c := newCorrelator(pattern, maxErrors, sps, len(incs))
	c.incs = append(c.incs, incs...)
	c.search()
	return c
}

func TestBufferPoolReuseAndStats(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	var p BufferPool

	iq := p.IQ(64)
	if len(iq) != 0 || cap(iq) < 64 {
		t.Fatalf("IQ slab len=%d cap=%d, want 0/≥64", len(iq), cap(iq))
	}
	p.PutIQ(iq)
	iq2 := p.IQ(32)
	if cap(iq2) < 64 {
		t.Errorf("recycled IQ slab cap=%d, want the returned slab (cap ≥ 64)", cap(iq2))
	}

	st := p.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}

	// An undersized recycled slab must be dropped, counting a miss.
	p.PutF64(p.F64(16))
	big := p.F64(1 << 16)
	if cap(big) < 1<<16 {
		t.Fatalf("F64 slab cap=%d, want ≥ %d", cap(big), 1<<16)
	}
	st = p.Stats()
	if st.Misses != 3 { // IQ(64), F64(16), F64(1<<16)
		t.Errorf("misses = %d, want 3", st.Misses)
	}

	// Bits round trip.
	b := p.Bits(8)
	b = append(b, 1, 0, 1)
	p.PutBits(b)
	b2 := p.Bits(4)
	if len(b2) != 0 {
		t.Errorf("recycled bit slab len=%d, want 0", len(b2))
	}
}

func TestBufferPoolAllocsPerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	var p BufferPool
	p.PutF64(p.F64(4096))
	p.PutIQ(p.IQ(4096))
	allocs := testing.AllocsPerRun(200, func() {
		f := p.F64(4096)
		p.PutF64(f)
		iq := p.IQ(4096)
		p.PutIQ(iq)
	})
	if allocs != 0 {
		t.Errorf("pool get/put allocates %v per run, want 0", allocs)
	}
}

// TestCorrelatorMatchesFindPattern: the correlator must make the exact
// candidate decision of the IntegrateSymbols → SliceBits → FindPattern
// → SoftScore chain.
func TestCorrelatorMatchesFindPattern(t *testing.T) {
	const sps = 4
	const maxErrors = 3
	pattern := []byte{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1}

	// A signal whose increments embed the pattern: random phase noise
	// with a strong patterned segment in the middle.
	rnd := rand.New(rand.NewSource(7))
	incs := make([]float64, 2048)
	for i := range incs {
		incs[i] = rnd.NormFloat64() * 0.2
	}
	at := 600
	for i, b := range pattern {
		v := 0.4
		if b == 0 {
			v = -0.4
		}
		for j := 0; j < sps; j++ {
			incs[at+i*sps+j] = v
		}
	}

	// Reference decision.
	wantPhase, wantPos, wantErrs := -1, 0, 0
	var wantScore float64
	for phase := 0; phase < sps; phase++ {
		sums := dsp.IntegrateSymbols(incs, phase, sps)
		bits := dsp.SliceBits(sums)
		pos, errs, ok := dsp.FindPattern(bits, pattern, maxErrors)
		if !ok {
			continue
		}
		score, ok := dsp.SoftScore(sums, pattern, pos)
		if !ok {
			continue
		}
		if wantPhase < 0 || score > wantScore {
			wantPhase, wantPos, wantErrs, wantScore = phase, pos, errs, score
		}
	}
	if wantPhase < 0 {
		t.Fatal("reference correlator found no candidate; test signal broken")
	}

	c := correlateIncs(incs, pattern, maxErrors, sps)
	defer c.Close()
	got, ok := c.Best()
	if !ok {
		t.Fatal("no candidate")
	}
	if got.Phase != wantPhase || got.Pos != wantPos || got.Errors != wantErrs || got.Score != wantScore {
		t.Errorf("candidate %+v, want phase=%d pos=%d errs=%d score=%v",
			got, wantPhase, wantPos, wantErrs, wantScore)
	}
	// The symbol sums must be bit-identical to the reference integration
	// at the winning phase.
	wantSums := dsp.IntegrateSymbols(incs, wantPhase, sps)
	gotSums := c.Sums(wantPhase)
	if len(gotSums) != len(wantSums) {
		t.Fatalf("%d sums, want %d", len(gotSums), len(wantSums))
	}
	for i := range gotSums {
		if gotSums[i] != wantSums[i] {
			t.Fatalf("sum %d differs (not bit-identical)", i)
		}
	}
}

// TestCorrelatorIntegratesLazily: a phase whose scan stops at a
// zero-error match holds only the sums the scan read, through the end
// of the match, until Sums asks for the rest; then it holds exactly the
// reference integration. A phase that never matches perfectly is
// integrated to the end of the capture by its scan.
func TestCorrelatorIntegratesLazily(t *testing.T) {
	const sps = 8
	pattern := []byte{
		1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 1, 0, 0, 0, 1,
		0, 1, 1, 0, 1, 1, 1, 0, 0, 1, 0, 0, 1, 1, 1, 1,
	}
	rnd := rand.New(rand.NewSource(11))
	incs := make([]float64, 600*sps+3)
	for i := range incs {
		incs[i] = rnd.NormFloat64() * 0.2
	}
	const at = 100
	for i, b := range pattern {
		v := 0.4
		if b == 0 {
			v = -0.4
		}
		for j := 0; j < sps; j++ {
			incs[(at+i)*sps+j] += v
		}
	}

	c := correlateIncs(incs, pattern, 4, sps)
	defer c.Close()
	if _, ok := c.Best(); !ok {
		t.Fatal("no candidate; test signal broken")
	}
	stopped := 0
	for phase := 0; phase < sps; phase++ {
		ps := &c.phases[phase]
		want := dsp.IntegrateSymbols(incs, phase, sps)
		held := len(want)
		if ps.has && ps.bestErrs == 0 {
			stopped++
			held = ps.bestPos + len(pattern)
		}
		if len(ps.sums) != held {
			t.Errorf("phase %d (best %d errors at %d): %d sums before Sums, want %d",
				phase, ps.bestErrs, ps.bestPos, len(ps.sums), held)
		}
		got := c.Sums(phase)
		if len(got) != len(want) {
			t.Fatalf("phase %d: Sums returned %d sums, reference %d", phase, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("phase %d: sum %d = %v, reference %v", phase, i, got[i], want[i])
			}
		}
	}
	if stopped == 0 {
		t.Fatal("no phase stopped at a zero-error match; test signal broken")
	}
}
