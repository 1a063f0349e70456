// Package stream holds the receive path's shared synchronisation
// search and its scratch memory: Correlate, the one Access-Address /
// preamble correlator every receiver runs over a whole capture, and a
// sync.Pool-backed BufferPool for the three slab kinds it and the
// receivers move (complex IQ samples, float64 phase increments / symbol
// sums, hard-decision bits).
//
// Ownership contract (the pooling rules DESIGN.md §9 documents): a slab
// obtained from a BufferPool belongs to the caller until it is returned
// with the matching Put method. The correlator never retains the
// caller's capture; the sums and bits it exposes live in its own pooled
// slabs until Close. Returned buffers (e.g. a decoded PSDU) transfer
// ownership to the consumer and are never pooled.
package stream

import (
	"sync"
	"sync/atomic"

	"wazabee/internal/dsp"
)

// BufferPool recycles the pipeline's scratch slabs. The zero value is
// ready to use; the pool is safe for concurrent use. Get methods return
// a slab with length 0 and capacity ≥ the requested hint; callers
// append into it and hand it back with the matching Put.
//
// Slabs are stored behind *[]T header cells, and the cells themselves
// are recycled through sibling pools, so a warmed-up Get/Put cycle
// performs no heap allocation at all.
type BufferPool struct {
	iq, iqCells     sync.Pool // *[]complex128
	f64, f64Cells   sync.Pool // *[]float64
	bits, bitsCells sync.Pool // *[]byte

	hits   atomic.Uint64
	misses atomic.Uint64
}

// sharedPool is the process-wide default pool.
var sharedPool BufferPool

// Shared returns the process-wide BufferPool that the correlator and
// every receiver draw their scratch slabs from.
func Shared() *BufferPool { return &sharedPool }

// IQ returns a zero-length IQ slab with capacity at least capHint.
func (p *BufferPool) IQ(capHint int) dsp.IQ {
	if v := p.iq.Get(); v != nil {
		cell := v.(*[]complex128)
		buf := *cell
		*cell = nil
		p.iqCells.Put(cell)
		if cap(buf) >= capHint {
			p.hits.Add(1)
			return buf[:0]
		}
		// Too small for this request: drop it and allocate.
	}
	p.misses.Add(1)
	return make(dsp.IQ, 0, capHint)
}

// PutIQ returns an IQ slab to the pool. Slabs without capacity are
// ignored.
func (p *BufferPool) PutIQ(buf dsp.IQ) {
	if cap(buf) == 0 {
		return
	}
	var cell *[]complex128
	if v := p.iqCells.Get(); v != nil {
		cell = v.(*[]complex128)
	} else {
		cell = new([]complex128)
	}
	*cell = buf[:0]
	p.iq.Put(cell)
}

// F64 returns a zero-length float64 slab with capacity at least capHint
// (phase increments, per-symbol sums).
func (p *BufferPool) F64(capHint int) []float64 {
	if v := p.f64.Get(); v != nil {
		cell := v.(*[]float64)
		buf := *cell
		*cell = nil
		p.f64Cells.Put(cell)
		if cap(buf) >= capHint {
			p.hits.Add(1)
			return buf[:0]
		}
	}
	p.misses.Add(1)
	return make([]float64, 0, capHint)
}

// PutF64 returns a float64 slab to the pool. Slabs without capacity are
// ignored.
func (p *BufferPool) PutF64(buf []float64) {
	if cap(buf) == 0 {
		return
	}
	var cell *[]float64
	if v := p.f64Cells.Get(); v != nil {
		cell = v.(*[]float64)
	} else {
		cell = new([]float64)
	}
	*cell = buf[:0]
	p.f64.Put(cell)
}

// Bits returns a zero-length bit slab with capacity at least capHint.
func (p *BufferPool) Bits(capHint int) []byte {
	if v := p.bits.Get(); v != nil {
		cell := v.(*[]byte)
		buf := *cell
		*cell = nil
		p.bitsCells.Put(cell)
		if cap(buf) >= capHint {
			p.hits.Add(1)
			return buf[:0]
		}
	}
	p.misses.Add(1)
	return make([]byte, 0, capHint)
}

// PutBits returns a bit slab to the pool. Slabs without capacity are
// ignored.
func (p *BufferPool) PutBits(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	var cell *[]byte
	if v := p.bitsCells.Get(); v != nil {
		cell = v.(*[]byte)
	} else {
		cell = new([]byte)
	}
	*cell = buf[:0]
	p.bits.Put(cell)
}

// PoolStats is a point-in-time view of a BufferPool's reuse behaviour.
type PoolStats struct {
	// Hits counts Get calls satisfied by a recycled slab of sufficient
	// capacity; Misses counts Gets that had to allocate.
	Hits, Misses uint64
}

// Stats returns the cumulative hit/miss counts, for the
// wazabee_stream_pool_* gauges.
func (p *BufferPool) Stats() PoolStats {
	return PoolStats{Hits: p.hits.Load(), Misses: p.misses.Load()}
}
