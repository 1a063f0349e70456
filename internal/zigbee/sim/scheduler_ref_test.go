package sim

import (
	"math/rand"
	"testing"
	"time"

	"wazabee/internal/randsrc"
)

// refEvent is one pending event of the reference scheduler.
type refEvent struct {
	at  time.Duration
	seq uint64
	id  int
}

// refScheduler is the contract the Scheduler must keep, written as
// plainly as possible: the pending events in a slice, the next one
// found by a linear scan for the least (clamped time, posting order).
type refScheduler struct {
	now      time.Duration
	seq      uint64
	pending  []refEvent
	executed uint64
	maxDepth int
}

func (r *refScheduler) post(at time.Duration, id int) {
	r.seq++
	r.pending = append(r.pending, refEvent{at: max(at, r.now), seq: r.seq, id: id})
	r.maxDepth = max(r.maxDepth, len(r.pending))
}

// next returns the index of the earliest pending event, or -1.
func (r *refScheduler) next() int {
	best := -1
	for i, e := range r.pending {
		if best < 0 || e.at < r.pending[best].at || e.at == r.pending[best].at && e.seq < r.pending[best].seq {
			best = i
		}
	}
	return best
}

// schedHarness drives a Scheduler and a refScheduler with the same
// calls. Every event's children (the events it posts when it runs) are
// a pure function of the harness seed and the event's id, and ids are
// handed out in posting order, so the reference can run the same events
// without sharing the Scheduler's: as long as both execute the same
// order, they post the same children. The Scheduler gets each event in
// one of the two entry kinds, chosen by its id: an At or After callback,
// which waits in the closure table, or a typed action posted through
// post and run by the harness's dispatch.
type schedHarness struct {
	t    *testing.T
	seed uint64
	s    *Scheduler
	ref  refScheduler

	ran, refRan       []int // executed ids, in order
	posted, refPosted int   // ids handed out
	checked           int   // prefix of ran already compared
}

// newSchedHarness returns a harness over a fresh Scheduler whose
// dispatch runs the harness's typed actions.
func newSchedHarness(t *testing.T, seed uint64) *schedHarness {
	h := &schedHarness{t: t, seed: seed, s: NewScheduler()}
	h.s.dispatch = func(a action) {
		if a.op != opData || a.node != -int32(a.arg) {
			t.Fatalf("dispatched %+v, which the harness never posted", a)
		}
		h.run(int(a.arg))
	}
	return h
}

// harnessMaxEvents bounds how many events the callbacks may post, so
// chains of children cannot grow without end.
const harnessMaxEvents = 4000

// harnessDelay maps a random word to a delay of one of eight classes:
// zero, negative (clamped to now), sub-millisecond, the 1–10 ms of the
// per-frame MAC timers, just below 100 ms, exactly 100 ms or 1 ns more,
// 100–500 ms and seconds — on coarse grids, so that events often tie.
// 10 ms and 100 ms bound the MAC timers from above and the cadence
// timers from below.
func harnessDelay(x uint64) time.Duration {
	m := x >> 3
	switch x % 8 {
	case 0:
		return 0
	case 1:
		return -time.Duration(1+m%5) * time.Millisecond
	case 2:
		return time.Duration(1+m%10) * 100 * time.Microsecond
	case 3:
		return time.Duration(1+m%10) * time.Millisecond
	case 4:
		return 100*time.Millisecond - time.Duration(1+m%3)
	case 5:
		return 100*time.Millisecond + time.Duration(m%2)
	case 6:
		return 100*time.Millisecond + time.Duration(m%4)*100*time.Millisecond
	default:
		return time.Second + time.Duration(m%4)*500*time.Millisecond
	}
}

// children returns the delays of the events id posts when it runs: none
// half of the time, else one to three.
func (h *schedHarness) children(id int) []time.Duration {
	x := randsrc.SplitMix64(h.seed ^ uint64(id)*0x9e3779b97f4a7c15)
	n := 0
	if x%2 == 1 {
		n = 1 + int(x>>1%3)
	}
	out := make([]time.Duration, n)
	for i := range out {
		x = randsrc.SplitMix64(x)
		out[i] = harnessDelay(x)
	}
	return out
}

// schedule posts event id at t on the Scheduler: through At, After or
// post, by id modulo 3.
func (h *schedHarness) schedule(t time.Duration, id int) {
	switch id % 3 {
	case 0:
		h.s.At(t, func() { h.run(id) })
	case 1:
		h.s.After(t-h.s.Now(), func() { h.run(id) })
	default:
		h.s.post(t, action{op: opData, node: -int32(id), arg: uint64(id)})
	}
}

// run executes event id on the Scheduler: it records the id and posts
// the event's children.
func (h *schedHarness) run(id int) {
	h.ran = append(h.ran, id)
	for _, d := range h.children(id) {
		if h.posted >= harnessMaxEvents {
			return
		}
		child := h.posted
		h.posted++
		h.schedule(h.s.Now()+d, child)
	}
}

// postBoth posts a fresh event d from now on both schedulers.
func (h *schedHarness) postBoth(d time.Duration) {
	id := h.posted
	h.posted++
	h.schedule(h.s.Now()+d, id)
	h.refPosted++
	h.ref.post(h.ref.now+d, id)
}

// refStep runs the reference's earliest event.
func (h *schedHarness) refStep() bool {
	i := h.ref.next()
	if i < 0 {
		return false
	}
	e := h.ref.pending[i]
	h.ref.pending = append(h.ref.pending[:i], h.ref.pending[i+1:]...)
	h.ref.now = e.at
	h.ref.executed++
	h.refRan = append(h.refRan, e.id)
	for _, d := range h.children(e.id) {
		if h.refPosted >= harnessMaxEvents {
			break
		}
		h.ref.post(h.ref.now+d, h.refPosted)
		h.refPosted++
	}
	return true
}

// refRunUntil is RunUntil on the reference.
func (h *schedHarness) refRunUntil(t time.Duration) uint64 {
	if t < h.ref.now {
		return 0
	}
	var n uint64
	for {
		i := h.ref.next()
		if i < 0 || h.ref.pending[i].at > t {
			break
		}
		h.refStep()
		n++
	}
	h.ref.now = t
	return n
}

// check compares everything the Scheduler exposes with the reference.
func (h *schedHarness) check(call string) {
	h.t.Helper()
	if len(h.ran) != len(h.refRan) {
		h.t.Fatalf("after %s: %d events executed, reference %d", call, len(h.ran), len(h.refRan))
	}
	for i := h.checked; i < len(h.ran); i++ {
		if h.ran[i] != h.refRan[i] {
			h.t.Fatalf("after %s: event %d ran id %d, reference id %d", call, i, h.ran[i], h.refRan[i])
		}
	}
	h.checked = len(h.ran)
	if h.s.Now() != h.ref.now {
		h.t.Fatalf("after %s: Now() = %v, reference %v", call, h.s.Now(), h.ref.now)
	}
	if h.s.Len() != len(h.ref.pending) {
		h.t.Fatalf("after %s: Len() = %d, reference %d", call, h.s.Len(), len(h.ref.pending))
	}
	at, ok := h.s.NextAt()
	var refAt time.Duration
	i := h.ref.next()
	if i >= 0 {
		refAt = h.ref.pending[i].at
	}
	if ok != (i >= 0) || at != refAt {
		h.t.Fatalf("after %s: NextAt() = %v, %v, reference %v, %v", call, at, ok, refAt, i >= 0)
	}
	if h.s.Executed() != h.ref.executed {
		h.t.Fatalf("after %s: Executed() = %d, reference %d", call, h.s.Executed(), h.ref.executed)
	}
	if h.s.MaxDepth() != h.ref.maxDepth {
		h.t.Fatalf("after %s: MaxDepth() = %d, reference %d", call, h.s.MaxDepth(), h.ref.maxDepth)
	}
	if _, err := checkClosureTable(h.s); err != nil {
		h.t.Fatalf("after %s: %v", call, err)
	}
}

// runSchedulerScript drives a fresh Scheduler and the reference with
// the calls ops encodes, one byte each: posts from outside, Step,
// RunUntil at a boundary behind, at or ahead of now, and Drain. Every
// call is checked against the reference, and a final RunUntil far
// ahead executes whatever is left.
func runSchedulerScript(t *testing.T, seed uint64, ops []byte) {
	h := newSchedHarness(t, seed)
	x := seed
	for _, op := range ops {
		x = randsrc.SplitMix64(x ^ uint64(op))
		switch op % 8 {
		case 0, 1, 2:
			if h.posted < harnessMaxEvents {
				h.postBoth(harnessDelay(x))
			}
			h.check("post")
		case 3, 4:
			got, want := h.s.Step(), h.refStep()
			if got != want {
				t.Fatalf("Step() = %v, reference %v", got, want)
			}
			h.check("Step")
		case 5, 6:
			until := h.s.Now() + harnessDelay(x)
			got, want := h.s.RunUntil(until), h.refRunUntil(until)
			if got != want {
				t.Fatalf("RunUntil(%v) executed %d events, reference %d", until, got, want)
			}
			h.check("RunUntil")
		default:
			if op>>3%4 == 0 {
				h.s.Drain()
				h.ref.pending = h.ref.pending[:0]
				h.check("Drain")
			} else {
				got, want := h.s.Step(), h.refStep()
				if got != want {
					t.Fatalf("Step() = %v, reference %v", got, want)
				}
				h.check("Step")
			}
		}
	}
	until := h.s.Now() + time.Hour
	if got, want := h.s.RunUntil(until), h.refRunUntil(until); got != want {
		t.Fatalf("final RunUntil executed %d events, reference %d", got, want)
	}
	h.check("final RunUntil")
	if h.s.Len() != 0 {
		t.Fatalf("Len() = %d after the final RunUntil", h.s.Len())
	}
}

// TestSchedulerMatchesReference checks the Scheduler's whole contract
// against refScheduler: the execution order is the order of (clamped
// time, posting order) over every post, callbacks and typed actions
// mixed, including posts made by running events and posts at now,
// across any interleaving of Step, RunUntil and Drain; Now, Len,
// NextAt, Executed and MaxDepth match the reference after every call,
// and the closure table accounts for every pending callback as its
// slots are reused.
func TestSchedulerMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		ops := make([]byte, 1500)
		rng.Read(ops)
		runSchedulerScript(t, seed, ops)
	}
}

// FuzzSchedulerOrder is TestSchedulerMatchesReference over arbitrary
// call scripts.
func FuzzSchedulerOrder(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 13})
	f.Add(uint64(7), []byte("post step run drain post post post step step run"))
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runSchedulerScript(t, seed, ops)
	})
}

// TestSchedulerNearQueueOverflow posts twice nearCap events due within
// the near horizon: the near queue fills, the rest go to the far heap,
// and the order, Len, NextAt and the marks still match the reference.
func TestSchedulerNearQueueOverflow(t *testing.T) {
	h := newSchedHarness(t, 3)
	for i := 0; i < 2*nearCap; i++ {
		h.postBoth(time.Duration(i*7919%1000) * 99 * time.Microsecond)
	}
	h.check("post")
	if len(h.s.near) != nearCap || len(h.s.far) != nearCap {
		t.Fatalf("near queue holds %d events and far heap %d, want %d each", len(h.s.near), len(h.s.far), nearCap)
	}
	for until := time.Duration(0); h.s.Len() > 0; until += 7 * time.Millisecond {
		got, want := h.s.RunUntil(until), h.refRunUntil(until)
		if got != want {
			t.Fatalf("RunUntil(%v) executed %d events, reference %d", until, got, want)
		}
		h.check("RunUntil")
	}
}
