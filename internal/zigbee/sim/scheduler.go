// Package sim is the virtual-time discrete-event simulator behind the
// campaign-scale Zigbee scenarios: a two-level queue of timed events
// driven by a virtual clock, node actors running 802.15.4 MAC state
// machines (beaconing, association, CSMA-CA, acknowledgements, PAN-ID
// conflict resolution) as typed actions, and a shared per-channel
// medium whose frame deliveries come from a calibrated radio.Channel
// (the symbol or frame fidelity tier). A 2-second sensor cadence costs
// nanoseconds of wall time per period instead of 2 seconds, so
// thousand-node meshes simulate minutes of traffic per wall-clock
// second. A typed action is a pointer-free value that names its node
// and MAC record by index and rides in its queue entry, so the event
// loop's queues cost the garbage collector nothing, not even a write
// barrier while it marks.
//
// Determinism is the load-bearing property: every random draw flows from
// splitmix64-derived per-node streams (the Monte-Carlo runner's seed
// discipline), event ties break on insertion order, and deliveries never
// touch a shared random stream — so two runs with the same seed produce
// byte-identical capture sequences at any event-batch size, which is
// what lets capture digests act as regression oracles.
//
// The loop keeps one tally: each MAC outcome is counted once, on the
// node it happened to, and Stats sums the nodes. The registry's
// wazabee_sim_* series and the DebugHandler snapshot are refreshed from
// Stats at batch boundaries, the only points at which other goroutines
// see the simulation; captures reach synchronous taps only. The series
// exist only on a registry passed in Config.Registry: a nil registry or
// flight recorder means none, so a mesh built without them (every
// campaign trial) keeps its tally and telemetry ledger and reports to
// nothing process-wide.
//
// LiveNetwork, the package's real-time side, is a wall-clock ticker that
// steps the paper's two-node victim network (zigbee.Simulation) once per
// reporting period; it does not use the event queue.
package sim

import "time"

// nearHorizon splits the pending events between the scheduler's two
// queues: an event posted less than nearHorizon ahead of the clock goes
// to the short near queue, every other one to the far heap. It sits
// above every per-frame MAC timer — turnaround 192 µs, a CSMA backoff
// of at most 31 × 320 µs ≈ 9.9 ms, a frame of at most 4.3 ms, the
// acknowledgement wait of about 1.2 ms and the 2 ms association
// response — and at the shortest cadence timer, the 100 ms first scan
// retry (scanRetryBase); the 140 ms scan, the 500 ms association wait
// and the 2 s beacon and data cadences lie beyond it. So the few
// timers of the frames in flight never sift through the ~1,200 cadence
// timers of a thousand-node mesh. Only speed depends on the split: the
// order is the same for any horizon.
const nearHorizon = 100 * time.Millisecond

// nearCap bounds the near queue, whose post is linear in its length: a
// post that finds it full goes to the far heap. The near queue holds
// the timers of the frames in flight, about 5% of a mesh's nodes: at
// most 64 on the 1,111-node Tree(3,10) and 5 in a campaign trial, but
// a 10,000-node mesh fills a 256-entry queue within 12 virtual seconds,
// and there a 256-entry cap measured slower than one heap (DESIGN.md
// §12).
const nearCap = 64

// entry is one queue slot: the ordering key plus the action to run,
// carried in the entry itself. seq is the insertion sequence number:
// events at the same virtual instant execute in scheduling order, which
// makes the pop order total and the simulation deterministic regardless
// of queue internals. Neither the entry nor its action holds a pointer,
// so moving one is a plain 32-byte copy with no write barrier, and the
// queues are invisible to the garbage collector.
type entry struct {
	at  time.Duration
	seq uint64
	a   action
}

// before is the queue ordering: earlier time first, earlier insertion
// breaking ties.
func (e entry) before(o entry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Scheduler is the virtual-time event queue plus the virtual clock,
// which only ever moves forward to the timestamp of the event being
// executed. The queue has two levels with one total order: up to
// nearCap events due within nearHorizon of their posting sit in a
// short slice sorted latest first, every other event in a hand-rolled
// binary min-heap, and RunUntil runs the earlier of the two heads. An
// entry stays in the queue it was posted to. Each entry carries its
// action by value; an At or After callback waits in a side table of
// closures whose slots are reused through a free list, so a
// steady-state event loop allocates nothing to schedule. It is not
// safe for concurrent use: the simulation is single-threaded by
// design, and Network.Run publishes the scheduler's marks at batch
// boundaries, where other goroutines may read them.
type Scheduler struct {
	near   []entry  // sorted by (at, seq), earliest last
	far    []entry  // binary min-heap
	fns    []func() // pending At/After callbacks, indexed by an opFunc action's arg
	fnFree []uint32 // fns slots holding no callback

	// dispatch runs the typed actions a Network posts; At and After
	// callbacks need none.
	dispatch func(action)

	now time.Duration
	seq uint64

	executed uint64
	maxDepth int
}

// NewScheduler returns an empty scheduler at virtual time zero. The
// near queue starts with room for 8 entries, more than a campaign
// trial's star ever holds, so a trial's queue never grows.
func NewScheduler() *Scheduler {
	return &Scheduler{near: make([]entry, 0, 8)}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Len returns the number of pending events.
func (s *Scheduler) Len() int { return len(s.near) + len(s.far) }

// Executed returns how many events have run.
func (s *Scheduler) Executed() uint64 { return s.executed }

// MaxDepth returns the high-water mark of pending events, both queues
// together.
func (s *Scheduler) MaxDepth() int { return s.maxDepth }

// At schedules fn at virtual time t. Scheduling in the past is clamped
// to now: the event runs next, after already-pending events at the same
// instant.
func (s *Scheduler) At(t time.Duration, fn func()) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	var slot uint32
	if n := len(s.fnFree); n > 0 {
		slot = s.fnFree[n-1]
		s.fnFree = s.fnFree[:n-1]
		s.fns[slot] = fn
	} else {
		slot = uint32(len(s.fns))
		s.fns = append(s.fns, fn)
	}
	s.post(t, action{op: opFunc, arg: uint64(slot)})
}

// After schedules fn d from now; negative d is clamped to now.
func (s *Scheduler) After(d time.Duration, fn func()) {
	s.At(s.now+d, fn)
}

// post schedules a at virtual time t, clamped to now like At. Callbacks
// and typed actions share the one queue and sequence counter, so their
// relative order is exactly their posting order.
func (s *Scheduler) post(t time.Duration, a action) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	e := entry{at: t, seq: s.seq, a: a}
	if t-s.now < nearHorizon && len(s.near) < nearCap {
		// Move e from the end towards the front past every entry due
		// before it, which keeps those nearer the end that RunUntil takes
		// from. e has the highest seq, so an entry is due before it
		// exactly when it is due at or before e's instant.
		s.near = append(s.near, e)
		i := len(s.near) - 1
		for i > 0 && s.near[i-1].at <= e.at {
			s.near[i] = s.near[i-1]
			i--
		}
		s.near[i] = e
	} else {
		s.far = append(s.far, e)
		s.up(len(s.far) - 1)
	}
	if n := len(s.near) + len(s.far); n > s.maxDepth {
		s.maxDepth = n
	}
}

// head returns the next event to run and whether it is the near
// queue's; ok is false when both queues are empty.
func (s *Scheduler) head() (e entry, near, ok bool) {
	if n := len(s.near); n > 0 && (len(s.far) == 0 || s.near[n-1].before(s.far[0])) {
		return s.near[n-1], true, true
	}
	if len(s.far) > 0 {
		return s.far[0], false, true
	}
	return entry{}, false, false
}

// run removes e, the head of the near queue or the far heap, and
// executes it.
func (s *Scheduler) run(e entry, near bool) {
	if near {
		s.near = s.near[:len(s.near)-1]
	} else {
		s.pop()
	}
	s.now = e.at
	s.executed++
	if e.a.op != opFunc {
		s.dispatch(e.a)
		return
	}
	slot := uint32(e.a.arg)
	fn := s.fns[slot]
	s.fns[slot] = nil // release the closure
	s.fnFree = append(s.fnFree, slot)
	fn()
}

// RunUntil executes every event due at or before t, then advances the
// clock to t. It returns the number of events executed. Because the
// clock only ever moves to each event's own timestamp before its
// callback runs, splitting one RunUntil(t) into any sequence of smaller
// advances executes the identical event sequence — the batch-size
// independence the determinism tests pin down.
func (s *Scheduler) RunUntil(t time.Duration) uint64 {
	if t < s.now {
		return 0
	}
	var n uint64
	for {
		e, near, ok := s.head()
		if !ok || e.at > t {
			break
		}
		s.run(e, near)
		n++
	}
	s.now = t
	return n
}

// up restores the far heap's order from index i towards the root,
// moving a hole up instead of swapping.
func (s *Scheduler) up(i int) {
	e := s.far[i]
	for i > 0 {
		parent := (i - 1) / 2
		if s.far[parent].before(e) {
			break
		}
		s.far[i] = s.far[parent]
		i = parent
	}
	s.far[i] = e
}

// pop removes the far heap's root, sifting the last entry down from the
// root's hole.
func (s *Scheduler) pop() {
	last := len(s.far) - 1
	e := s.far[last]
	s.far = s.far[:last]
	if last == 0 {
		return
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && s.far[r].before(s.far[c]) {
			c = r
		}
		if !s.far[c].before(e) {
			break
		}
		s.far[i] = s.far[c]
		i = c
	}
	s.far[i] = e
}
