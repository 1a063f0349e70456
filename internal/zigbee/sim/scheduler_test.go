package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"

	"wazabee/internal/obs"
)

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(30*time.Millisecond, func() { got = append(got, 3) })
	s.At(10*time.Millisecond, func() { got = append(got, 1) })
	s.At(20*time.Millisecond, func() { got = append(got, 2) })
	s.RunUntil(time.Second)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("execution order = %v, want [1 2 3]", got)
	}
	if s.Now() != time.Second {
		t.Fatalf("Now() = %v after RunUntil(1s)", s.Now())
	}
}

func TestSchedulerTieBreaksByInsertion(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5*time.Millisecond, func() { got = append(got, i) })
	}
	s.RunUntil(5 * time.Millisecond)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-broken order[%d] = %d, want insertion order", i, v)
		}
	}
}

func TestSchedulerClampsPastEvents(t *testing.T) {
	s := NewScheduler()
	s.At(10*time.Millisecond, func() {})
	s.RunUntil(10 * time.Millisecond)
	fired := time.Duration(-1)
	s.At(time.Millisecond, func() { fired = s.Now() }) // in the past: clamps to now
	s.RunUntil(10 * time.Millisecond)
	if fired != 10*time.Millisecond {
		t.Fatalf("past event fired at %v, want clamp to 10ms", fired)
	}
}

func TestSchedulerEventsScheduleEvents(t *testing.T) {
	s := NewScheduler()
	var at []time.Duration
	var chain func()
	chain = func() {
		at = append(at, s.Now())
		if len(at) < 5 {
			s.After(10*time.Millisecond, chain)
		}
	}
	s.After(10*time.Millisecond, chain)
	s.RunUntil(time.Second)
	if len(at) != 5 {
		t.Fatalf("chain ran %d times, want 5", len(at))
	}
	for i, v := range at {
		if want := time.Duration(i+1) * 10 * time.Millisecond; v != want {
			t.Fatalf("chain[%d] at %v, want %v", i, v, want)
		}
	}
}

// TestSchedulerBatchSplitInvariance is the scheduler-level core of the
// determinism contract: RunUntil(t) must execute the identical sequence
// regardless of how the interval is split into batches.
func TestSchedulerBatchSplitInvariance(t *testing.T) {
	build := func() (*Scheduler, *[]time.Duration) {
		s := NewScheduler()
		var trace []time.Duration
		var chain func()
		chain = func() {
			trace = append(trace, s.Now())
			s.After(7*time.Millisecond, chain)
		}
		s.After(0, chain)
		return s, &trace
	}

	oneShot, oneTrace := build()
	oneShot.RunUntil(time.Second)

	batched, batchedTrace := build()
	for t := 13 * time.Millisecond; t < time.Second; t += 13 * time.Millisecond {
		batched.RunUntil(t)
	}
	batched.RunUntil(time.Second)

	if len(*oneTrace) != len(*batchedTrace) {
		t.Fatalf("one-shot executed %d events, batched %d", len(*oneTrace), len(*batchedTrace))
	}
	for i := range *oneTrace {
		if (*oneTrace)[i] != (*batchedTrace)[i] {
			t.Fatalf("event %d at %v one-shot vs %v batched", i, (*oneTrace)[i], (*batchedTrace)[i])
		}
	}
}

func TestSchedulerStepAndDrain(t *testing.T) {
	s := NewScheduler()
	ran := 0
	for i := 0; i < 4; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() { ran++ })
	}
	if !s.Step() {
		t.Fatal("Step returned false with pending events")
	}
	if ran != 1 {
		t.Fatalf("ran = %d after one Step", ran)
	}
	s.Drain() // discards, never executes
	if ran != 1 {
		t.Fatalf("ran = %d after Drain, want still 1", ran)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after Drain", s.Len())
	}
	if s.Step() {
		t.Fatal("Step returned true on an empty queue")
	}
}

func TestSchedulerHighWaterMarks(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 10; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	if s.MaxDepth() != 10 {
		t.Fatalf("MaxDepth = %d, want 10", s.MaxDepth())
	}
	s.RunUntil(time.Second)
	if s.MaxDepth() != 10 {
		t.Fatalf("MaxDepth = %d after run, want sticky 10", s.MaxDepth())
	}
	if s.Executed() != 10 {
		t.Fatalf("Executed = %d, want 10", s.Executed())
	}
	s.noteLag(5 * time.Millisecond)
	s.noteLag(2 * time.Millisecond) // a smaller lag keeps the high-water mark
	if s.MaxLag() != 5*time.Millisecond {
		t.Fatalf("MaxLag = %v, want 5ms", s.MaxLag())
	}
}

func TestSchedulerPanicsOnNilFunc(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At(nil) did not panic")
		}
	}()
	NewScheduler().At(0, nil)
}

// TestSchedulerTypedAndCallbackOrder is the ordering property of the
// one queue: At callbacks and typed posts interleave, with same-instant
// ties, posts in the past and posts made from inside running events,
// and the execution order must equal a stable sort of every post by its
// (clamped) time.
func TestSchedulerTypedAndCallbackOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	s := NewScheduler()
	type post struct {
		at time.Duration
		id int
	}
	var posts []post
	var ran []int
	var run func(id int)
	schedule := func(at time.Duration) {
		id := len(posts)
		posts = append(posts, post{at: max(at, s.Now()), id: id})
		if rng.Intn(2) == 0 {
			s.At(at, func() { run(id) })
		} else {
			s.post(at, action{op: opData, arg: uint64(id)})
		}
	}
	run = func(id int) {
		ran = append(ran, id)
		// Re-post from inside the running event: in the past (clamped
		// to now), at now (a tie behind everything pending at now) or
		// ahead.
		for k := rng.Intn(3); k > 0 && len(posts) < 5000; k-- {
			schedule(s.Now() + time.Duration(rng.Intn(4)-1)*time.Millisecond)
		}
	}
	s.dispatch = func(a action) { run(int(a.arg)) }
	for i := 0; i < 500; i++ {
		schedule(time.Duration(rng.Intn(50)) * time.Millisecond)
	}
	s.RunUntil(time.Hour)

	want := append([]post(nil), posts...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if len(ran) != len(want) {
		t.Fatalf("executed %d events, posted %d", len(ran), len(want))
	}
	for i := range want {
		if ran[i] != want[i].id {
			t.Fatalf("event %d: ran post %d, want post %d (at %v)", i, ran[i], want[i].id, want[i].at)
		}
	}
}

// TestQueueEntryHoldsNoPointers keeps the queue out of the garbage
// collector's sight: an entry and the action it carries hold no
// pointer, slice, map, func, interface, string or channel, so moving
// entries through the queues needs no write barrier.
func TestQueueEntryHoldsNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Func, reflect.Interface, reflect.String, reflect.Chan:
			t.Errorf("%s is a %s", path, typ.Kind())
		}
	}
	for _, typ := range []reflect.Type{reflect.TypeFor[entry](), reflect.TypeFor[action]()} {
		walk(typ.Name(), typ)
	}
	if got := unsafe.Sizeof(entry{}); got != 32 {
		t.Errorf("an entry takes %d bytes, want 32", got)
	}
}

// checkClosureTable checks the closure table against the queues: each
// pending callback holds a slot of its own, every other slot is free
// and nil, and a slot is never both. It returns how many callbacks are
// pending.
func checkClosureTable(s *Scheduler) (int, error) {
	seen := make([]bool, len(s.fns))
	pending := 0
	for _, e := range slices.Concat(s.near, s.far) {
		if e.a.op != opFunc {
			continue
		}
		if seen[e.a.arg] || s.fns[e.a.arg] == nil {
			return 0, fmt.Errorf("pending callback slot %d is shared or empty", e.a.arg)
		}
		seen[e.a.arg] = true
		pending++
	}
	for _, slot := range s.fnFree {
		if seen[slot] || s.fns[slot] != nil {
			return 0, fmt.Errorf("free slot %d is pending, listed twice or holds a callback", slot)
		}
		seen[slot] = true
	}
	if pending+len(s.fnFree) != len(s.fns) {
		return 0, fmt.Errorf("%d pending callbacks + %d free slots, the table holds %d", pending, len(s.fnFree), len(s.fns))
	}
	return pending, nil
}

// TestSchedulerReleasesActions checks that the closure table never
// keeps a callback alive past its event: mid-run, every pending
// callback's slot holds it and every free slot is nil, the two making
// up the whole table; after Drain, the table is empty and cleared.
func TestSchedulerReleasesActions(t *testing.T) {
	nw, err := New(Star(6), Config{Seed: 4, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	s := nw.Scheduler()
	// Callbacks due before and after the mid-run stop, one of which
	// posts another from inside its event into a slot just freed.
	for i := 1; i <= 8; i++ {
		s.At(time.Duration(i)*400*time.Millisecond, func() {})
	}
	s.At(time.Second, func() { s.After(2*time.Second, func() {}) })
	nw.Run(2500 * time.Millisecond)
	if s.Len() == 0 {
		t.Fatal("no pending events mid-run")
	}
	pending, err := checkClosureTable(s)
	if err != nil {
		t.Fatal(err)
	}
	if pending != 3 || len(s.fnFree) == 0 {
		t.Errorf("%d pending callbacks and %d free slots mid-run, want 3 and some", pending, len(s.fnFree))
	}

	s.Drain()
	if s.Len() != 0 || len(s.fns) != 0 || len(s.fnFree) != 0 {
		t.Fatalf("after Drain: Len %d, %d closure slots, %d free", s.Len(), len(s.fns), len(s.fnFree))
	}
	for i, fn := range s.fns[:cap(s.fns)] {
		if fn != nil {
			t.Fatalf("closure slot %d holds a callback after Drain", i)
		}
	}
}
