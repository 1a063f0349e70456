package sim

import (
	"sync"
	"testing"
	"time"
)

// manualClock is a test clock: time stands still until Advance moves it,
// firing any timers that come due. It lets pacing tests replace sleeps
// with explicit clock control.
type manualClock struct {
	mu         sync.Mutex
	armedMore  *sync.Cond
	now        time.Time
	timers     []*manualTimer
	armedTotal int
}

type manualTimer struct {
	at time.Time
	ch chan time.Time
}

// newManualClock returns a manual clock starting at an arbitrary fixed
// instant.
func newManualClock() *manualClock {
	c := &manualClock{now: time.Unix(1_700_000_000, 0)}
	c.armedMore = sync.NewCond(&c.mu)
	return c
}

// Now returns the manual clock's current instant.
func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After arms a timer d from now. Already-due timers (d <= 0) fire
// immediately.
func (c *manualClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &manualTimer{at: c.now.Add(d), ch: make(chan time.Time, 1)}
	if d <= 0 {
		t.ch <- c.now
	} else {
		c.timers = append(c.timers, t)
	}
	c.armedTotal++
	c.armedMore.Broadcast()
	return t.ch
}

// Advance moves the clock forward by d, firing every timer that comes
// due (in arming order; the pacer only ever has one outstanding).
func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	kept := c.timers[:0]
	for _, t := range c.timers {
		if !t.at.After(c.now) {
			t.ch <- c.now
		} else {
			kept = append(kept, t)
		}
	}
	c.timers = kept
}

// AwaitTimers blocks until total timers have been armed since the clock
// was created — the synchronisation point tests use before Advance, so
// "the pacer is waiting on its next deadline" never needs a sleep.
func (c *manualClock) AwaitTimers(total int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.armedTotal < total {
		c.armedMore.Wait()
	}
}

func TestManualClockAdvanceFiresTimers(t *testing.T) {
	c := newManualClock()
	ch := c.After(10 * time.Millisecond)
	select {
	case <-ch:
		t.Fatal("timer fired before Advance")
	default:
	}
	c.Advance(5 * time.Millisecond)
	select {
	case <-ch:
		t.Fatal("timer fired early")
	default:
	}
	c.Advance(5 * time.Millisecond)
	select {
	case <-ch:
	default:
		t.Fatal("timer did not fire at its deadline")
	}
	// Non-positive delays fire immediately.
	select {
	case <-c.After(0):
	default:
		t.Fatal("After(0) did not fire immediately")
	}
}

// TestPacerMapsVirtualToWall drives a pacer with a manual clock: events
// execute exactly when the wall clock crosses their mapped deadlines,
// with no sleeps anywhere in the test.
func TestPacerMapsVirtualToWall(t *testing.T) {
	sched := NewScheduler()
	clock := newManualClock()
	fired := make(chan time.Duration, 16)
	var chain func()
	chain = func() {
		fired <- sched.Now()
		if sched.Now() < 30*time.Millisecond {
			sched.After(10*time.Millisecond, chain)
		}
	}
	sched.After(10*time.Millisecond, chain)

	stop := make(chan struct{})
	done := make(chan struct{})
	p := &pacer{sched: sched, clock: clock}
	go func() {
		p.run(stop)
		close(done)
	}()

	for i, want := range []time.Duration{10, 20, 30} {
		clock.AwaitTimers(i + 1) // pacer armed its next deadline
		clock.Advance(10 * time.Millisecond)
		got := <-fired
		if got != want*time.Millisecond {
			t.Fatalf("event %d fired at virtual %v, want %v", i, got, want*time.Millisecond)
		}
	}
	<-done // queue drained after the last event
}

func TestPacerStops(t *testing.T) {
	sched := NewScheduler()
	sched.After(time.Hour, func() { t.Error("event fired despite stop") })
	clock := newManualClock()
	stop := make(chan struct{})
	done := make(chan struct{})
	p := &pacer{sched: sched, clock: clock}
	go func() {
		p.run(stop)
		close(done)
	}()
	clock.AwaitTimers(1)
	close(stop)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pacer did not stop")
	}
}

func TestPacerReportsLag(t *testing.T) {
	sched := NewScheduler()
	sched.After(10*time.Millisecond, func() {})
	clock := newManualClock()
	p := &pacer{sched: sched, clock: clock}
	done := make(chan struct{})
	go func() {
		p.run(nil)
		close(done)
	}()
	clock.AwaitTimers(1)
	clock.Advance(50 * time.Millisecond) // overshoot the deadline by 40ms
	<-done
	if sched.MaxLag() != 40*time.Millisecond {
		t.Fatalf("MaxLag = %v, want 40ms", sched.MaxLag())
	}
}

func TestPacerRunsBacklogImmediately(t *testing.T) {
	// Events already due when Run starts execute without waiting.
	sched := NewScheduler()
	ran := 0
	for i := 0; i < 3; i++ {
		sched.After(0, func() { ran++ })
	}
	p := &pacer{sched: sched, clock: newManualClock()}
	p.run(nil)
	if ran != 3 {
		t.Fatalf("ran = %d, want 3", ran)
	}
}
