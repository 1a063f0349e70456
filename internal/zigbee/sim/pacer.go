package sim

import "time"

// wallClock abstracts wall time for the pacer, so real-time pacing can
// be driven deterministically in tests via manualClock.
type wallClock interface {
	// Now returns the current wall time.
	Now() time.Time
	// After returns a channel that delivers the time once d has elapsed.
	After(d time.Duration) <-chan time.Time
}

// systemClock is the real wall clock.
type systemClock struct{}

func (systemClock) Now() time.Time                         { return time.Now() }
func (systemClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// pacer drives a Scheduler in wall time: each pending event's virtual
// timestamp is mapped onto a wall deadline and executed when the wall
// clock reaches it. This is the whole difference between the batch
// simulator and a live network — the event core is identical, the pacer
// only decides *when* to call Step. Lag (the wall clock overshooting an
// event's deadline) is recorded as the scheduler's MaxLag high-water
// mark.
type pacer struct {
	// sched is the event queue to drive.
	sched *Scheduler
	// clock supplies wall time; nil uses the system clock.
	clock wallClock
}

// run paces the scheduler against the wall clock until the queue drains
// or stop closes. The virtual origin is anchored at the first call: an
// event at virtual t executes no earlier than start + (t - virtualNow).
// Events enqueued while running (the recurring chains of a live
// network) extend the run seamlessly.
func (p *pacer) run(stop <-chan struct{}) {
	clock := p.clock
	if clock == nil {
		clock = systemClock{}
	}
	start := clock.Now()
	v0 := p.sched.Now()
	for {
		at, ok := p.sched.NextAt()
		if !ok {
			return
		}
		deadline := start.Add(at - v0)
		if wait := deadline.Sub(clock.Now()); wait > 0 {
			select {
			case <-stop:
				return
			case <-clock.After(wait):
			}
		} else {
			// Late already: still honour stop between events so a
			// backlogged pacer remains interruptible.
			select {
			case <-stop:
				return
			default:
			}
		}
		p.sched.Step()
		if lag := clock.Now().Sub(deadline); lag > 0 {
			p.sched.noteLag(lag)
		}
	}
}
