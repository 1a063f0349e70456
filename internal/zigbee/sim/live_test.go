package sim

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/zigbee"
)

// manualClock is a test clock: time stands still until Advance moves it,
// firing any timers that come due. It lets the reporting loop's tests
// replace sleeps with explicit clock control.
type manualClock struct {
	mu        sync.Mutex
	armedMore *sync.Cond
	now       time.Time
	timers    []*manualTimer
	armed     []time.Time // deadline of every timer armed so far
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
	c.armed = append(c.armed, t.at)
	c.armedMore.Broadcast()
	return t.ch
}

// Advance moves the clock forward by d, firing every timer that comes
// due (in arming order; the reporting loop only ever has one
// outstanding).
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
// "the loop is waiting on its next deadline" never needs a sleep. It
// returns the deadlines of the timers armed so far.
func (c *manualClock) AwaitTimers(total int) []time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.armed) < total {
		c.armedMore.Wait()
	}
	return append([]time.Time(nil), c.armed...)
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

// startManual starts a live network on a fresh victim network and a
// manual clock, and shuts it down when the test ends.
func startManual(t *testing.T, seed int64, interval time.Duration) (*LiveNetwork, *manualClock) {
	t.Helper()
	victims, err := zigbee.NewSimulation(seed, 8, 25)
	if err != nil {
		t.Fatal(err)
	}
	clock := newManualClock()
	live, err := startLive(victims, interval, zigbee.DefaultChannel, clock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(live.Shutdown)
	return live, clock
}

// nextCapture receives one capture and checks its sequence number.
func nextCapture(t *testing.T, live *LiveNetwork, seq uint64) {
	t.Helper()
	select {
	case c, ok := <-live.Captures():
		if !ok {
			t.Fatalf("capture stream closed before capture %d (err=%v)", seq, live.Err())
		}
		if c.Seq != seq {
			t.Fatalf("capture seq %d, want %d", c.Seq, seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no capture %d", seq)
	}
}

// TestLiveNetworkTicksOnDeadlines drives the reporting loop with a
// manual clock: tick k waits for start + k·interval, however late the
// tick before it ran, and each tick emits the next capture.
func TestLiveNetworkTicksOnDeadlines(t *testing.T) {
	const interval = 10 * time.Millisecond
	live, clock := startManual(t, 46, interval)
	start := clock.Now()
	for k, advance := range []time.Duration{15, 5, 10} {
		armed := clock.AwaitTimers(k + 1) // the loop waits on deadline k+1
		if want := start.Add(time.Duration(k+1) * interval); !armed[k].Equal(want) {
			t.Fatalf("tick %d waits for start+%v, want start+%v", k+1, armed[k].Sub(start), want.Sub(start))
		}
		clock.Advance(advance * time.Millisecond)
		nextCapture(t, live, uint64(k))
	}
}

// TestLiveNetworkCatchesUpBacklog lets three deadlines pass while the
// loop waits on the first: the two late ticks run without waiting, and
// the loop then waits for the fourth deadline.
func TestLiveNetworkCatchesUpBacklog(t *testing.T) {
	const interval = 10 * time.Millisecond
	live, clock := startManual(t, 47, interval)
	start := clock.Now()
	clock.AwaitTimers(1)
	clock.Advance(35 * time.Millisecond)
	for seq := uint64(0); seq < 3; seq++ {
		nextCapture(t, live, seq)
	}
	armed := clock.AwaitTimers(2)
	if got := armed[len(armed)-1].Sub(start); len(armed) != 2 || got != 4*interval {
		t.Fatalf("after the backlog: %d timers armed, the last for start+%v; want 2, start+%v", len(armed), got, 4*interval)
	}
}

// TestLiveNetworkShutdownWhileWaiting stops the loop while it waits on
// its first deadline: Shutdown returns, the stream closes without a
// capture, and no error is recorded.
func TestLiveNetworkShutdownWhileWaiting(t *testing.T) {
	live, clock := startManual(t, 48, time.Hour)
	clock.AwaitTimers(1)
	done := make(chan struct{})
	go func() {
		live.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not stop a waiting loop")
	}
	if _, ok := <-live.Captures(); ok {
		t.Error("a capture was emitted before its deadline")
	}
	if err := live.Err(); err != nil {
		t.Errorf("Err() = %v after Shutdown", err)
	}
}

// TestLiveNetworkLeavesDefaultRegistryAlone runs one tick and checks
// that the ticker added no driver="live" series to the process-default
// registry: it has no registry of its own to report to.
func TestLiveNetworkLeavesDefaultRegistryAlone(t *testing.T) {
	live, clock := startManual(t, 49, time.Millisecond)
	clock.AwaitTimers(1)
	clock.Advance(time.Millisecond)
	nextCapture(t, live, 0)
	live.Shutdown()
	for _, line := range strings.Split(obs.Default().PrometheusText(), "\n") {
		if strings.Contains(line, `driver="live"`) {
			t.Errorf("the default registry holds %s", line)
		}
	}
}

func TestStartLiveValidation(t *testing.T) {
	victims, err := zigbee.NewSimulation(41, 8, 25)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StartLive(nil, time.Millisecond, zigbee.DefaultChannel); err == nil {
		t.Error("expected error for nil simulation")
	}
	if _, err := StartLive(victims, 0, zigbee.DefaultChannel); err == nil {
		t.Error("expected error for zero interval")
	}
	if _, err := StartLive(victims, time.Millisecond, 99); err == nil {
		t.Error("expected error for invalid channel")
	}
}

func TestLiveNetworkStreamsCaptures(t *testing.T) {
	victims, err := zigbee.NewSimulation(42, 8, 25)
	if err != nil {
		t.Fatal(err)
	}
	live, err := StartLive(victims, 2*time.Millisecond, zigbee.DefaultChannel)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Shutdown()

	received := 0
	deadline := time.After(3 * time.Second)
	for received < 3 {
		select {
		case capture, ok := <-live.Captures():
			if !ok {
				t.Fatalf("capture stream closed early (err=%v)", live.Err())
			}
			if capture.Channel != zigbee.DefaultChannel {
				t.Errorf("capture channel %d, want %d", capture.Channel, zigbee.DefaultChannel)
			}
			if capture.Seq != uint64(received) {
				t.Errorf("capture seq %d, want %d", capture.Seq, received)
			}
			if capture.At.IsZero() {
				t.Error("capture has no timestamp")
			}
			dem, err := victims.PHY.Demodulate(capture.IQ)
			if err != nil {
				t.Fatalf("capture %d undecodable: %v", received, err)
			}
			frame, err := ieee802154.ParseMACFrame(dem.PPDU.PSDU)
			if err != nil {
				t.Fatal(err)
			}
			if frame.SrcAddr != zigbee.DefaultSensor {
				t.Errorf("capture from %#04x, want sensor", frame.SrcAddr)
			}
			received++
		case <-deadline:
			t.Fatalf("only %d captures within deadline", received)
		}
	}
	if live.Err() != nil {
		t.Errorf("live network error: %v", live.Err())
	}
}

func TestLiveNetworkShutdownIdempotent(t *testing.T) {
	victims, err := zigbee.NewSimulation(43, 8, 25)
	if err != nil {
		t.Fatal(err)
	}
	live, err := StartLive(victims, time.Millisecond, zigbee.DefaultChannel)
	if err != nil {
		t.Fatal(err)
	}
	live.Shutdown()
	live.Shutdown() // must not panic or block

	// After shutdown the capture stream drains and closes.
	for range live.Captures() {
	}
	// The coordinator recorded whatever periods elapsed; the simulation
	// is usable again.
	if _, err := victims.Step(zigbee.DefaultChannel); err != nil {
		t.Fatal(err)
	}
}

func TestLiveNetworkSurfacesErrors(t *testing.T) {
	victims, err := zigbee.NewSimulation(44, 8, 25)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the sensor so Step fails: an invalid channel has no
	// carrier frequency.
	victims.Sensor.Channel = 99
	live, err := StartLive(victims, time.Millisecond, zigbee.DefaultChannel)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(3 * time.Second)
	for {
		select {
		case _, ok := <-live.Captures():
			if !ok {
				if live.Err() == nil {
					t.Fatal("stream closed without surfacing the error")
				}
				live.Shutdown() // still safe after an error exit
				return
			}
		case <-deadline:
			t.Fatal("error was never surfaced")
		}
	}
}

func TestLiveNetworkStopWhileBlocked(t *testing.T) {
	victims, err := zigbee.NewSimulation(45, 8, 25)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the loop with a manual clock instead of sleeping and hoping
	// the producer reached the blocked state: each Advance fires exactly
	// one reporting tick, so the producer's position is known at every
	// step of the test.
	clock := newManualClock()
	live, err := startLive(victims, time.Millisecond, zigbee.DefaultChannel, clock)
	if err != nil {
		t.Fatal(err)
	}
	// Never consume captures. Tick 1 fills the one-slot channel buffer;
	// tick 2 blocks the producer mid-send.
	clock.AwaitTimers(1)
	clock.Advance(time.Millisecond)
	clock.AwaitTimers(2)
	clock.Advance(time.Millisecond)
	// A shutdown must still complete promptly, whether the producer is
	// mid-send or between events.
	done := make(chan struct{})
	go func() {
		live.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Shutdown blocked on an unconsumed capture")
	}
	if err := live.Err(); err != nil && !errors.Is(err, nil) {
		t.Errorf("unexpected error: %v", err)
	}
}
