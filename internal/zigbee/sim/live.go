package sim

import (
	"fmt"
	"sync"
	"time"

	"wazabee/internal/dsp"
	"wazabee/internal/ieee802154"
	"wazabee/internal/zigbee"
)

// LiveCapture couples one attacker-audible waveform with the metadata a
// capture sink needs to persist or serve it: when it was heard, on
// which channel, and its position in the stream.
type LiveCapture struct {
	// IQ is the waveform at the observer's ADC.
	IQ dsp.IQ
	// At is the instant the reporting period fired, taken with
	// time.Now() so it carries the monotonic clock. It is the origin the
	// end-to-end latency pipeline measures every later stage from, immune
	// to wall-clock steps.
	At time.Time
	// Channel is the 802.15.4 channel the observer's radio is tuned to.
	Channel int
	// Seq numbers the capture within this live run, starting at zero.
	Seq uint64
	// LinkSNRdB is the configured attacker-link signal-to-noise ratio
	// the medium applied to this capture, so a receiver's in-band SNR
	// estimate can be checked against ground truth.
	LinkSNRdB float64
}

// wallClock abstracts wall time for the reporting loop, so tests can
// drive it deterministically with a manual clock.
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

// LiveNetwork runs the victim network in real time: a wall-clock ticker
// steps the simulation once per reporting interval and streams the
// period's capture. It publishes no metrics of its own; a consumer
// counts the captures it receives.
//
// While a LiveNetwork is running it owns its Simulation; interact with
// the simulation again only after Shutdown returns.
type LiveNetwork struct {
	network        *zigbee.Simulation
	interval       time.Duration
	captureChannel int
	seq            uint64

	captures chan LiveCapture
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	mu  sync.Mutex
	err error
}

// StartLive spawns the network's reporting loop. captureChannel selects
// where the observer's radio is tuned. The returned LiveNetwork must be
// stopped with Shutdown.
func StartLive(network *zigbee.Simulation, interval time.Duration, captureChannel int) (*LiveNetwork, error) {
	return startLive(network, interval, captureChannel, nil)
}

// startLive validates and launches the reporting loop. clock nil uses
// the system wall clock; tests inject a manualClock to drive the ticks
// deterministically.
func startLive(network *zigbee.Simulation, interval time.Duration, captureChannel int, clock wallClock) (*LiveNetwork, error) {
	if network == nil {
		return nil, fmt.Errorf("sim: nil victim network")
	}
	if interval <= 0 {
		return nil, fmt.Errorf("sim: non-positive reporting interval %v", interval)
	}
	if _, err := ieee802154.ChannelFrequencyMHz(captureChannel); err != nil {
		return nil, err
	}
	if clock == nil {
		clock = systemClock{}
	}
	l := &LiveNetwork{
		network:        network,
		interval:       interval,
		captureChannel: captureChannel,
		captures:       make(chan LiveCapture, 1),
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
	}
	go l.run(clock)
	return l, nil
}

// Captures streams one annotated capture per sensor reporting period.
// The channel closes when the network shuts down (or hits an error —
// check Err).
func (l *LiveNetwork) Captures() <-chan LiveCapture {
	return l.captures
}

// Err returns the first error the reporting loop encountered, if any.
func (l *LiveNetwork) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Shutdown stops the reporting loop and waits for it to exit. It is
// safe to call multiple times.
func (l *LiveNetwork) Shutdown() {
	l.stopOnce.Do(func() { close(l.stop) })
	<-l.done
}

// run ticks at start + k·interval for k = 1, 2, …, sleeping only while
// the next deadline is still ahead: a late tick runs at once, so a
// backlog catches up. The loop ends when a tick reports false or stop
// interrupts a sleep.
func (l *LiveNetwork) run(clock wallClock) {
	defer close(l.done)
	defer close(l.captures)
	deadline := clock.Now()
	for {
		deadline = deadline.Add(l.interval)
		if wait := deadline.Sub(clock.Now()); wait > 0 {
			select {
			case <-l.stop:
				return
			case <-clock.After(wait):
			}
		}
		if !l.tick() {
			return
		}
	}
}

// tick steps the simulation and emits the period's capture. It reports
// false when the loop must end: Step failed (see Err) or stop closed.
func (l *LiveNetwork) tick() bool {
	select {
	case <-l.stop:
		return false
	default:
	}
	sig, err := l.network.Step(l.captureChannel)
	if err != nil {
		l.mu.Lock()
		l.err = err
		l.mu.Unlock()
		return false
	}
	capture := LiveCapture{
		IQ:        sig,
		At:        time.Now(),
		Channel:   l.captureChannel,
		Seq:       l.seq,
		LinkSNRdB: l.network.AttackerLink.SNRdB,
	}
	l.seq++
	select {
	case l.captures <- capture:
		return true
	case <-l.stop:
		return false
	}
}
