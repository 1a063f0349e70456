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

// LiveNetwork runs the victim network in real time. It is a thin
// real-time pacer over the discrete-event core: the reporting loop is a
// recurring scheduler event (tick → emit → reschedule) and a pacer
// sleeps until each event's wall deadline — real-time operation is a
// pacing policy over the same event queue the virtual-time simulator
// drives, not a separate code path.
//
// While a LiveNetwork is running it owns its Simulation; interact with
// the simulation again only after Shutdown returns.
type LiveNetwork struct {
	network        *zigbee.Simulation
	interval       time.Duration
	captureChannel int

	sched *Scheduler
	seq   uint64

	// Pacer-path observability: the same wazabee_sim_heap_* gauges the
	// virtual-time driver publishes, labelled driver="live".
	heapGauges *heapGauges

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

// startLive validates and launches the paced event loop. clock nil uses
// the system wall clock; tests inject a manualClock to drive the pacing
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
	l := &LiveNetwork{
		network:        network,
		interval:       interval,
		captureChannel: captureChannel,
		sched:          NewScheduler(),
		captures:       make(chan LiveCapture, 1),
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
		heapGauges:     newHeapGauges(nil, "live"),
	}
	l.sched.After(interval, l.tick)
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

// run paces the event queue against the wall clock. The loop ends when
// the queue drains — which happens exactly when a tick declines to
// reschedule itself (error or stop) — or when stop interrupts a sleep.
func (l *LiveNetwork) run(clock wallClock) {
	defer close(l.done)
	defer close(l.captures)
	p := &pacer{sched: l.sched, clock: clock}
	p.run(l.stop)
}

// tick is the recurring reporting event: step the simulation, emit the
// capture, schedule the next period. Returning without rescheduling
// drains the queue and ends the run.
func (l *LiveNetwork) tick() {
	select {
	case <-l.stop:
		return
	default:
	}
	sig, err := l.network.Step(l.captureChannel)
	if err != nil {
		l.mu.Lock()
		l.err = err
		l.mu.Unlock()
		return
	}
	capture := LiveCapture{
		IQ:        sig,
		At:        time.Now(),
		Channel:   l.captureChannel,
		Seq:       l.seq,
		LinkSNRdB: l.network.AttackerLink.SNRdB,
	}
	l.seq++
	l.heapGauges.publish(l.sched)
	select {
	case l.captures <- capture:
	case <-l.stop:
		return
	}
	l.sched.After(l.interval, l.tick)
}
