package zigbee

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"wazabee/internal/dsp"
	vsim "wazabee/internal/zigbee/sim"
)

// Capture couples one attacker-audible waveform with the metadata a
// capture sink needs to persist or serve it: when it was heard, on
// which channel, and its position in the stream.
type Capture struct {
	// IQ is the waveform at the observer's ADC.
	IQ dsp.IQ
	// At is the wall-clock instant the reporting period fired.
	At time.Time
	// Origin is the emission stamp the end-to-end latency pipeline is
	// anchored to: taken with time.Now() at emission so it carries the
	// monotonic clock, making origin→stage distances immune to wall-clock
	// steps. Zero for captures that were not emitted live (replays,
	// records rebuilt from files), which opt them out of the
	// origin-anchored wazabee_latency_* stages.
	Origin time.Time
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
// real-time pacer over the discrete-event core in internal/zigbee/sim:
// the reporting loop is a recurring scheduler event (tick → emit →
// reschedule) and a sim.Pacer sleeps until each event's wall deadline —
// real-time operation is a pacing policy over the same event queue the
// virtual-time simulator drives, not a separate code path.
//
// While a LiveNetwork is running it owns its Simulation; interact with
// the simulation again only after Shutdown returns.
type LiveNetwork struct {
	sim            *Simulation
	interval       time.Duration
	captureChannel int

	sched *vsim.Scheduler
	seq   uint64

	// Pacer-path observability: the same wazabee_sim_heap_* gauges the
	// virtual-time driver publishes, labelled driver="live", plus an
	// atomically published queue snapshot for the /debug/sim endpoint.
	heapGauges *vsim.HeapGauges
	schedStats atomic.Pointer[SchedulerStats]

	captures chan Capture
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	mu  sync.Mutex
	err error
}

// StartLive spawns the network's reporting loop. captureChannel selects
// where the observer's radio is tuned. The returned LiveNetwork must be
// stopped with Shutdown.
func StartLive(sim *Simulation, interval time.Duration, captureChannel int) (*LiveNetwork, error) {
	return startLive(sim, interval, captureChannel, nil)
}

// startLive validates and launches the paced event loop. clock nil uses
// the system wall clock; tests inject a sim.ManualClock to drive the
// pacing deterministically.
func startLive(s *Simulation, interval time.Duration, captureChannel int, clock vsim.WallClock) (*LiveNetwork, error) {
	if s == nil {
		return nil, fmt.Errorf("zigbee: nil simulation")
	}
	if interval <= 0 {
		return nil, fmt.Errorf("zigbee: non-positive reporting interval %v", interval)
	}
	if _, err := channelFreq(captureChannel); err != nil {
		return nil, err
	}
	l := &LiveNetwork{
		sim:            s,
		interval:       interval,
		captureChannel: captureChannel,
		sched:          vsim.NewScheduler(),
		captures:       make(chan Capture, 1),
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
		heapGauges:     vsim.NewHeapGauges(nil, "live"),
	}
	l.schedStats.Store(&SchedulerStats{})
	l.sched.After(interval, l.tick)
	go l.run(clock)
	return l, nil
}

// Captures streams one annotated capture per sensor reporting period.
// The channel closes when the network shuts down (or hits an error —
// check Err).
func (l *LiveNetwork) Captures() <-chan Capture {
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
func (l *LiveNetwork) run(clock vsim.WallClock) {
	defer close(l.done)
	defer close(l.captures)
	p := &vsim.Pacer{Sched: l.sched, Clock: clock}
	p.Run(l.stop)
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
	sig, err := l.sim.Step(l.captureChannel)
	if err != nil {
		l.mu.Lock()
		l.err = err
		l.mu.Unlock()
		return
	}
	now := time.Now()
	capture := Capture{
		IQ:        sig,
		At:        now,
		Origin:    now,
		Channel:   l.captureChannel,
		Seq:       l.seq,
		LinkSNRdB: l.sim.AttackerLink.SNRdB,
	}
	l.seq++
	l.publishSchedStats()
	select {
	case l.captures <- capture:
	case <-l.stop:
		return
	}
	l.sched.After(l.interval, l.tick)
}

// SchedulerStats is a point-in-time snapshot of the pacer's event
// queue — the live-path counterpart of the virtual driver's heap
// telemetry.
type SchedulerStats struct {
	Pending  int           `json:"pending"`
	MaxDepth int           `json:"max_depth"`
	Executed uint64        `json:"executed"`
	MaxLag   time.Duration `json:"max_lag_ns"`
	Periods  uint64        `json:"periods"`
}

// publishSchedStats refreshes the heap gauges and the snapshot from the
// event-loop goroutine, once per reporting period.
func (l *LiveNetwork) publishSchedStats() {
	l.heapGauges.Publish(l.sched)
	l.schedStats.Store(&SchedulerStats{
		Pending:  l.sched.Len(),
		MaxDepth: l.sched.MaxDepth(),
		Executed: l.sched.Executed(),
		MaxLag:   l.sched.MaxLag(),
		Periods:  l.seq,
	})
}

// SchedulerStats returns the queue snapshot published at the last
// reporting period. Safe to call from any goroutine.
func (l *LiveNetwork) SchedulerStats() SchedulerStats {
	return *l.schedStats.Load()
}

// DebugHandler serves the scheduler snapshot as JSON — wazabeed mounts
// it at /debug/sim so a live run exposes the same observability surface
// as the virtual-time simulator.
func (l *LiveNetwork) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(l.SchedulerStats())
	})
}
