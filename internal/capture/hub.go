package capture

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"wazabee/internal/obs"
)

// Hub fans one producer's records out to N subscribers, each behind a
// bounded queue with an explicit drop-oldest backpressure policy: a
// publisher never blocks on a slow consumer, the slow consumer loses
// its oldest queued records, and every loss is accounted — per
// subscriber — in the obs registry. This is the serving shape the
// ROADMAP aims at (one sniffer, many concurrent consumers) in a single
// process.
//
// Accounting invariant: for every subscriber, at every quiescent point,
//
//	offered == delivered + dropped + queued
//
// and a subscriber that unsubscribes has its still-queued records
// folded into dropped, so the invariant degenerates to
// offered == delivered + dropped once it is gone. A subscriber present
// for a hub's whole lifetime has offered == hub published.
type Hub struct {
	reg        *obs.Registry
	cPublished *obs.Counter
	gSubs      *obs.Gauge
	hPublish   *obs.Histogram // wazabee_latency_seconds{stage="publish"}

	// Flight receives the hub's events: subscriber lifecycle and stream
	// end at info level, per-frame drops at debug. nil falls back to the
	// process default recorder. Set it before the first Subscribe.
	Flight *obs.Flight

	mu        sync.Mutex
	subs      map[*Subscription]struct{}
	closed    bool
	published uint64
}

// NewHub builds a hub reporting into reg; nil falls back to the process
// default registry.
func NewHub(reg *obs.Registry) *Hub {
	r := obs.Or(reg)
	return &Hub{
		reg:        r,
		cPublished: r.Counter("wazabee_capture_published_total"),
		gSubs:      r.Gauge("wazabee_capture_subscribers"),
		hPublish:   obs.LatencyHistogram(r, "publish"),
		subs:       make(map[*Subscription]struct{}),
	}
}

// Subscribe registers a consumer under a name (the `subscriber` label
// of its metric series) with a queue bounded at depth records.
func (h *Hub) Subscribe(name string, depth int) (*Subscription, error) {
	if depth < 1 {
		return nil, fmt.Errorf("capture: subscription depth %d < 1", depth)
	}
	s := &Subscription{
		hub:        h,
		name:       name,
		buf:        make([]Record, depth),
		enq:        make([]time.Time, depth),
		flight:     obs.OrFlight(h.Flight),
		cOffered:   h.reg.Counter("wazabee_capture_offered_total", "subscriber", name),
		cDelivered: h.reg.Counter("wazabee_capture_delivered_total", "subscriber", name),
		cDropped:   h.reg.Counter("wazabee_capture_dropped_total", "subscriber", name),
		gDepth:     h.reg.Gauge("wazabee_capture_queue_depth", "subscriber", name),
		hQueue:     obs.LatencyHistogram(h.reg, "queue", "subscriber", name),
		hDeliver:   obs.LatencyHistogram(h.reg, "deliver", "subscriber", name),
	}
	s.cond = sync.NewCond(&s.mu)

	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, fmt.Errorf("capture: hub is closed")
	}
	h.subs[s] = struct{}{}
	h.gSubs.Set(float64(len(h.subs)))
	s.flight.Record(obs.FlightEvent{
		Level: obs.LevelInfo, Kind: "subscribe", Component: "hub", Frame: -1, Subscriber: name,
		Detail: "subscriber joined", Fields: obs.Fields("depth", depth, "subscribers", len(h.subs)),
	})
	return s, nil
}

// Publish offers one record to every current subscriber and returns how
// many were offered it. It never blocks on consumers; a full queue
// drops its oldest record instead. Publishing on a closed hub is a
// no-op returning zero. Records stamped with an Origin observe the
// emit→publish latency; all records stamp their queue-entry time so
// per-subscriber queue residency is measured regardless.
func (h *Hub) Publish(rec Record) int {
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0
	}
	h.published++
	h.cPublished.Inc()
	if !rec.Origin.IsZero() {
		h.hPublish.Observe(obs.DurationSeconds(now.Sub(rec.Origin)))
	}
	for s := range h.subs {
		s.offer(rec, now)
	}
	return len(h.subs)
}

// Published returns the number of records accepted by Publish.
func (h *Hub) Published() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.published
}

// Close ends the stream: subscribers drain whatever is already queued,
// then their Recv returns false. Safe to call more than once.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	subs := make([]*Subscription, 0, len(h.subs))
	for s := range h.subs {
		subs = append(subs, s)
	}
	h.subs = make(map[*Subscription]struct{})
	h.gSubs.Set(0)
	published := h.published
	h.mu.Unlock()

	for _, s := range subs {
		s.finish()
	}
	obs.OrFlight(h.Flight).Record(obs.FlightEvent{
		Level: obs.LevelInfo, Kind: "state", Component: "hub", Frame: -1,
		Detail: "stream closed", Fields: obs.Fields("published", published, "subscribers", len(subs)),
	})
}

func (h *Hub) remove(s *Subscription) {
	h.mu.Lock()
	removed := false
	if _, ok := h.subs[s]; ok {
		delete(h.subs, s)
		h.gSubs.Set(float64(len(h.subs)))
		removed = true
	}
	h.mu.Unlock()
	if removed {
		st := s.Stats()
		s.flight.Record(obs.FlightEvent{
			Level: obs.LevelInfo, Kind: "unsubscribe", Component: "hub", Frame: -1, Subscriber: s.name,
			Detail: "subscriber left", Fields: obs.Fields(
				"delivered", st.Delivered, "dropped", st.Dropped, "max_queue", st.MaxQueueDepth),
		})
	}
}

// SubStats is a subscription's accounting snapshot.
type SubStats struct {
	// Offered counts records the hub handed to this subscriber.
	Offered uint64
	// Delivered counts records the consumer actually received.
	Delivered uint64
	// Dropped counts records lost to the drop-oldest policy (plus any
	// still queued at unsubscribe time).
	Dropped uint64
	// Queued is the current queue depth.
	Queued int
	// MaxQueueDepth is the high-water mark the queue ever reached — the
	// evidence operators size the -queue flag from: a subscriber whose
	// high-water mark sits well below the configured depth never needed
	// that much buffer; one pinned at the depth was dropping.
	MaxQueueDepth int
}

// SubSnapshot couples a subscriber's name with its accounting, for
// whole-hub enumerations (the wazabeed shutdown table, health detail).
type SubSnapshot struct {
	Name string
	SubStats
}

// Snapshot returns the accounting of every currently subscribed
// consumer, sorted by name. Subscribers that already left are not
// included (their final stats were recorded at departure).
func (h *Hub) Snapshot() []SubSnapshot {
	h.mu.Lock()
	subs := make([]*Subscription, 0, len(h.subs))
	for s := range h.subs {
		subs = append(subs, s)
	}
	h.mu.Unlock()
	out := make([]SubSnapshot, 0, len(subs))
	for _, s := range subs {
		out = append(out, SubSnapshot{Name: s.name, SubStats: s.Stats()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Subscription is one consumer's bounded view of a hub's stream.
type Subscription struct {
	hub    *Hub
	name   string
	flight *obs.Flight

	cOffered   *obs.Counter
	cDelivered *obs.Counter
	cDropped   *obs.Counter
	gDepth     *obs.Gauge
	hQueue     *obs.Histogram // wazabee_latency_seconds{stage="queue",subscriber}
	hDeliver   *obs.Histogram // wazabee_latency_seconds{stage="deliver",subscriber}

	mu     sync.Mutex
	cond   *sync.Cond
	buf    []Record    // ring buffer, fixed capacity
	enq    []time.Time // per-slot enqueue stamps, parallel to buf
	head   int
	n      int
	closed bool

	offered, delivered, dropped uint64
	maxDepth                    int
}

// Name returns the subscriber label.
func (s *Subscription) Name() string { return s.name }

// offer enqueues a record, evicting the oldest when full (publisher
// side). now is the publish instant, shared across subscribers so one
// Publish takes one clock reading.
func (s *Subscription) offer(rec Record, now time.Time) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.n == len(s.buf) {
		old := s.buf[s.head]
		s.head = (s.head + 1) % len(s.buf)
		s.n--
		s.dropped++
		s.cDropped.Inc()
		s.flight.Record(obs.FlightEvent{
			At: now, Kind: "drop", Component: "hub",
			Frame: int64(old.Seq), Subscriber: s.name, Detail: "queue full, oldest evicted",
		})
	}
	idx := (s.head + s.n) % len(s.buf)
	s.buf[idx] = rec
	s.enq[idx] = now
	s.n++
	if s.n > s.maxDepth {
		s.maxDepth = s.n
	}
	s.offered++
	s.cOffered.Inc()
	s.gDepth.Set(float64(s.n))
	s.cond.Signal()
	s.mu.Unlock()
}

// Recv blocks for the next record. It returns ok=false once the stream
// has ended (hub closed or unsubscribed) and the queue is drained.
func (s *Subscription) Recv() (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.n == 0 && !s.closed {
		s.cond.Wait()
	}
	if s.n == 0 {
		return Record{}, false
	}
	return s.pop(), true
}

// TryRecv returns the next queued record without blocking. ok=false
// means the queue is momentarily empty (or the stream ended — check
// Closed to tell them apart).
func (s *Subscription) TryRecv() (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return Record{}, false
	}
	return s.pop(), true
}

// pop removes the head record, observing its queue residency and — for
// origin-stamped records — the end-to-end emit→deliver latency; callers
// hold s.mu.
func (s *Subscription) pop() Record {
	now := time.Now()
	rec := s.buf[s.head]
	s.hQueue.Observe(obs.DurationSeconds(now.Sub(s.enq[s.head])))
	if !rec.Origin.IsZero() {
		s.hDeliver.Observe(obs.DurationSeconds(now.Sub(rec.Origin)))
	}
	s.buf[s.head] = Record{} // release references
	s.head = (s.head + 1) % len(s.buf)
	s.n--
	s.delivered++
	s.cDelivered.Inc()
	s.gDepth.Set(float64(s.n))
	return rec
}

// Closed reports whether the stream has ended (records may still be
// queued).
func (s *Subscription) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// finish ends the stream from the producer side, leaving the queue for
// the consumer to drain.
func (s *Subscription) finish() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Close unsubscribes: no further records arrive and anything still
// queued is discarded into the dropped count, preserving the
// offered == delivered + dropped invariant. Safe to call more than
// once, and after the hub itself closed.
func (s *Subscription) Close() {
	s.hub.remove(s)
	s.mu.Lock()
	if s.n > 0 {
		s.dropped += uint64(s.n)
		s.cDropped.Add(uint64(s.n))
		for i := range s.buf {
			s.buf[i] = Record{}
		}
		s.n = 0
		s.gDepth.Set(0)
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Stats returns the subscription's current accounting.
func (s *Subscription) Stats() SubStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SubStats{
		Offered:       s.offered,
		Delivered:     s.delivered,
		Dropped:       s.dropped,
		Queued:        s.n,
		MaxQueueDepth: s.maxDepth,
	}
}
