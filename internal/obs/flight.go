package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Level orders flight-recorder events by severity.
type Level int32

// Event levels, least to most severe. The zero value is LevelDebug, the
// level of per-frame events.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int32(l))
	}
}

// MarshalText encodes the level by name, so JSON carries "info".
func (l Level) MarshalText() ([]byte, error) { return []byte(l.String()), nil }

// UnmarshalText decodes a level name.
func (l *Level) UnmarshalText(b []byte) error {
	lv, err := ParseLevel(string(b))
	if err != nil {
		return err
	}
	*l = lv
	return nil
}

// ParseLevel converts a level name ("debug", "info", "warn", "error")
// back to a Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	default:
		return 0, fmt.Errorf("obs: unknown log level %q", s)
	}
}

// Flight is the flight recorder: the process's one bounded ring of
// recent structured events. Counters can say *that* a subscriber
// dropped records; the flight recorder says *which* frames, when, at
// what latency, next to whatever else the pipeline was doing — the
// evidence a stalled subscriber or an unexplained drop leaves behind.
//
// The ring keeps every event at any level. One threshold (SetLevel)
// decides which of them are also written, one JSON line each, to an
// optional sink (SetSink). One mutex orders everything: Record assigns
// Seq, stores the event and writes its sink line under it, so the ring
// always holds the newest events and the sink sees lines in Seq order.
// Events are stored as values in slots grown up to the capacity, so a
// recorder nobody writes holds no slots and a full one records without
// allocating.
type Flight struct {
	capacity int

	mu       sync.Mutex
	events   []FlightEvent // Seq order from next, wrapping, once full
	next     int           // the slot the next event overwrites once full
	recorded uint64
	level    Level
	sink     io.Writer
}

// FlightEvent is one flight-recorder entry.
type FlightEvent struct {
	// Seq is the recorder-assigned global sequence number, starting at 1.
	Seq uint64 `json:"seq"`
	// At is the event time.
	At time.Time `json:"ts"`
	// Level is the event's severity; per-frame events leave it at
	// LevelDebug.
	Level Level `json:"level"`
	// Kind classifies the event: "frame", "drop", "subscribe",
	// "unsubscribe", "error", "state", ...
	Kind string `json:"kind"`
	// Component is the pipeline component that recorded it.
	Component string `json:"component"`
	// Frame is the capture-stream sequence number the event refers to;
	// -1 when the event is not frame-linked.
	Frame int64 `json:"frame"`
	// Subscriber names the hub subscriber involved, when any.
	Subscriber string `json:"subscriber,omitempty"`
	// Latency is the event's associated latency in nanoseconds (e.g. the
	// end-to-end emit→publish distance of a "frame" event); 0 when none.
	Latency time.Duration `json:"latency_ns"`
	// Detail is free-form context ("pass", "no-sync", an error string).
	Detail string `json:"detail,omitempty"`
	// Fields is key/value context built by Fields; the recorder keeps
	// the map, so it must not change once recorded.
	Fields map[string]any `json:"fields,omitempty"`
}

// Fields builds an event's key/value context from alternating key,
// value pairs. A dangling key gets the value "(MISSING)". Values must be
// JSON-encodable (strings, finite numbers, booleans); anything else,
// NaN and ±Inf included, is stringified with %v so a bad field can
// never break the sink or /debug/flight.
func Fields(kv ...any) map[string]any {
	fields := make(map[string]any, (len(kv)+1)/2)
	for i := 0; i < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprintf("%v", kv[i])
		}
		var v any = "(MISSING)"
		if i+1 < len(kv) {
			v = kv[i+1]
		}
		switch x := v.(type) {
		case string, bool, int, int8, int16, int32, int64,
			uint, uint8, uint16, uint32, uint64, nil:
		case float32:
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				v = fmt.Sprintf("%v", v)
			}
		case float64:
			if math.IsNaN(x) || math.IsInf(x, 0) {
				v = fmt.Sprintf("%v", v)
			}
		default:
			v = fmt.Sprintf("%v", v)
		}
		fields[key] = v
	}
	return fields
}

// NewFlight builds a recorder keeping the last capacity events (min 8).
// Its sink is unset and its threshold LevelInfo.
func NewFlight(capacity int) *Flight {
	if capacity < 8 {
		capacity = 8
	}
	return &Flight{capacity: capacity, level: LevelInfo}
}

// defaultFlight is the process-wide recorder instrumented code falls
// back to when no explicit recorder is wired in.
var defaultFlight = NewFlight(4096)

// DefaultFlight returns the process-wide flight recorder.
func DefaultFlight() *Flight {
	return defaultFlight
}

// OrFlight returns f when non-nil and the process default otherwise —
// the idiom components with an optional Flight field use to resolve it.
func OrFlight(f *Flight) *Flight {
	if f != nil {
		return f
	}
	return defaultFlight
}

// SetSink directs the JSON-lines output and returns the previous sink;
// nil keeps events in the ring only. The sink gets one Write per line,
// never two at once, in Seq order, with the recorder locked: it must
// not record to the same recorder.
func (f *Flight) SetSink(w io.Writer) io.Writer {
	f.mu.Lock()
	defer f.mu.Unlock()
	prev := f.sink
	f.sink = w
	return prev
}

// SetLevel sets the threshold below which events skip the sink, and
// returns the previous one. The ring keeps events of every level.
func (f *Flight) SetLevel(lv Level) Level {
	f.mu.Lock()
	defer f.mu.Unlock()
	prev := f.level
	f.level = lv
	return prev
}

// Capacity returns the ring bound.
func (f *Flight) Capacity() int { return f.capacity }

// Recorded returns how many events have ever been recorded (≥ the
// number still retained).
func (f *Flight) Recorded() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.recorded
}

// Record appends one event, overwriting the oldest once the ring is
// full, and writes it to the sink when its level reaches the threshold.
// The event's Seq and (when zero) At are assigned by the recorder. Safe
// for any number of concurrent writers.
func (f *Flight) Record(ev FlightEvent) {
	if ev.At.IsZero() {
		ev.At = time.Now()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.recorded++
	ev.Seq = f.recorded
	if len(f.events) < f.capacity {
		f.events = append(f.events, ev)
	} else {
		f.events[f.next] = ev
		f.next = (f.next + 1) % f.capacity
	}
	if f.sink != nil && ev.Level >= f.level {
		if b, err := json.Marshal(ev); err == nil {
			_, _ = f.sink.Write(append(b, '\n'))
		}
	}
}

// Snapshot returns the retained events, oldest first; the result holds
// at most Capacity events.
func (f *Flight) Snapshot() []FlightEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightEvent, 0, len(f.events))
	out = append(out, f.events[f.next:]...)
	return append(out, f.events[:f.next]...)
}

// ServeHTTP serves the ring as JSON — the /debug/flight endpoint.
// Query parameters: ?level= filters to that severity and above,
// ?component= to one component, ?kind= to one event kind, and ?n=
// limits to the most recent n events.
func (f *Flight) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	events := f.Snapshot()
	q := req.URL.Query()
	lowest := LevelDebug
	if s := q.Get("level"); s != "" {
		lv, err := ParseLevel(s)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		lowest = lv
	}
	component, kind := q.Get("component"), q.Get("kind")
	kept := events[:0]
	for _, ev := range events {
		if ev.Level >= lowest && (component == "" || ev.Component == component) && (kind == "" || ev.Kind == kind) {
			kept = append(kept, ev)
		}
	}
	events = kept
	if s := q.Get("n"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("obs: bad event count %q", s), http.StatusBadRequest)
			return
		}
		if n < len(events) {
			events = events[len(events)-n:]
		}
	}
	payload := struct {
		Capacity int           `json:"capacity"`
		Recorded uint64        `json:"recorded"`
		Events   []FlightEvent `json:"events"`
	}{Capacity: f.Capacity(), Recorded: f.Recorded(), Events: events}
	b, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
}

// Dump writes the retained events as a human-readable table — the
// SIGQUIT / shutdown post-mortem form.
func (f *Flight) Dump(w io.Writer) {
	events := f.Snapshot()
	fmt.Fprintf(w, "flight recorder: %d events retained of %d recorded (capacity %d)\n",
		len(events), f.Recorded(), f.Capacity())
	for _, ev := range events {
		frame := "-"
		if ev.Frame >= 0 {
			frame = strconv.FormatInt(ev.Frame, 10)
		}
		lat := "-"
		if ev.Latency > 0 {
			lat = ev.Latency.String()
		}
		fmt.Fprintf(w, "  #%-7d %s %-5s %-11s %-10s frame=%-6s sub=%-12s lat=%-10s %s",
			ev.Seq, ev.At.Format("15:04:05.000"), ev.Level, ev.Kind, ev.Component,
			frame, orDash(ev.Subscriber), lat, ev.Detail)
		if len(ev.Fields) > 0 {
			fmt.Fprint(w, " ", ev.Fields)
		}
		fmt.Fprintln(w)
	}
}

// Summary counts retained events by kind — the one-line shutdown form.
func (f *Flight) Summary() string {
	counts := make(map[string]int)
	for _, ev := range f.Snapshot() {
		counts[ev.Kind]++
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s=%d", k, counts[k]))
	}
	if len(parts) == 0 {
		return "empty"
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out += " " + p
	}
	return out
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
