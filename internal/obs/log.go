package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Level orders structured log events by severity.
type Level int32

// Log levels, least to most severe.
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

// Event is one structured log record: what happened, where, when, at
// what severity, with arbitrary key/value context.
type Event struct {
	Seq       uint64         `json:"seq"`
	Time      time.Time      `json:"ts"`
	Level     string         `json:"level"`
	Component string         `json:"component"`
	Msg       string         `json:"msg"`
	Fields    map[string]any `json:"fields,omitempty"`
}

// Logger is a leveled structured event logger: JSON lines to an
// optional sink, a bounded ring buffer of recent events (the /logz
// endpoint), per-component level overrides, and event counters in a
// metrics registry. All methods are safe for concurrent use.
type Logger struct {
	mu        sync.Mutex
	sink      io.Writer
	ring      []Event
	head, n   int
	seq       uint64
	level     Level
	overrides map[string]Level
	reg       *Registry
}

// NewLogger builds a logger that keeps the last ringSize events (min 1)
// and, when sink is non-nil, writes each event as one JSON line to it.
// The default threshold is LevelInfo; event counts land in the process
// default metrics registry as wazabee_log_events_total{level}.
func NewLogger(sink io.Writer, ringSize int) *Logger {
	if ringSize < 1 {
		ringSize = 1
	}
	return &Logger{
		sink:      sink,
		ring:      make([]Event, ringSize),
		level:     LevelInfo,
		overrides: make(map[string]Level),
		reg:       Default(),
	}
}

// defaultLog is the process-wide logger instrumented code falls back
// to: ring-buffer only (no sink) until a command wires one in.
var defaultLog = NewLogger(nil, 512)

// DefaultLogger returns the process-wide structured logger.
func DefaultLogger() *Logger {
	return defaultLog
}

// OrLogger returns l when non-nil and the process default otherwise —
// the idiom components with an optional Log field use to resolve it.
func OrLogger(l *Logger) *Logger {
	if l != nil {
		return l
	}
	return defaultLog
}

// SetSink directs the JSON-lines output; nil keeps events in the ring
// only. The sink gets one Write per line, never two at once, in Seq
// order, with the logger locked: it must not log to the same logger.
func (l *Logger) SetSink(w io.Writer) {
	l.mu.Lock()
	l.sink = w
	l.mu.Unlock()
}

// SetLevel sets the default threshold below which events are dropped.
func (l *Logger) SetLevel(lv Level) {
	l.mu.Lock()
	l.level = lv
	l.mu.Unlock()
}

// SetComponentLevel overrides the threshold for one component (e.g.
// turn the hub down to debug while the rest of the daemon stays at
// info).
func (l *Logger) SetComponentLevel(component string, lv Level) {
	l.mu.Lock()
	l.overrides[component] = lv
	l.mu.Unlock()
}

// Enabled reports whether an event at lv for component would be kept.
func (l *Logger) Enabled(component string, lv Level) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return lv >= l.threshold(component)
}

// threshold resolves the effective level for a component; callers hold
// l.mu.
func (l *Logger) threshold(component string) Level {
	if lv, ok := l.overrides[component]; ok {
		return lv
	}
	return l.level
}

// Log records one event. kv are alternating key, value pairs; a
// dangling key gets the value "(MISSING)". Values must be JSON-encodable
// (strings, numbers, booleans); anything else is stringified with %v so
// a bad field can never break the sink.
func (l *Logger) Log(lv Level, component, msg string, kv ...any) {
	var fields map[string]any
	if len(kv) > 0 {
		fields = make(map[string]any, (len(kv)+1)/2)
		for i := 0; i < len(kv); i += 2 {
			key, ok := kv[i].(string)
			if !ok {
				key = fmt.Sprintf("%v", kv[i])
			}
			var v any = "(MISSING)"
			if i+1 < len(kv) {
				v = kv[i+1]
			}
			switch v.(type) {
			case string, bool, int, int8, int16, int32, int64,
				uint, uint8, uint16, uint32, uint64, float32, float64, nil:
			default:
				v = fmt.Sprintf("%v", v)
			}
			fields[key] = v
		}
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if lv < l.threshold(component) {
		return
	}
	l.seq++
	ev := Event{
		Seq:       l.seq,
		Time:      time.Now(),
		Level:     lv.String(),
		Component: component,
		Msg:       msg,
		Fields:    fields,
	}
	if l.n == len(l.ring) {
		l.head = (l.head + 1) % len(l.ring)
		l.n--
	}
	l.ring[(l.head+l.n)%len(l.ring)] = ev
	l.n++
	l.reg.Counter("wazabee_log_events_total", "level", ev.Level).Inc()
	// The line goes out under the lock that assigned its Seq: the sink
	// sees one Write at a time, in Seq order.
	if l.sink != nil {
		if b, err := json.Marshal(ev); err == nil {
			b = append(b, '\n')
			_, _ = l.sink.Write(b)
		}
	}
}

// Debug logs at LevelDebug.
func (l *Logger) Debug(component, msg string, kv ...any) { l.Log(LevelDebug, component, msg, kv...) }

// Info logs at LevelInfo.
func (l *Logger) Info(component, msg string, kv ...any) { l.Log(LevelInfo, component, msg, kv...) }

// Warn logs at LevelWarn.
func (l *Logger) Warn(component, msg string, kv ...any) { l.Log(LevelWarn, component, msg, kv...) }

// Error logs at LevelError.
func (l *Logger) Error(component, msg string, kv ...any) { l.Log(LevelError, component, msg, kv...) }

// Events returns the ring buffer's contents, oldest first.
func (l *Logger) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.n)
	for i := 0; i < l.n; i++ {
		out = append(out, l.ring[(l.head+i)%len(l.ring)])
	}
	return out
}

// ServeHTTP serves the ring buffer as JSON — the /logz endpoint. Query
// parameters: ?level= filters to that severity and above, ?component=
// to one component, ?n= to the most recent n events.
func (l *Logger) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	events := l.Events()
	q := req.URL.Query()
	if s := q.Get("level"); s != "" {
		min, err := ParseLevel(s)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		kept := events[:0]
		for _, ev := range events {
			if lv, err := ParseLevel(ev.Level); err == nil && lv >= min {
				kept = append(kept, ev)
			}
		}
		events = kept
	}
	if c := q.Get("component"); c != "" {
		kept := events[:0]
		for _, ev := range events {
			if ev.Component == c {
				kept = append(kept, ev)
			}
		}
		events = kept
	}
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
		Events []Event `json:"events"`
	}{Events: events}
	b, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
}
