package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestLoggerLevelThreshold(t *testing.T) {
	l := NewLogger(nil, 16)
	l.Debug("core", "dropped below default threshold")
	l.Info("core", "kept")
	l.Warn("core", "kept too")
	events := l.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2 (debug filtered at default info threshold)", len(events))
	}
	if events[0].Msg != "kept" || events[1].Msg != "kept too" {
		t.Errorf("events = %+v", events)
	}

	l.SetLevel(LevelError)
	l.Warn("core", "now dropped")
	if got := len(l.Events()); got != 2 {
		t.Errorf("warn recorded after raising threshold to error: %d events", got)
	}
}

func TestLoggerComponentOverride(t *testing.T) {
	l := NewLogger(nil, 16)
	l.SetComponentLevel("hub", LevelDebug)
	l.Debug("hub", "hub debug kept")
	l.Debug("core", "core debug dropped")
	events := l.Events()
	if len(events) != 1 || events[0].Component != "hub" {
		t.Fatalf("events = %+v, want only the hub debug event", events)
	}
	if !l.Enabled("hub", LevelDebug) {
		t.Error("Enabled(hub, debug) = false with a debug override")
	}
	if l.Enabled("core", LevelDebug) {
		t.Error("Enabled(core, debug) = true without an override")
	}
}

func TestLoggerRingBounded(t *testing.T) {
	l := NewLogger(nil, 4)
	for i := 0; i < 10; i++ {
		l.Info("core", "event", "i", i)
	}
	events := l.Events()
	if len(events) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(events))
	}
	// Oldest first, and only the most recent four survive.
	if events[0].Fields["i"] != 6 && events[0].Fields["i"] != float64(6) {
		t.Errorf("oldest surviving event i = %v, want 6", events[0].Fields["i"])
	}
	if events[3].Seq <= events[0].Seq {
		t.Errorf("sequence not increasing: %d .. %d", events[0].Seq, events[3].Seq)
	}
}

func TestLoggerSinkWritesJSONLines(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, 16)
	l.Info("daemon", "pipeline started", "channel", 14, "snr_db", 22.5)
	l.Error("daemon", "boom", "err", "some failure")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink got %d lines, want 2", len(lines))
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if ev.Level != "info" || ev.Component != "daemon" || ev.Msg != "pipeline started" {
		t.Errorf("event = %+v", ev)
	}
	if ev.Fields["channel"] != float64(14) {
		t.Errorf("channel field = %v", ev.Fields["channel"])
	}
}

// TestLoggerSinkConcurrent logs from 8 goroutines into one bytes.Buffer
// sink: the buffer must see one Write at a time (under -race a second
// concurrent Write is a DATA RACE), every line must parse, and Seq must
// rise line by line.
func TestLoggerSinkConcurrent(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, 16)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				l.Info("hub", "subscribed", "worker", w, "i", i)
			}
		}()
	}
	wg.Wait()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != workers*perWorker {
		t.Fatalf("sink got %d lines, want %d", len(lines), workers*perWorker)
	}
	var last uint64
	for i, line := range lines {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v: %q", i, err, line)
		}
		if ev.Seq <= last {
			t.Fatalf("line %d has seq %d after %d", i, ev.Seq, last)
		}
		last = ev.Seq
	}
}

func TestLoggerFieldCoercion(t *testing.T) {
	l := NewLogger(nil, 4)
	// A non-JSON-encodable value must be stringified, a dangling key
	// filled in, and a non-string key coerced — never a panic or a
	// broken sink.
	l.Info("core", "odd fields", "err", struct{ X int }{7}, 42, "value", "dangling")
	ev := l.Events()[0]
	if _, ok := ev.Fields["err"].(string); !ok {
		t.Errorf("struct value not stringified: %T", ev.Fields["err"])
	}
	if ev.Fields["42"] != "value" {
		t.Errorf("non-string key not coerced: %+v", ev.Fields)
	}
	if ev.Fields["dangling"] != "(MISSING)" {
		t.Errorf("dangling key = %v, want (MISSING)", ev.Fields["dangling"])
	}
}

func TestLoggerServeHTTPFilters(t *testing.T) {
	l := NewLogger(nil, 16)
	l.Info("daemon", "one")
	l.Warn("hub", "two")
	l.Error("daemon", "three")

	get := func(target string) []Event {
		t.Helper()
		rec := httptest.NewRecorder()
		l.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: status %d: %s", target, rec.Code, rec.Body.String())
		}
		var payload struct {
			Events []Event `json:"events"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
			t.Fatalf("GET %s: not JSON: %v", target, err)
		}
		return payload.Events
	}

	if got := get("/logz"); len(got) != 3 {
		t.Errorf("/logz returned %d events, want 3", len(got))
	}
	if got := get("/logz?level=warn"); len(got) != 2 {
		t.Errorf("level=warn returned %d events, want 2", len(got))
	}
	if got := get("/logz?component=hub"); len(got) != 1 || got[0].Msg != "two" {
		t.Errorf("component=hub returned %+v", got)
	}
	if got := get("/logz?n=1"); len(got) != 1 || got[0].Msg != "three" {
		t.Errorf("n=1 returned %+v, want the most recent event", got)
	}

	rec := httptest.NewRecorder()
	l.ServeHTTP(rec, httptest.NewRequest("GET", "/logz?level=shouting", nil))
	if rec.Code != 400 {
		t.Errorf("bad level query: status %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	l.ServeHTTP(rec, httptest.NewRequest("GET", "/logz?n=-3", nil))
	if rec.Code != 400 {
		t.Errorf("negative n: status %d, want 400", rec.Code)
	}
}

func TestParseLevelRoundTrip(t *testing.T) {
	for _, lv := range []Level{LevelDebug, LevelInfo, LevelWarn, LevelError} {
		got, err := ParseLevel(lv.String())
		if err != nil || got != lv {
			t.Errorf("ParseLevel(%q) = %v, %v", lv.String(), got, err)
		}
	}
	if _, err := ParseLevel("shouting"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
}

func TestLogEventCounter(t *testing.T) {
	l := NewLogger(nil, 4)
	// The logger counts into the process default registry; measure the
	// delta so other tests' events don't matter.
	before := Default().Counter("wazabee_log_events_total", "level", "warn").Value()
	l.Warn("core", "counted")
	after := Default().Counter("wazabee_log_events_total", "level", "warn").Value()
	if after != before+1 {
		t.Errorf("warn counter delta = %d, want 1", after-before)
	}
}
