package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFlightRecordSnapshot checks the basic contract: events come back
// whole, oldest first, and the ring never exceeds its bound.
func TestFlightRecordSnapshot(t *testing.T) {
	f := NewFlight(16)
	for i := 0; i < 40; i++ {
		f.Record(FlightEvent{Kind: "frame", Component: "test", Frame: int64(i), Detail: "pass"})
	}
	events := f.Snapshot()
	if len(events) != 16 {
		t.Fatalf("retained %d events, want capacity 16", len(events))
	}
	if f.Recorded() != 40 {
		t.Fatalf("recorded %d, want 40", f.Recorded())
	}
	for i, ev := range events {
		if i > 0 && ev.Seq <= events[i-1].Seq {
			t.Fatalf("snapshot not ordered: seq %d after %d", ev.Seq, events[i-1].Seq)
		}
		if ev.Frame != int64(ev.Seq-1) {
			t.Errorf("event %d: frame %d does not match seq %d", i, ev.Frame, ev.Seq)
		}
	}
	// The retained window is the most recent events.
	if events[0].Seq != 25 || events[15].Seq != 40 {
		t.Errorf("retained window [%d, %d], want [25, 40]", events[0].Seq, events[15].Seq)
	}
}

// TestFlightKeepsNewestEvents races 16 writers into an 8-slot ring,
// 2,000 times over: once the writers are done, the ring must hold the
// newest 8 events, Seq 793 to 800 in order. A writer that claimed its
// Seq and stored its event later would overwrite a newer event.
func TestFlightKeepsNewestEvents(t *testing.T) {
	const (
		capacity  = 8
		writers   = 16
		perWriter = 50
		trials    = 2000
		total     = writers * perWriter
	)
	lost := 0
	for trial := 0; trial < trials; trial++ {
		f := NewFlight(capacity)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					f.Record(FlightEvent{Kind: "frame", Component: "test", Frame: int64(i)})
				}
			}()
		}
		wg.Wait()
		events := f.Snapshot()
		newest := len(events) == capacity
		for i := 0; newest && i < capacity; i++ {
			newest = events[i].Seq == uint64(total-capacity+1+i)
		}
		if !newest {
			if lost == 0 {
				seqs := make([]uint64, len(events))
				for i, ev := range events {
					seqs[i] = ev.Seq
				}
				t.Errorf("trial %d kept seqs %v, want %d..%d", trial, seqs, total-capacity+1, total)
			}
			lost++
		}
	}
	if lost > 0 {
		t.Errorf("%d of %d trials did not keep the newest %d events", lost, trials, capacity)
	}
}

// TestFlightRecordAllocations checks that a full ring records a
// field-less event without allocating, and that a recorder nobody
// writes holds no slots.
func TestFlightRecordAllocations(t *testing.T) {
	f := NewFlight(16)
	if got := testing.AllocsPerRun(10, func() { _ = NewFlight(64) }); got > 1 {
		t.Errorf("NewFlight allocates %v times, want only the recorder itself", got)
	}
	for i := 0; i < 16; i++ {
		f.Record(FlightEvent{Kind: "frame", Component: "test"})
	}
	if got := testing.AllocsPerRun(100, func() {
		f.Record(FlightEvent{Kind: "frame", Component: "test", Frame: 1, Detail: "pass"})
	}); got != 0 {
		t.Errorf("recording into a full ring allocates %v times", got)
	}
}

// TestFlightMinimumCapacity checks the capacity floor.
func TestFlightMinimumCapacity(t *testing.T) {
	if got := NewFlight(0).Capacity(); got != 8 {
		t.Fatalf("capacity %d, want floor 8", got)
	}
}

// TestFlightConcurrentHammer race-hammers the recorder: many concurrent
// writers while readers snapshot and hit the HTTP handler. The ring
// must never exceed its bound and every surfaced event must be
// internally consistent (no torn reads).
func TestFlightConcurrentHammer(t *testing.T) {
	const (
		writers   = 8
		perWriter = 5000
		capacity  = 64
	)
	f := NewFlight(capacity)
	var wg sync.WaitGroup
	stopReaders := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				f.Record(FlightEvent{
					Kind:       "drop",
					Component:  "hub",
					Frame:      int64(i),
					Subscriber: "sub",
					Latency:    time.Duration(i),
					Detail:     "hammer",
				})
			}
		}(w)
	}

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				events := f.Snapshot()
				if len(events) > capacity {
					t.Errorf("snapshot of %d events exceeds capacity %d", len(events), capacity)
					return
				}
				for _, ev := range events {
					// Torn events would mix fields from different writes;
					// every field here is tied to the same record call.
					if ev.Kind != "drop" || ev.Component != "hub" || ev.Detail != "hammer" {
						t.Errorf("torn event surfaced: %+v", ev)
						return
					}
					if ev.Frame != int64(ev.Latency) {
						t.Errorf("torn event: frame %d vs latency %d", ev.Frame, ev.Latency)
						return
					}
				}
				rec := httptest.NewRecorder()
				f.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight", nil))
				if rec.Code != 200 {
					t.Errorf("/debug/flight status %d", rec.Code)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(stopReaders)
	readers.Wait()

	if got := f.Recorded(); got != writers*perWriter {
		t.Fatalf("recorded %d events, want %d", got, writers*perWriter)
	}
	if n := len(f.Snapshot()); n != capacity {
		t.Fatalf("retained %d events after hammer, want full ring of %d", n, capacity)
	}
}

// TestFlightServeHTTP checks the JSON shape and the n/kind filters.
func TestFlightServeHTTP(t *testing.T) {
	f := NewFlight(32)
	for i := 0; i < 10; i++ {
		kind := "frame"
		if i%2 == 1 {
			kind = "drop"
		}
		f.Record(FlightEvent{Kind: kind, Component: "test", Frame: int64(i)})
	}
	get := func(target string) (int, struct {
		Capacity int           `json:"capacity"`
		Recorded uint64        `json:"recorded"`
		Events   []FlightEvent `json:"events"`
	}) {
		rec := httptest.NewRecorder()
		f.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		var payload struct {
			Capacity int           `json:"capacity"`
			Recorded uint64        `json:"recorded"`
			Events   []FlightEvent `json:"events"`
		}
		if rec.Code == 200 {
			if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
				t.Fatalf("GET %s: bad JSON: %v", target, err)
			}
		}
		return rec.Code, payload
	}

	code, payload := get("/debug/flight")
	if code != 200 || payload.Capacity != 32 || payload.Recorded != 10 || len(payload.Events) != 10 {
		t.Fatalf("full dump: code=%d payload=%+v", code, payload)
	}
	code, payload = get("/debug/flight?kind=drop")
	if code != 200 || len(payload.Events) != 5 {
		t.Fatalf("kind filter: code=%d events=%d, want 5", code, len(payload.Events))
	}
	code, payload = get("/debug/flight?n=3")
	if code != 200 || len(payload.Events) != 3 || payload.Events[0].Frame != 7 {
		t.Fatalf("n filter: code=%d events=%+v", code, payload.Events)
	}
	if code, _ := get("/debug/flight?n=bogus"); code != 400 {
		t.Fatalf("bad n: code=%d, want 400", code)
	}
}

// TestFlightDumpSummary exercises the post-mortem text forms.
func TestFlightDumpSummary(t *testing.T) {
	f := NewFlight(16)
	if got := f.Summary(); got != "empty" {
		t.Fatalf("empty summary %q", got)
	}
	f.Record(FlightEvent{Kind: "frame", Component: "daemon", Frame: 3, Latency: time.Millisecond, Detail: "pass"})
	f.Record(FlightEvent{Kind: "drop", Component: "hub", Frame: -1, Subscriber: "tcp:1"})
	f.Record(FlightEvent{Level: LevelWarn, Kind: "drop", Component: "hub", Frame: -1, Subscriber: "tcp:1",
		Fields: Fields("queued", 64)})
	if got := f.Summary(); got != "drop=2 frame=1" {
		t.Fatalf("summary %q, want \"drop=2 frame=1\"", got)
	}
	var b strings.Builder
	f.Dump(&b)
	dump := b.String()
	for _, want := range []string{"3 events retained", "frame=3", "sub=tcp:1", "pass", "1ms", "warn", "queued:64"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}

// Logging: the threshold, key/value fields and the JSON-lines sink.

// TestLoggerLevelThreshold checks that the threshold decides only which
// events reach the sink: the ring keeps every level, the default
// threshold is info, and raising it silences the sink for lower levels.
func TestLoggerLevelThreshold(t *testing.T) {
	var buf bytes.Buffer
	f := NewFlight(16)
	f.SetSink(&buf)
	f.Record(FlightEvent{Level: LevelDebug, Component: "core", Detail: "below default threshold"})
	f.Record(FlightEvent{Level: LevelInfo, Component: "core", Detail: "kept"})
	f.Record(FlightEvent{Level: LevelWarn, Component: "core", Detail: "kept too"})
	if prev := f.SetLevel(LevelError); prev != LevelInfo {
		t.Errorf("default threshold %v, want info", prev)
	}
	f.Record(FlightEvent{Level: LevelWarn, Component: "core", Detail: "now below threshold"})

	if got := len(f.Snapshot()); got != 4 {
		t.Errorf("ring holds %d events, want all 4 whatever their level", got)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"detail":"kept"`) || !strings.Contains(lines[1], `"detail":"kept too"`) {
		t.Errorf("sink lines = %q, want the info and the first warn event", lines)
	}
}

// TestLoggerRingBounded checks that logged events with fields stay
// within the ring's bound: only the newest survive, oldest first, with
// their fields intact and Seq rising.
func TestLoggerRingBounded(t *testing.T) {
	f := NewFlight(8)
	for i := 0; i < 20; i++ {
		f.Record(FlightEvent{Level: LevelInfo, Component: "core", Detail: "event", Fields: Fields("i", i)})
	}
	events := f.Snapshot()
	if len(events) != 8 {
		t.Fatalf("ring holds %d events, want 8", len(events))
	}
	for k, ev := range events {
		if ev.Fields["i"] != 12+k {
			t.Errorf("event %d has i = %v, want %d", k, ev.Fields["i"], 12+k)
		}
		if k > 0 && ev.Seq <= events[k-1].Seq {
			t.Errorf("sequence not increasing: %d after %d", ev.Seq, events[k-1].Seq)
		}
	}
}

func TestLoggerSinkWritesJSONLines(t *testing.T) {
	var buf bytes.Buffer
	f := NewFlight(16)
	if prev := f.SetSink(&buf); prev != nil {
		t.Fatalf("new recorder has sink %v", prev)
	}
	f.Record(FlightEvent{Level: LevelInfo, Kind: "state", Component: "daemon", Frame: -1, Detail: "pipeline started",
		Fields: Fields("channel", 14, "snr_db", 22.5)})
	f.Record(FlightEvent{Level: LevelError, Kind: "error", Component: "daemon", Frame: -1, Detail: "boom"})

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink got %d lines, want 2", len(lines))
	}
	if !strings.Contains(lines[0], `"level":"info"`) || !strings.Contains(lines[1], `"level":"error"`) {
		t.Errorf("levels not written by name: %q", lines)
	}
	var ev FlightEvent
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if ev.Seq != 1 || ev.Level != LevelInfo || ev.Component != "daemon" || ev.Detail != "pipeline started" {
		t.Errorf("event = %+v", ev)
	}
	if ev.Fields["channel"] != float64(14) || ev.Fields["snr_db"] != 22.5 {
		t.Errorf("fields = %v", ev.Fields)
	}
}

// TestLoggerSinkConcurrent records from 8 goroutines into one
// bytes.Buffer sink: the buffer must see one Write at a time (under
// -race a second concurrent Write is a DATA RACE), every line must
// parse, and Seq must rise line by line.
func TestLoggerSinkConcurrent(t *testing.T) {
	var buf bytes.Buffer
	f := NewFlight(16)
	f.SetSink(&buf)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				f.Record(FlightEvent{Level: LevelInfo, Kind: "subscribe", Component: "hub", Frame: -1,
					Fields: Fields("worker", w, "i", i)})
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
		var ev FlightEvent
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
	// A non-JSON-encodable value must be stringified, a dangling key
	// filled in, and a non-string key coerced — never a panic or a
	// broken sink.
	fields := Fields("err", struct{ X int }{7}, 42, "value", "snr_db", math.NaN(), "gain", float32(math.Inf(1)), "dangling")
	if _, ok := fields["err"].(string); !ok {
		t.Errorf("struct value not stringified: %T", fields["err"])
	}
	if fields["snr_db"] != "NaN" || fields["gain"] != "+Inf" {
		t.Errorf("non-finite floats not stringified: %v, %v", fields["snr_db"], fields["gain"])
	}
	if fields["42"] != "value" {
		t.Errorf("non-string key not coerced: %+v", fields)
	}
	if fields["dangling"] != "(MISSING)" {
		t.Errorf("dangling key = %v, want (MISSING)", fields["dangling"])
	}
	var buf bytes.Buffer
	f := NewFlight(8)
	f.SetSink(&buf)
	f.Record(FlightEvent{Level: LevelInfo, Detail: "odd fields", Fields: fields})
	if !json.Valid(bytes.TrimSpace(buf.Bytes())) {
		t.Errorf("coerced fields broke the sink line: %q", buf.String())
	}
}

// TestLoggerServeHTTPFilters checks /debug/flight's severity and
// component filters, alone and with ?n=.
func TestLoggerServeHTTPFilters(t *testing.T) {
	f := NewFlight(16)
	f.Record(FlightEvent{Level: LevelInfo, Component: "daemon", Detail: "one"})
	f.Record(FlightEvent{Level: LevelWarn, Component: "hub", Detail: "two"})
	f.Record(FlightEvent{Level: LevelError, Component: "daemon", Detail: "three"})
	f.Record(FlightEvent{Kind: "frame", Component: "rx", Detail: "pass"})

	get := func(target string) []FlightEvent {
		t.Helper()
		rec := httptest.NewRecorder()
		f.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: status %d: %s", target, rec.Code, rec.Body.String())
		}
		var payload struct {
			Events []FlightEvent `json:"events"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
			t.Fatalf("GET %s: not JSON: %v", target, err)
		}
		return payload.Events
	}

	if got := get("/debug/flight?level=info"); len(got) != 3 {
		t.Errorf("level=info returned %d events, want 3 (the debug frame left out)", len(got))
	}
	if got := get("/debug/flight?level=warn"); len(got) != 2 {
		t.Errorf("level=warn returned %d events, want 2", len(got))
	}
	if got := get("/debug/flight?component=hub"); len(got) != 1 || got[0].Detail != "two" {
		t.Errorf("component=hub returned %+v", got)
	}
	if got := get("/debug/flight?level=info&component=daemon&n=1"); len(got) != 1 || got[0].Detail != "three" {
		t.Errorf("level=info&component=daemon&n=1 returned %+v, want the most recent daemon event", got)
	}

	rec := httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight?level=shouting", nil))
	if rec.Code != 400 {
		t.Errorf("bad level query: status %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight?n=-3", nil))
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
		b, err := json.Marshal(lv)
		var back Level
		if err != nil || json.Unmarshal(b, &back) != nil || back != lv {
			t.Errorf("level %v does not round-trip through JSON: %s", lv, b)
		}
	}
	if _, err := ParseLevel("shouting"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
}
