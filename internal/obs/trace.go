package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span (a frame counter, a chip
// distance, a channel number...).
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed pipeline stage. Spans nest: a span started while
// another is open becomes its child, so a Receive span naturally
// contains aa-correlate and despread children.
type Span struct {
	Name     string  `json:"name"`
	StartNs  int64   `json:"start_ns"` // offset from the trace start
	DurNs    int64   `json:"dur_ns"`
	Attrs    []Attr  `json:"attrs,omitempty"`
	Children []*Span `json:"children,omitempty"`

	trace *Trace
	start time.Time
}

// SetAttr annotates the span. Values go through fmt for convenience;
// attach numbers directly.
func (s *Span) SetAttr(key string, value any) *Span {
	if s == nil {
		return s
	}
	s.trace.mu.Lock()
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: fmt.Sprint(value)})
	s.trace.mu.Unlock()
	return s
}

// End closes the span and returns its duration. Ending a span that has
// open children closes them too (in practice: an early return on error).
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	now := time.Now()
	t := s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := -1
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == s {
			idx = i
			break
		}
	}
	if idx < 0 {
		// Already ended, by its own End or an ancestor's.
		return time.Duration(s.DurNs)
	}
	// Pop the stack down to (and including) s, closing any dangling
	// children along the way (in practice: an early return on error).
	for _, sp := range t.stack[idx:] {
		sp.DurNs = now.Sub(sp.start).Nanoseconds()
	}
	t.stack = t.stack[:idx]
	return time.Duration(s.DurNs)
}

// Duration returns the span's recorded duration (zero until End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.trace.mu.Lock()
	defer s.trace.mu.Unlock()
	return time.Duration(s.DurNs)
}

// Trace collects the spans of one pipeline traversal (typically one
// frame's TX→medium→RX round trip). It is safe for concurrent use, but
// the parent/child nesting follows start order, so drive one trace from
// one goroutine at a time for meaningful trees.
type Trace struct {
	mu    sync.Mutex
	name  string
	epoch time.Time
	roots []*Span
	stack []*Span
}

// NewTrace starts an empty trace.
func NewTrace(name string) *Trace {
	return &Trace{name: name, epoch: time.Now()}
}

// Name returns the trace's name.
func (t *Trace) Name() string { return t.name }

// Start opens a span nested under the innermost open span (or at the
// root). Close it with End.
func (t *Trace) Start(name string) *Span {
	now := time.Now()
	s := &Span{Name: name, trace: t, start: now, StartNs: now.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	if n := len(t.stack); n > 0 {
		parent := t.stack[n-1]
		parent.Children = append(parent.Children, s)
	} else {
		t.roots = append(t.roots, s)
	}
	t.stack = append(t.stack, s)
	t.mu.Unlock()
	return s
}

// Roots returns the completed span forest (shared structures; treat as
// read-only).
func (t *Trace) Roots() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}

// Tree renders the trace as a flame-ordered text tree: spans in start
// order, children indented under parents, one line per span with its
// start offset, duration and attributes.
func (t *Trace) Tree() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s\n", t.name)
	for _, root := range t.roots {
		writeSpan(&b, root, 1)
	}
	return b.String()
}

func writeSpan(b *strings.Builder, s *Span, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%-14s %12s  +%s", s.Name,
		time.Duration(s.DurNs).Round(time.Microsecond),
		time.Duration(s.StartNs).Round(time.Microsecond))
	if len(s.Attrs) > 0 {
		attrs := make([]string, len(s.Attrs))
		for i, a := range s.Attrs {
			attrs[i] = a.Key + "=" + a.Value
		}
		sort.Strings(attrs)
		fmt.Fprintf(b, "  [%s]", strings.Join(attrs, " "))
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		writeSpan(b, c, depth+1)
	}
}
