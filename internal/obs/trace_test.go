package obs

import (
	"strings"
	"testing"
)

func TestTraceNesting(t *testing.T) {
	tr := NewTrace("roundtrip")
	frame := tr.Start("frame").SetAttr("channel", 14)
	mod := tr.Start("modulate")
	mod.End()
	med := tr.Start("medium").SetAttr("snr_db", 10)
	med.End()
	rx := tr.Start("receive")
	tr.Start("aa-correlate").End()
	tr.Start("despread").End()
	rx.End()
	frame.End()

	roots := tr.Roots()
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	f := roots[0]
	if len(f.Children) != 3 {
		t.Fatalf("frame children = %d, want 3 (modulate, medium, receive)", len(f.Children))
	}
	rxSpan := f.Children[2]
	if rxSpan.Name != "receive" || len(rxSpan.Children) != 2 {
		t.Fatalf("receive span = %q with %d children, want 2", rxSpan.Name, len(rxSpan.Children))
	}
	if f.DurNs <= 0 {
		t.Error("frame span has no duration")
	}

	tree := tr.Tree()
	for _, want := range []string{"trace roundtrip", "frame", "aa-correlate", "despread", "channel=14", "snr_db=10"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
	// Children are indented one level deeper than their parent.
	lines := strings.Split(tree, "\n")
	indent := func(sub string) int {
		for _, l := range lines {
			if strings.Contains(l, sub) {
				return len(l) - len(strings.TrimLeft(l, " "))
			}
		}
		return -1
	}
	if !(indent("frame") < indent("receive") && indent("receive") < indent("despread")) {
		t.Errorf("tree indentation does not reflect nesting:\n%s", tree)
	}
}

// TestTraceEarlyReturn ends a parent while children are still open — the
// error-path shape — and checks the children get closed too.
func TestTraceEarlyReturn(t *testing.T) {
	tr := NewTrace("err")
	parent := tr.Start("receive")
	child := tr.Start("despread")
	parent.End()
	if child.Duration() <= 0 {
		t.Error("dangling child not closed by parent End")
	}
	// Double-End is harmless and does not disturb later spans.
	child.End()
	next := tr.Start("again")
	next.End()
	if len(tr.Roots()) != 2 {
		t.Errorf("roots = %d, want 2", len(tr.Roots()))
	}
}

func TestNilSpanSafe(t *testing.T) {
	var s *Span
	s.SetAttr("k", "v")
	if s.End() != 0 || s.Duration() != 0 {
		t.Error("nil span should be inert")
	}
}
