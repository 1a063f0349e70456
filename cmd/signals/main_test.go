package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags checks that an unknown figure or flag is an
// error, which main turns into exit status 1, with nothing on stdout.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, bad := range [][]string{
		{"-figure", "0"},
		{"-figure", "5"},
		{"-no-such-flag"},
	} {
		var out, errOut bytes.Buffer
		if err := run(bad, &out, &errOut); err == nil {
			t.Errorf("run(%v) accepted invalid input", bad)
		}
		if out.Len() > 0 {
			t.Errorf("run(%v) wrote to stdout before failing:\n%s", bad, out.String())
		}
	}
}

func TestRunFigure1CSV(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-figure", "1"}, &out, &errOut); err != nil {
		t.Fatalf("run(-figure 1): %v", err)
	}
	const header = "sample,bit,i,q,freq\n"
	if !strings.HasPrefix(out.String(), header) {
		t.Fatalf("-figure 1 output does not start with the CSV header %q", header)
	}
	if strings.Count(out.String(), "\n") < 2 {
		t.Errorf("-figure 1 printed only its header")
	}
}
