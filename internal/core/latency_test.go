package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"wazabee/internal/dsp"
	"wazabee/internal/obs"
)

// labelID renders a series' label set sorted, as "k=v;k=v;".
func labelID(s obs.SeriesSnapshot) string {
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	id := ""
	for _, k := range keys {
		id += fmt.Sprintf("%s=%s;", k, s.Labels[k])
	}
	return id
}

// latencySeries lists the wazabee_latency_seconds series a registry
// holds with at least one observation, each rendered as its sorted
// label set, with its observation count.
func latencySeries(reg *obs.Registry) map[string]uint64 {
	out := make(map[string]uint64)
	for _, s := range reg.Snapshot() {
		if s.Name != obs.LatencySecondsMetric || s.Count == 0 {
			continue
		}
		out[labelID(s)] = s.Count
	}
	return out
}

// otherSeries lists every series of a registry outside the latency
// family: a counter or gauge with its value, a histogram with its
// observation count (stage histograms sum wall times).
func otherSeries(reg *obs.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range reg.Snapshot() {
		if s.Name == obs.LatencySecondsMetric {
			continue
		}
		v := s.Value
		if s.Kind == "histogram" {
			v = float64(s.Count)
		}
		out[s.Name+"{"+labelID(s)+"}"] = v
	}
	return out
}

// verdictCapture is a capture with the verdict the receiver must reach.
type verdictCapture struct {
	name    string
	sig     dsp.IQ
	decodes bool
}

// verdictCaptures returns one capture per verdict: decoded, no sync
// and a mid-frame abort.
func verdictCaptures(t *testing.T) []verdictCapture {
	t.Helper()
	golden := goldenCapture(t)
	noise, err := dsp.NoiseFloor(8000, 0.01, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return []verdictCapture{
		{"decoded", golden, true},
		{"no_sync", noise, false},
		{"truncated", golden[:len(golden)-2000], false},
	}
}

// TestLatencyStampIdentity: stamping a capture changes nothing but the
// latency family. For every verdict, a stamped ReceiveStatsAt returns
// the PSDU, link stats and error text plain ReceiveStats does, and
// leaves every other series of its registry at the same value or
// observation count.
func TestLatencyStampIdentity(t *testing.T) {
	for _, tc := range verdictCaptures(t) {
		plain, regA := newTestReceiver(t)
		demA, stA, errA := plain.ReceiveStats(tc.sig)
		stamped, regB := newTestReceiver(t)
		demB, stB, errB := stamped.ReceiveStatsAt(time.Now().Add(-time.Millisecond), tc.sig)

		if (errA == nil) != tc.decodes || (errB == nil) != tc.decodes {
			t.Fatalf("%s: plain error %v, stamped error %v", tc.name, errA, errB)
		}
		if errA != nil && errA.Error() != errB.Error() {
			t.Fatalf("%s: stamped error %q, plain %q", tc.name, errB, errA)
		}
		if *stB != *stA {
			t.Fatalf("%s: stamped stats %+v, plain %+v", tc.name, *stB, *stA)
		}
		if demA != nil && !bytes.Equal(demB.PPDU.PSDU, demA.PPDU.PSDU) {
			t.Fatalf("%s: stamped PSDU % x, plain % x", tc.name, demB.PPDU.PSDU, demA.PPDU.PSDU)
		}
		want, got := otherSeries(regA), otherSeries(regB)
		if len(want) == 0 {
			t.Fatalf("%s: plain receive left no series at all", tc.name)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: series sets differ:\n plain   %v\n stamped %v", tc.name, want, got)
		}
		for id, v := range want {
			if got[id] != v {
				t.Errorf("%s: series %s: stamped %v, plain %v", tc.name, id, got[id], v)
			}
		}
	}
}

// TestLatencyStampedVerdicts: a stamped ReceiveStatsAt observes exactly
// one demod latency whatever its verdict — decoded, no sync or a
// mid-frame abort — so the population is not biased toward clean
// frames.
func TestLatencyStampedVerdicts(t *testing.T) {
	for _, tc := range verdictCaptures(t) {
		rx, reg := newTestReceiver(t)
		if _, _, err := rx.ReceiveStatsAt(time.Now().Add(-time.Millisecond), tc.sig); (err == nil) != tc.decodes {
			t.Fatalf("%s: stamped receive error %v", tc.name, err)
		}
		got := latencySeries(reg)
		if len(got) != 1 || got["decoder=wazabee;stage=demod;"] != 1 {
			t.Fatalf("%s: latency series %v, want one demod observation", tc.name, got)
		}
	}
}

// TestLatencyUnstampedSkipped checks plain ReceiveStats observes
// nothing into the latency family, so replayed and test traffic cannot
// pollute the live SLO histograms.
func TestLatencyUnstampedSkipped(t *testing.T) {
	rx, reg := newTestReceiver(t)
	if _, _, err := rx.ReceiveStats(goldenCapture(t)); err != nil {
		t.Fatalf("decode failed: %v", err)
	}
	if series := latencySeries(reg); len(series) != 0 {
		t.Fatalf("unstamped receive observed latency series %v", series)
	}
}

// TestLatencyOriginClearedByFlush checks the origin stamp is flushed
// with its capture's verdict and does not leak into the next capture:
// the Receiver keeps no stamp between calls, so after a stamped call of
// any verdict, an unstamped call on the same receiver adds no demod
// observation.
func TestLatencyOriginClearedByFlush(t *testing.T) {
	for _, tc := range verdictCaptures(t) {
		rx, reg := newTestReceiver(t)
		rx.ReceiveStatsAt(time.Now(), tc.sig)
		demod := obs.LatencyHistogram(reg, "demod", "decoder", "wazabee")
		if got := demod.Count(); got != 1 {
			t.Fatalf("%s: stamped capture observed %d demod latencies, want 1", tc.name, got)
		}
		rx.ReceiveStats(tc.sig)
		if got := demod.Count(); got != 1 {
			t.Fatalf("%s: origin stamp leaked into the next capture: %d observations, want 1", tc.name, got)
		}
	}
}
