package radio

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// FuzzParseCalTable feeds the calibration table decoder arbitrary JSON.
// It must never panic; any table it accepts must survive a json.Marshal
// → ParseCalTable round trip unchanged; and every accepted profile's
// Lookup, at and one unit either side of each axis end, must return a
// SyncFail in [0,1] and a distance distribution summing to 1.
func FuzzParseCalTable(f *testing.F) {
	f.Add(defaultCalJSON)
	for _, n := range []int{0, 1, len(defaultCalJSON) / 2, len(defaultCalJSON) - 2} {
		f.Add(defaultCalJSON[:n])
	}
	table, err := ParseCalTable(defaultCalJSON)
	if err != nil {
		f.Fatal(err)
	}
	native := table.Profiles[ProfileOQPSK]
	one := &CalTable{Version: table.Version, Profiles: map[string]*CalProfile{ProfileOQPSK: native}}
	f.Add(mustMarshal(f, one))
	dropped := *native
	dropped.Cells = native.Cells[1:]
	one.Profiles[ProfileOQPSK] = &dropped
	f.Add(mustMarshal(f, one))

	f.Fuzz(func(t *testing.T, data []byte) {
		table, err := ParseCalTable(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(table)
		if err != nil {
			t.Fatalf("accepted table does not marshal: %v", err)
		}
		back, err := ParseCalTable(out)
		if err != nil {
			t.Fatalf("re-encoded table does not parse: %v", err)
		}
		if !reflect.DeepEqual(back, table) {
			t.Fatalf("round trip diverged:\n%+v\n%+v", table, back)
		}
		for name, p := range table.Profiles {
			for _, snr := range axisEndProbes(p.SNRdB) {
				for _, cfo := range axisEndProbes(p.CFOHz) {
					for _, wifi := range axisEndProbes(p.WiFi) {
						c := p.Lookup(snr, cfo, wifi)
						if !(c.SyncFail >= 0 && c.SyncFail <= 1) {
							t.Fatalf("%s: Lookup(%g, %g, %g) SyncFail %g outside [0,1]", name, snr, cfo, wifi, c.SyncFail)
						}
						sum := 0.0
						for _, d := range c.Dist {
							sum += d
						}
						if math.Abs(sum-1) > 1e-9 {
							t.Fatalf("%s: Lookup(%g, %g, %g) Dist sums to %g", name, snr, cfo, wifi, sum)
						}
					}
				}
			}
		}
	})
}

// axisEndProbes is each end of an ascending axis and one unit either
// side of it.
func axisEndProbes(axis []float64) []float64 {
	first, last := axis[0], axis[len(axis)-1]
	return []float64{first - 1, first, first + 1, last - 1, last, last + 1}
}

func mustMarshal(f *testing.F, v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		f.Fatal(err)
	}
	return data
}
