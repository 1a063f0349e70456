package radio

import (
	"bytes"
	"math"
	"testing"
)

// FuzzParseCalTable feeds the calibration table decoder arbitrary bytes.
// It must never panic; any table it accepts must encode back to the
// bytes it was given; and every accepted profile's Lookup, at and one
// unit either side of each axis end, must return a SyncFail in [0,1] and
// a distance distribution summing to 1.
func FuzzParseCalTable(f *testing.F) {
	f.Add(defaultCalTallies)
	for _, n := range []int{0, 1, len(defaultCalTallies) / 2, len(defaultCalTallies) - 2} {
		f.Add(defaultCalTallies[:n])
	}
	table, err := ParseCalTable(defaultCalTallies)
	if err != nil {
		f.Fatal(err)
	}
	one := &CalTable{SamplesPerChip: table.SamplesPerChip, FramesPerCell: table.FramesPerCell,
		Profiles: map[string]*CalProfile{ProfileOQPSK: table.Profiles[ProfileOQPSK]}}
	native := mustEncode(f, one)
	f.Add(native)
	// The native profile with its last cell line cut off: one short of a
	// complete grid.
	f.Add(native[:bytes.LastIndexByte(native[:len(native)-1], '\n')+1])
	f.Add(mustEncode(f, syncFailOneTable()))

	f.Fuzz(func(t *testing.T, data []byte) {
		table, err := ParseCalTable(data)
		if err != nil {
			return
		}
		out, err := table.Encode()
		if err != nil {
			t.Fatalf("accepted table does not encode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted table re-encodes to other bytes:\n%q\n%q", data, out)
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

func mustEncode(f *testing.F, t *CalTable) []byte {
	data, err := t.Encode()
	if err != nil {
		f.Fatal(err)
	}
	return data
}
