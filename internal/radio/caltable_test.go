package radio

import (
	"strings"
	"testing"
)

// syncFailOneTable is a one-frame-per-cell table whose every cell failed
// to decode: SyncFail 1 and, with nothing decoded, Dist[16] = 1. Its
// axes make Lookup's corner weights sum to an ulp above 1 at some axis
// ends.
func syncFailOneTable() *CalTable {
	p := &CalProfile{
		Name:    "p",
		SNRdB:   []float64{0, 1.5},
		CFOHz:   []float64{0, 6},
		WiFi:    []float64{0, 3},
		Tallies: make([]CalTally, 8),
		Cells:   make([]CalCell, 8),
	}
	for i := range p.Tallies {
		p.Tallies[i].Fails = 1
		p.Cells[i] = p.Tallies[i].Cell(1)
	}
	return &CalTable{SamplesPerChip: 8, FramesPerCell: 1, Seed: 1, Profiles: map[string]*CalProfile{"p": p}}
}

// TestLookupClampsSyncFail blends cells that all sit at SyncFail 1 at
// every axis end and one unit either side of it. Without Lookup's clamp,
// 39 of those 216 probes return 1.0000000000000002.
func TestLookupClampsSyncFail(t *testing.T) {
	p := syncFailOneTable().Profiles["p"]
	for _, snr := range axisEndProbes(p.SNRdB) {
		for _, cfo := range axisEndProbes(p.CFOHz) {
			for _, wifi := range axisEndProbes(p.WiFi) {
				if c := p.Lookup(snr, cfo, wifi); c.SyncFail > 1 {
					t.Errorf("Lookup(%g, %g, %g) SyncFail = %v, want at most 1", snr, cfo, wifi, c.SyncFail)
				}
			}
		}
	}
}

// TestParseCalTableRejects changes one thing in a valid stored table and
// requires ParseCalTable to refuse the result: bad values, spellings
// Encode never writes, and grids or profile lists that do not add up.
func TestParseCalTableRejects(t *testing.T) {
	base, err := syncFailOneTable().Encode()
	if err != nil {
		t.Fatal(err)
	}
	valid := string(base)
	if _, err := ParseCalTable(base); err != nil {
		t.Fatalf("the unchanged table: %v", err)
	}
	cell := "1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n"
	profile := valid[strings.Index(valid, "profile "):]
	for _, c := range []struct{ name, old, new string }{
		{"empty file", valid, ""},
		{"no final newline", valid, strings.TrimSuffix(valid, "\n")},
		{"unknown header", "calibration-tallies v1", "calibration-tallies v2"},
		{"frames per cell 0", "frames_per_cell 1", "frames_per_cell 0"},
		{"header leading zero", "frames_per_cell 1", "frames_per_cell 01"},
		{"header sign", "seed 1", "seed +1"},
		{"NaN axis value", "snr_db 0 1.5", "snr_db 0 NaN"},
		{"+Inf axis value", "cfo_hz 0 6", "cfo_hz 0 +Inf"},
		{"-Inf axis value", "wifi 0 3", "wifi -Inf 3"},
		{"unsorted axis", "snr_db 0 1.5", "snr_db 1.5 0"},
		{"empty axis", "wifi 0 3\n", "wifi\n"},
		{"axis trailing space", "wifi 0 3\n", "wifi 0 3 \n"},
		{"float not in shortest form", "snr_db 0 1.5", "snr_db 0 1.50"},
		{"axes out of order", "cfo_hz 0 6\nwifi 0 3\n", "wifi 0 3\ncfo_hz 0 6\n"},
		{"fails above frames", cell, "2" + cell[1:]},
		{"count with a sign", cell, "+" + cell},
		{"count with a leading zero", cell, "0" + cell},
		{"double space", cell, "1 " + cell[3:]},
		{"too few fields", cell, cell[2:]},
		{"too many fields", cell, "1 " + cell},
		{"count above uint64", cell, "1 18446744073709551616" + cell[3:]},
		{"histogram total above uint64", cell, "1 18446744073709551615 1" + cell[5:]},
		{"incomplete grid", valid, strings.TrimSuffix(valid, cell)},
		{"one cell too many", valid, valid + cell},
		{"repeated profile", valid, valid + profile},
		{"profiles out of order", valid, valid + strings.Replace(profile, "profile p", "profile a", 1)},
		{"profile without axes", valid, valid + "profile q\nsnr_db 0\n"},
	} {
		bad := strings.Replace(valid, c.old, c.new, 1)
		if bad == valid {
			t.Fatalf("%s: %q is not in the table", c.name, c.old)
		}
		if _, err := ParseCalTable([]byte(bad)); err == nil {
			t.Errorf("%s: ParseCalTable accepted\n%s", c.name, bad)
		}
	}
}
