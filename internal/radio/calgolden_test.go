package radio

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"testing"
)

// calTableFloatsSHA256 is the SHA-256 of every float the embedded
// calibration table loads to, as hashed by TestDefaultCalTableFloatsGolden.
// A change to the table's stored form, its loader or the fit must leave it
// untouched unless it means to re-pin the calibrated tiers.
const calTableFloatsSHA256 = "b9c42f69d718d62a05686dd46ee942bb98320082e0d97e7393339fabdce979b6"

// TestDefaultCalTableFloatsGolden hashes the loaded default table: for
// each profile in sorted name order its name, its three axes and every
// cell's SyncFail and Dist, each float as math.Float64bits, each list
// preceded by its length. It also counts the floats, so a table that
// gains or loses cells fails with the counts as well as the digest.
func TestDefaultCalTableFloatsGolden(t *testing.T) {
	table, err := DefaultCalTable()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(table.Profiles))
	for name := range table.Profiles {
		names = append(names, name)
	}
	sort.Strings(names)

	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	var axisPoints, syncFails, distWeights int
	for _, name := range names {
		p := table.Profiles[name]
		word(uint64(len(name)))
		h.Write([]byte(name))
		for _, axis := range [][]float64{p.SNRdB, p.CFOHz, p.WiFi} {
			word(uint64(len(axis)))
			for _, v := range axis {
				word(math.Float64bits(v))
			}
			axisPoints += len(axis)
		}
		word(uint64(len(p.Cells)))
		for _, c := range p.Cells {
			word(math.Float64bits(c.SyncFail))
			for _, d := range c.Dist {
				word(math.Float64bits(d))
			}
		}
		syncFails += len(p.Cells)
		distWeights += len(p.Cells) * len(CalCell{}.Dist)
	}
	if syncFails != 585 || distWeights != 9945 || axisPoints != 103 {
		t.Errorf("table holds %d SyncFail values, %d distance weights and %d axis points, want 585, 9945 and 103",
			syncFails, distWeights, axisPoints)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != calTableFloatsSHA256 {
		t.Errorf("loaded table floats hash to %s, want %s", got, calTableFloatsSHA256)
	}
}
