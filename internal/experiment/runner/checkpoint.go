package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"wazabee/internal/randsrc"
)

// CheckpointVersion is the current on-disk checkpoint format version.
// Decoding rejects files from a newer version descriptively rather than
// guessing at their layout.
const CheckpointVersion = 1

// ShardRecord is one completed shard in a checkpoint: the class tallies
// and value sum of trials [Start, End) of one point. Within a shard the
// sum accumulates in trial order, so the record is bit-reproducible no
// matter which worker ran it.
type ShardRecord struct {
	Point  string         `json:"point"`
	Start  int            `json:"start"`
	End    int            `json:"end"`
	Counts map[string]int `json:"counts,omitempty"`
	Sum    float64        `json:"sum,omitempty"`
}

// Checkpoint is the versioned resume file of a run: the spec fingerprint
// it belongs to and every shard completed so far, in canonical order.
type Checkpoint struct {
	Version     int           `json:"version"`
	Spec        string        `json:"spec"`
	Seed        int64         `json:"seed"`
	Fingerprint string        `json:"fingerprint"`
	Shards      []ShardRecord `json:"shards"`
}

// fingerprint folds everything that determines a run's work layout — name,
// seed, shard size, classes, and each point's key and trial count — into a
// hex token. A resume against a spec with a different fingerprint would
// silently misattribute shards, so Load refuses it.
func fingerprint(spec *Spec) string {
	h := randsrc.SplitMix64(uint64(spec.Seed))
	h = randsrc.SplitMix64(h ^ fnv64a(spec.Name))
	h = randsrc.SplitMix64(h ^ uint64(int64(spec.shardSize())))
	for _, c := range spec.Classes {
		h = randsrc.SplitMix64(h ^ fnv64a(c))
	}
	for _, p := range spec.Points {
		h = randsrc.SplitMix64(h ^ fnv64a(p.Key))
		h = randsrc.SplitMix64(h ^ uint64(int64(p.Trials)))
	}
	return strconv.FormatUint(h, 16)
}

// DecodeCheckpoint parses and validates a checkpoint file's bytes. It is
// the single entry point for untrusted input (the fuzz target drives it):
// corrupt, truncated, or future-version data comes back as a descriptive
// error, never a panic.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("runner: corrupt checkpoint: %w", err)
	}
	if cp.Version <= 0 {
		return nil, fmt.Errorf("runner: checkpoint missing version")
	}
	if cp.Version > CheckpointVersion {
		return nil, fmt.Errorf("runner: checkpoint version %d is newer than supported version %d — refusing to guess at its layout", cp.Version, CheckpointVersion)
	}
	for i, s := range cp.Shards {
		if s.Point == "" {
			return nil, fmt.Errorf("runner: checkpoint shard %d has no point key", i)
		}
		if s.Start < 0 || s.End <= s.Start {
			return nil, fmt.Errorf("runner: checkpoint shard %d has invalid trial range [%d, %d)", i, s.Start, s.End)
		}
		total := 0
		for class, n := range s.Counts {
			if n < 0 {
				return nil, fmt.Errorf("runner: checkpoint shard %d counts %d trials for class %q", i, n, class)
			}
			total += n
		}
		if total != s.End-s.Start {
			return nil, fmt.Errorf("runner: checkpoint shard %d tallies %d trials for range [%d, %d)", i, total, s.Start, s.End)
		}
	}
	return &cp, nil
}

// loadCheckpoint reads a checkpoint from disk and verifies it belongs to
// spec. A missing file is not an error — it simply means a fresh run.
func loadCheckpoint(path string, spec *Spec) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runner: read checkpoint: %w", err)
	}
	cp, err := DecodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("%w (from %s)", err, path)
	}
	if want := fingerprint(spec); cp.Fingerprint != want {
		return nil, fmt.Errorf("runner: checkpoint %s belongs to a different run (spec %q seed %d, fingerprint %s, want %s) — delete it or point -checkpoint elsewhere",
			path, cp.Spec, cp.Seed, cp.Fingerprint, want)
	}
	return cp, nil
}

// saveCheckpoint writes the completed shards atomically (temp file +
// rename), so a crash mid-write never leaves a truncated checkpoint where
// a good one stood. Shards are emitted in canonical order to keep the file
// diffable between saves.
func saveCheckpoint(path string, spec *Spec, shards []ShardRecord) error {
	sort.Slice(shards, func(i, j int) bool {
		if shards[i].Point != shards[j].Point {
			return shards[i].Point < shards[j].Point
		}
		return shards[i].Start < shards[j].Start
	})
	cp := Checkpoint{
		Version:     CheckpointVersion,
		Spec:        spec.Name,
		Seed:        spec.Seed,
		Fingerprint: fingerprint(spec),
		Shards:      shards,
	}
	data, err := json.MarshalIndent(&cp, "", " ")
	if err != nil {
		return fmt.Errorf("runner: encode checkpoint: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("runner: write checkpoint: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: write checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: write checkpoint: %w", err)
	}
	return nil
}
