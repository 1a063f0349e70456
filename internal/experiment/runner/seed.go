// Package runner is the generic trial-sharded Monte-Carlo engine behind
// the evaluation experiments. It schedules (point, trial) work items onto
// a bounded worker pool, derives every trial's randomness deterministically
// from (seed, point key, trial index), honours context cancellation
// mid-sweep, checkpoints completed shards to a versioned JSON file for
// resume, publishes progress and ETA gauges, and attaches Wilson-score
// confidence intervals to every rate estimate.
//
// The central property is scheduling independence: because a trial's RNG
// seed depends only on (seed, point key, trial index) and all aggregation
// reduces shard results in canonical (point, shard) order, a run's Result
// is bit-identical at any worker count, any scheduling order, and across
// any checkpoint/resume boundary.
package runner

import (
	"math/bits"

	"wazabee/internal/randsrc"
)

// fnv64a hashes a point key with the FNV-1a parameters, folding the key
// string into a single word before mixing.
func fnv64a(s string) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// TrialSeed derives the deterministic RNG seed of one Monte-Carlo trial
// from the run seed, the operating point's key and the trial index. Each
// coordinate passes through a SplitMix64 round, so adjacent trials, points
// and run seeds land on unrelated streams; the result depends on nothing
// else, which is what makes runs order- and parallelism-independent.
func TrialSeed(seed int64, pointKey string, trial int) int64 {
	h := randsrc.SplitMix64(uint64(seed))
	h = randsrc.SplitMix64(h ^ bits.RotateLeft64(fnv64a(pointKey), 17))
	h = randsrc.SplitMix64(h ^ uint64(int64(trial)))
	return int64(h)
}
