package sim

import (
	"math/rand"

	"wazabee/internal/randsrc"
)

// The simulator follows the Monte-Carlo runner's seed discipline
// (internal/experiment/runner): structured coordinates pass through
// SplitMix64 rounds so adjacent nodes, frames and run seeds land on
// unrelated streams, and no draw ever depends on global event
// interleaving — the property that makes capture sequences bit-identical
// at any event-batch size.

// nodeSeed derives the RNG seed of one node's private stream from the
// run seed and the node's index.
func nodeSeed(seed int64, nodeID int) int64 {
	h := randsrc.SplitMix64(uint64(seed))
	h = randsrc.SplitMix64(h ^ uint64(int64(nodeID))<<1 ^ 0x5a)
	return int64(h)
}

// deliverySeed derives the erasure draw of one (frame, receiver) pair.
// The frame sequence number is itself deterministic (assigned in event
// order, which is total), so the draw is reproducible without being
// correlated across receivers.
func deliverySeed(seed int64, frameSeq uint64, rxID int) uint64 {
	h := randsrc.SplitMix64(uint64(seed) ^ 0xd1ce)
	h = randsrc.SplitMix64(h ^ frameSeq)
	h = randsrc.SplitMix64(h ^ uint64(int64(rxID)))
	return h
}

// nodeRand builds a node's private random stream: the stream
// rand.NewSource would give, seeded lazily because a node draws a few
// dozen outputs in a typical run.
func nodeRand(seed int64, nodeID int) *rand.Rand {
	return rand.New(randsrc.New(nodeSeed(seed, nodeID)))
}
