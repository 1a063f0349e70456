package sim

import (
	"math/rand"
	"testing"
	"time"

	"wazabee/internal/zigbee"
)

// digestRun simulates topo for virtualFor, advancing the clock in
// batchSize steps, and returns the capture digest of every channel the
// topology uses plus the frame count.
func digestRun(t *testing.T, topo Topology, seed int64, virtualFor, batchSize time.Duration) (string, uint64) {
	t.Helper()
	nw, err := New(topo, Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewDigestRecorder()
	channels := map[int]bool{}
	for _, n := range topo.Nodes {
		if !channels[n.Channel] {
			channels[n.Channel] = true
			nw.Tap(n.Channel, rec.Record)
		}
	}
	if batchSize <= 0 {
		nw.Run(virtualFor)
	} else {
		for at := batchSize; at < virtualFor; at += batchSize {
			nw.Run(at)
		}
		nw.Run(virtualFor)
	}
	return rec.Sum(), rec.Frames()
}

// TestSimDeterministicAcrossRuns pins the headline determinism claim:
// two same-seed runs produce byte-identical capture sequences.
// TestNodeRandMatchesMathRand pins the node and intruder streams, which
// every backoff and jitter draw comes from, to math/rand's seeded
// source.
func TestNodeRandMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7} {
		for _, id := range []int{IntruderSrc, 0, 1110} {
			got, want := nodeRand(seed, id), rand.New(rand.NewSource(nodeSeed(seed, id)))
			for i := 0; i < 2000; i++ {
				if g, w := got.Int63n(1<<uint(i%40+1)), want.Int63n(1<<uint(i%40+1)); g != w {
					t.Fatalf("seed %d node %d: draw %d = %d, math/rand gives %d", seed, id, i, g, w)
				}
			}
		}
	}
}

func TestSimDeterministicAcrossRuns(t *testing.T) {
	a, na := digestRun(t, Tree(2, 5), 42, 30*time.Second, 0)
	b, nb := digestRun(t, Tree(2, 5), 42, 30*time.Second, 0)
	if na == 0 {
		t.Fatal("run produced no captures")
	}
	if a != b || na != nb {
		t.Fatalf("same-seed digests differ: %s (%d frames) vs %s (%d frames)", a, na, b, nb)
	}
}

// TestSimDeterministicOrderIndependent pins batch-size independence: the
// capture sequence cannot depend on how Run calls slice virtual time.
func TestSimDeterministicOrderIndependent(t *testing.T) {
	ref, nref := digestRun(t, Tree(2, 5), 42, 30*time.Second, 0)
	for _, batch := range []time.Duration{time.Millisecond, 137 * time.Millisecond, time.Second} {
		got, n := digestRun(t, Tree(2, 5), 42, 30*time.Second, batch)
		if got != ref || n != nref {
			t.Fatalf("batch %v digest %s (%d frames) != one-shot %s (%d frames)", batch, got, n, ref, nref)
		}
	}
}

// TestSimSeedsDiverge guards against a degenerate oracle: different
// seeds must produce different traffic.
func TestSimSeedsDiverge(t *testing.T) {
	a, _ := digestRun(t, Tree(2, 5), 42, 30*time.Second, 0)
	b, _ := digestRun(t, Tree(2, 5), 43, 30*time.Second, 0)
	if a == b {
		t.Fatal("seeds 42 and 43 produced identical capture digests")
	}
}

// TestSimThousandNodeAcceptance is the scale contract from the roadmap:
// a seeded 1,000-node mesh (Tree(3,10): 1111 nodes) simulates 60
// virtual seconds of 2-second beacon cadence inside the wall-clock
// budget, producing tens of thousands of frames, and two same-seed runs
// are byte-identical.
func TestSimThousandNodeAcceptance(t *testing.T) {
	topo := Tree(3, 10)
	run := func() (string, uint64, Stats, time.Duration) {
		nw, err := New(topo, Config{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		rec := NewDigestRecorder()
		nw.Tap(zigbee.DefaultChannel, rec.Record)
		start := time.Now()
		nw.Run(60 * time.Second)
		return rec.Sum(), rec.Frames(), nw.Stats(), time.Since(start)
	}
	d1, n1, stats, wall1 := run()
	d2, n2, _, _ := run()

	if d1 != d2 || n1 != n2 {
		t.Fatalf("same-seed 1k-node runs differ: %s (%d) vs %s (%d)", d1, n1, d2, n2)
	}
	if n1 <= 25000 {
		t.Fatalf("produced %d frames, want > 25000", n1)
	}
	if stats.VirtualTime != 60*time.Second {
		t.Fatalf("virtual time = %v, want 60s", stats.VirtualTime)
	}
	if joined := stats.Joined; joined < stats.Nodes*9/10 {
		t.Fatalf("only %d/%d nodes joined", joined, stats.Nodes)
	}
	if !raceEnabled && wall1 > 5*time.Second {
		t.Fatalf("60 virtual seconds took %v wall, budget 5s", wall1)
	}
}
