package radio

import (
	"sync"
	"testing"
)

// TestDeliverVirtualConcurrentSeeded exercises the virtual delivery
// path (the frame tier) from many goroutines on one shared Medium and
// channel. Virtual deliveries draw exclusively from their per-call
// seed — never from the medium's shared Rand, whose single-goroutine
// contract is documented on Medium.Rand — so concurrent callers with
// private seeds must be safe under the race detector and must produce
// exactly the outcomes a sequential caller sees.
func TestDeliverVirtualConcurrentSeeded(t *testing.T) {
	m, err := NewMedium(16e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	ch := frameTier(t, m)
	link := Link{SNRdB: 2} // mid-curve: both outcomes occur

	const workers = 8
	const perWorker = 400
	want := make([][]bool, workers)
	for w := range want {
		want[w] = make([]bool, perWorker)
		for i := range want[w] {
			seed := uint64(w*perWorker + i)
			want[w][i] = deliverFrame(t, ch, 40, 2420, 2420, link, seed).Delivered()
		}
	}

	got := make([][]bool, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		got[w] = make([]bool, perWorker)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				seed := uint64(w*perWorker + i)
				out, err := ch.Deliver(FrameSpec{PSDULen: 40, TxFreqMHz: 2420, RxFreqMHz: 2420, Link: link, Seed: seed})
				if err != nil {
					t.Error(err)
					return
				}
				got[w][i] = out.Delivered()
			}
		}()
	}
	wg.Wait()

	for w := range want {
		for i := range want[w] {
			if got[w][i] != want[w][i] {
				t.Fatalf("worker %d draw %d: concurrent outcome %v != sequential %v",
					w, i, got[w][i], want[w][i])
			}
		}
	}
}
