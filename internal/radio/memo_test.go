package radio

import (
	"math"
	"sync"
	"testing"

	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
)

// TestFrameTierMemoIdentity checks that the frame tier's memo is exact:
// deliveries that interleave every PSDU length with several operating
// points get a SuccessProb whose bits equal a fresh channel's first
// delivery of the same spec, from one goroutine and from several
// sharing the channel. The frame tier's probabilities feed every mesh
// digest, so a memo that drifted by one ulp would move them all.
func TestFrameTierMemoIdentity(t *testing.T) {
	links := []Link{
		{SNRdB: 1.5},
		{SNRdB: 3, CFOHz: 40e3},
		{SNRdB: 25},
	}
	// specs interleaves lengths with operating points: consecutive
	// deliveries change the link, and each link sees the lengths in a
	// scattered order (37 is coprime to 128).
	var specs []FrameSpec
	for i := 0; i <= ieee802154.MaxPSDULength; i++ {
		for _, link := range links {
			specs = append(specs, FrameSpec{PSDULen: (i * 37) % (ieee802154.MaxPSDULength + 1), TxFreqMHz: 2420, RxFreqMHz: 2420, Link: link, Seed: uint64(i)})
		}
	}
	newChannel := func() Channel {
		m, err := NewMedium(16e6, 1)
		if err != nil {
			t.Fatal(err)
		}
		m.Obs = obs.NewRegistry()
		return frameTier(t, m)
	}
	want := make([]uint64, len(specs))
	for i, spec := range specs {
		want[i] = math.Float64bits(deliverFrame(t, newChannel(), spec.PSDULen, spec.TxFreqMHz, spec.RxFreqMHz, spec.Link, spec.Seed).SuccessProb)
	}

	ch := newChannel()
	for round := 0; round < 2; round++ {
		for i, spec := range specs {
			got := deliverFrame(t, ch, spec.PSDULen, spec.TxFreqMHz, spec.RxFreqMHz, spec.Link, spec.Seed).SuccessProb
			if math.Float64bits(got) != want[i] {
				t.Fatalf("round %d, length %d at %+v: SuccessProb %v (bits %#x), fresh channel %v (bits %#x)",
					round, spec.PSDULen, spec.Link, got, math.Float64bits(got), math.Float64frombits(want[i]), want[i])
			}
		}
	}

	ch = newChannel()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range specs {
				i := (j + w*len(specs)/8) % len(specs)
				spec := specs[i]
				out, err := ch.Deliver(spec)
				if err != nil {
					t.Error(err)
					return
				}
				if math.Float64bits(out.SuccessProb) != want[i] {
					t.Errorf("worker %d, length %d at %+v: SuccessProb bits %#x, fresh channel %#x",
						w, spec.PSDULen, spec.Link, math.Float64bits(out.SuccessProb), want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
