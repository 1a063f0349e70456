package wazabee

// Streaming-pipeline benchmark. Receiver.Receive is one Push and one
// Flush on a fresh RxStream, so this times the pipeline the
// whole-capture receiver runs, with the pools warm. Its allocs/op are
// what a decoded capture costs; the zero-allocation contract covers
// Push alone (TestStreamSteadyStateAllocs).

import (
	"testing"

	"wazabee/internal/chip"
	"wazabee/internal/obs"
)

// BenchmarkRxStream measures the streaming reception primitive: the
// golden capture is fed in fixed-size chunks through a long-lived
// RxStream, flushing at each capture boundary.
func BenchmarkRxStream(b *testing.B) {
	tx, err := chip.NRF52832().NewWazaBeeTransmitter(benchSPS)
	if err != nil {
		b.Fatal(err)
	}
	rx, err := chip.CC1352R1().NewWazaBeeReceiver(benchSPS)
	if err != nil {
		b.Fatal(err)
	}
	ppdu := benchPPDU(b, []byte{0x41, 0x88, 0x01, 0x34, 0x12, 0x42, 0x00, 0x63, 0x00, 0x2a})
	sig, err := tx.Modulate(ppdu)
	if err != nil {
		b.Fatal(err)
	}
	padded, err := sig.Pad(200, 100)
	if err != nil {
		b.Fatal(err)
	}
	rx.Obs = obs.NewRegistry()

	const chunk = 512
	s := rx.Stream()
	defer s.Close()
	// One warm-up capture so every pooled slab reaches steady-state
	// capacity before measurement.
	for start := 0; start < len(padded); start += chunk {
		end := start + chunk
		if end > len(padded) {
			end = len(padded)
		}
		s.Push(padded[start:end])
	}
	if _, _, err := s.Flush(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for start := 0; start < len(padded); start += chunk {
			end := start + chunk
			if end > len(padded) {
				end = len(padded)
			}
			s.Push(padded[start:end])
		}
		if _, _, err := s.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}
