package zigbee

import (
	"errors"
	"testing"
	"time"

	"wazabee/internal/ieee802154"
	vsim "wazabee/internal/zigbee/sim"
)

func TestStartLiveValidation(t *testing.T) {
	sim, err := NewSimulation(41, 8, 25)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StartLive(nil, time.Millisecond, DefaultChannel); err == nil {
		t.Error("expected error for nil simulation")
	}
	if _, err := StartLive(sim, 0, DefaultChannel); err == nil {
		t.Error("expected error for zero interval")
	}
	if _, err := StartLive(sim, time.Millisecond, 99); err == nil {
		t.Error("expected error for invalid channel")
	}
}

func TestLiveNetworkStreamsCaptures(t *testing.T) {
	sim, err := NewSimulation(42, 8, 25)
	if err != nil {
		t.Fatal(err)
	}
	live, err := StartLive(sim, 2*time.Millisecond, DefaultChannel)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Shutdown()

	received := 0
	deadline := time.After(3 * time.Second)
	for received < 3 {
		select {
		case capture, ok := <-live.Captures():
			if !ok {
				t.Fatalf("capture stream closed early (err=%v)", live.Err())
			}
			if capture.Channel != DefaultChannel {
				t.Errorf("capture channel %d, want %d", capture.Channel, DefaultChannel)
			}
			if capture.Seq != uint64(received) {
				t.Errorf("capture seq %d, want %d", capture.Seq, received)
			}
			if capture.At.IsZero() {
				t.Error("capture has no timestamp")
			}
			dem, err := sim.PHY.Demodulate(capture.IQ)
			if err != nil {
				t.Fatalf("capture %d undecodable: %v", received, err)
			}
			frame, err := ieee802154.ParseMACFrame(dem.PPDU.PSDU)
			if err != nil {
				t.Fatal(err)
			}
			if frame.SrcAddr != DefaultSensor {
				t.Errorf("capture from %#04x, want sensor", frame.SrcAddr)
			}
			received++
		case <-deadline:
			t.Fatalf("only %d captures within deadline", received)
		}
	}
	if live.Err() != nil {
		t.Errorf("live network error: %v", live.Err())
	}
}

func TestLiveNetworkShutdownIdempotent(t *testing.T) {
	sim, err := NewSimulation(43, 8, 25)
	if err != nil {
		t.Fatal(err)
	}
	live, err := StartLive(sim, time.Millisecond, DefaultChannel)
	if err != nil {
		t.Fatal(err)
	}
	live.Shutdown()
	live.Shutdown() // must not panic or block

	// After shutdown the capture stream drains and closes.
	for range live.Captures() {
	}
	// The coordinator recorded whatever periods elapsed; the simulation
	// is usable again.
	if _, err := sim.Step(DefaultChannel); err != nil {
		t.Fatal(err)
	}
}

func TestLiveNetworkSurfacesErrors(t *testing.T) {
	sim, err := NewSimulation(44, 8, 25)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the sensor so Step fails: an invalid channel makes
	// channelFreq error out.
	sim.Sensor.Channel = 99
	live, err := StartLive(sim, time.Millisecond, DefaultChannel)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(3 * time.Second)
	for {
		select {
		case _, ok := <-live.Captures():
			if !ok {
				if live.Err() == nil {
					t.Fatal("stream closed without surfacing the error")
				}
				live.Shutdown() // still safe after an error exit
				return
			}
		case <-deadline:
			t.Fatal("error was never surfaced")
		}
	}
}

func TestLiveNetworkStopWhileBlocked(t *testing.T) {
	sim, err := NewSimulation(45, 8, 25)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the pacer with a manual clock instead of sleeping and hoping
	// the producer reached the blocked state: each Advance fires exactly
	// one reporting tick, so the producer's position is known at every
	// step of the test.
	clock := vsim.NewManualClock()
	live, err := startLive(sim, time.Millisecond, DefaultChannel, clock)
	if err != nil {
		t.Fatal(err)
	}
	// Never consume captures. Tick 1 fills the one-slot channel buffer;
	// tick 2 blocks the producer mid-send.
	clock.AwaitTimers(1)
	clock.Advance(time.Millisecond)
	clock.AwaitTimers(2)
	clock.Advance(time.Millisecond)
	// A shutdown must still complete promptly, whether the producer is
	// mid-send or between events.
	done := make(chan struct{})
	go func() {
		live.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Shutdown blocked on an unconsumed capture")
	}
	if err := live.Err(); err != nil && !errors.Is(err, nil) {
		t.Errorf("unexpected error: %v", err)
	}
}
