package attack

import (
	"errors"
	"testing"

	"wazabee/internal/chip"
	"wazabee/internal/dsp"
	"wazabee/internal/zigbee"
)

// newTrackerOn builds a tracker over an arbitrary Air (newTracker is
// fixed to the simulation).
func newTrackerOn(t *testing.T, air Air) *Tracker {
	t.Helper()
	model := chip.NRF51822()
	tx, err := model.NewWazaBeeTransmitter(testSPS)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := model.NewWazaBeeReceiver(testSPS)
	if err != nil {
		t.Fatal(err)
	}
	tracker, err := NewTracker(tx, rx, air)
	if err != nil {
		t.Fatal(err)
	}
	return tracker
}

// flakyAir proxies a Simulation and fails every exchange after the
// first n — the radio medium closing mid-attack.
type flakyAir struct {
	inner *zigbee.Simulation
	n     int
	count int
}

var errMediumClosed = errors.New("medium closed")

func (a *flakyAir) Exchange(sig dsp.IQ, channel int) (dsp.IQ, error) {
	a.count++
	if a.count > a.n {
		return nil, errMediumClosed
	}
	return a.inner.Exchange(sig, channel)
}

func (a *flakyAir) Capture(channel int) (dsp.IQ, error) {
	return a.inner.Capture(channel)
}

func TestJoinNetworkQuietChannel(t *testing.T) {
	// The coordinator permits joining — but the attacker asks on a
	// channel where nobody listens, so the association request dies in
	// noise and the join must fail cleanly, not hang or misparse.
	sim := newSim(t, 81)
	sim.Coordinator.PermitJoining = true
	tracker := newTracker(t, sim)
	info := &NetworkInfo{Channel: 22, PAN: zigbee.DefaultPAN, Coordinator: zigbee.DefaultCoordinator}
	if _, err := tracker.JoinNetwork(info); err == nil {
		t.Error("join on a quiet channel reported success")
	}
	if len(sim.Coordinator.Associated) != 0 {
		t.Errorf("quiet-channel join still associated: %v", sim.Coordinator.Associated)
	}
}

func TestJoinNetworkMediumCloses(t *testing.T) {
	sim := newSim(t, 82)
	sim.Coordinator.PermitJoining = true
	air := &flakyAir{inner: sim, n: 0}
	tracker := newTrackerOn(t, air)
	info := &NetworkInfo{Channel: zigbee.DefaultChannel, PAN: zigbee.DefaultPAN, Coordinator: zigbee.DefaultCoordinator}
	if _, err := tracker.JoinNetwork(info); !errors.Is(err, errMediumClosed) {
		t.Errorf("error = %v, want errMediumClosed", err)
	}
}

func TestDepleteEnergyMediumCloses(t *testing.T) {
	sim := newSim(t, 83)
	air := &flakyAir{inner: sim, n: 3}
	tracker := newTrackerOn(t, air)
	info := &NetworkInfo{Channel: zigbee.DefaultChannel, PAN: zigbee.DefaultPAN, Coordinator: zigbee.DefaultCoordinator}
	err := tracker.DepleteEnergy(info, zigbee.DefaultSensor, 10)
	if !errors.Is(err, errMediumClosed) {
		t.Errorf("error = %v, want errMediumClosed", err)
	}
	// The flood must stop at the failed exchange, not push the
	// remaining frames into a dead medium.
	if air.count != 4 {
		t.Errorf("exchanges after medium close = %d, want 4 (3 ok + 1 failed)", air.count)
	}
}

func TestDepletionPayloadDistinctAndSized(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 300; i++ {
		p := AppendDepletionPayload(nil, i)
		if len(p) != 18 {
			t.Fatalf("payload %d length = %d, want 18", i, len(p))
		}
		if seen[string(p)] {
			t.Fatalf("payload %d repeats an earlier payload", i)
		}
		seen[string(p)] = true
	}
}
