package sim

import (
	"math"
	"strings"
	"testing"
	"time"

	"wazabee/internal/obs"
)

func TestStarNetworkForms(t *testing.T) {
	nw, err := New(Star(20), Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(30 * time.Second)
	s := nw.Stats()
	if s.Joined != 21 {
		t.Fatalf("joined = %d, want 21", s.Joined)
	}
	if s.Readings == 0 {
		t.Fatal("coordinator accepted no readings")
	}
	if s.Beacons == 0 || s.Acks == 0 {
		t.Fatalf("beacons = %d acks = %d, want both > 0", s.Beacons, s.Acks)
	}
	// Short addresses are unique across the PAN.
	seen := map[uint16]int{}
	for i := 0; i < 21; i++ {
		info := nw.Node(i)
		if !info.Joined {
			t.Fatalf("node %d not joined", i)
		}
		if prev, dup := seen[info.Short]; dup {
			t.Fatalf("nodes %d and %d share short address %#04x", prev, i, info.Short)
		}
		seen[info.Short] = i
	}
	if nw.Node(0).Short != 0x0000 {
		t.Fatalf("coordinator short = %#04x, want 0x0000", nw.Node(0).Short)
	}
}

func TestTreeNetworkForwardsThroughRouters(t *testing.T) {
	nw, err := New(Tree(2, 4), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(40 * time.Second)
	s := nw.Stats()
	if s.Joined != s.Nodes {
		t.Fatalf("joined = %d/%d", s.Joined, s.Nodes)
	}
	if s.Forwarded == 0 {
		t.Fatal("routers forwarded nothing")
	}
	if s.Readings == 0 {
		t.Fatal("no readings reached the coordinator")
	}
}

func TestPANConflictResolution(t *testing.T) {
	// Two coordinators boot on the same (channel, PAN): beacons cross,
	// the higher extended address rebinds, children follow their parent.
	topo := Topology{Nodes: []NodeSpec{
		{Role: RoleCoordinator, Parent: -1, Channel: 14, PAN: 0x1234},
		{Role: RoleCoordinator, Parent: -1, Channel: 14, PAN: 0x1234},
		{Role: RoleEndDevice, Parent: 0, Channel: 14, PAN: 0x1234},
		{Role: RoleEndDevice, Parent: 1, Channel: 14, PAN: 0x1234},
	}}
	nw, err := New(topo, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(30 * time.Second)
	s := nw.Stats()
	if s.PANConflicts == 0 {
		t.Fatal("no PAN conflict detected")
	}
	c0, c1 := nw.Node(0), nw.Node(1)
	if c0.PAN == c1.PAN {
		t.Fatalf("conflict unresolved: both coordinators on PAN %#04x", c0.PAN)
	}
	if c0.PAN != 0x1234 {
		t.Fatalf("lower-ext coordinator moved to %#04x; the higher extended address should rebind", c0.PAN)
	}
	if got := nw.Node(3).PAN; got != c1.PAN {
		t.Fatalf("child of rebound coordinator on PAN %#04x, parent on %#04x", got, c1.PAN)
	}
	if got := nw.Node(2).PAN; got != c0.PAN {
		t.Fatalf("child of staying coordinator on PAN %#04x, parent on %#04x", got, c0.PAN)
	}
}

func TestMultiChannelCoexistence(t *testing.T) {
	// Two PANs on different channels never exchange or corrupt frames.
	topo := Topology{Nodes: []NodeSpec{
		{Role: RoleCoordinator, Parent: -1, Channel: 14, PAN: 0x1111},
		{Role: RoleCoordinator, Parent: -1, Channel: 20, PAN: 0x2222},
		{Role: RoleEndDevice, Parent: 0, Channel: 14, PAN: 0x1111},
		{Role: RoleEndDevice, Parent: 1, Channel: 20, PAN: 0x2222},
	}}
	nw, err := New(topo, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var on14, on20 uint64
	nw.Tap(14, func(fc FrameCapture) {
		on14++
		if fc.Src == 1 || fc.Src == 3 {
			t.Errorf("channel-20 node %d captured on channel 14", fc.Src)
		}
	})
	nw.Tap(20, func(fc FrameCapture) { on20++ })
	nw.Run(20 * time.Second)
	s := nw.Stats()
	if s.Joined != 4 {
		t.Fatalf("joined = %d, want 4", s.Joined)
	}
	if s.PANConflicts != 0 {
		t.Fatal("cross-channel PANs reported a conflict")
	}
	if on14 == 0 || on20 == 0 {
		t.Fatalf("captures: ch14=%d ch20=%d, want both > 0", on14, on20)
	}
	if on14+on20 != s.Frames {
		t.Fatalf("tap total %d != frames %d", on14+on20, s.Frames)
	}
}

func TestLossyLinksEraseFrames(t *testing.T) {
	// Near the receiver sensitivity cliff the erasure model must bite
	// and the MAC must keep the mesh alive through retries.
	nw, err := New(Star(5), Config{Seed: 9, SNRdB: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(60 * time.Second)
	s := nw.Stats()
	if s.Erasures == 0 {
		t.Fatal("no erasures at 2 dB SNR")
	}
	if s.Readings == 0 {
		t.Fatal("no readings survived retries at 2 dB SNR")
	}
}

// TestNewRejectsInvalidSNR checks sim.New applies radio.Link.Validate to
// the configured SNR before any event runs: NaN and -Inf are errors
// (NaN once crashed the first delivery), +Inf is a noise-free mesh.
func TestNewRejectsInvalidSNR(t *testing.T) {
	for _, snr := range []float64{math.NaN(), math.Inf(-1)} {
		if _, err := New(Star(2), Config{Seed: 1, SNRdB: snr}); err == nil {
			t.Errorf("New accepted SNR %g dB", snr)
		}
	}
	nw, err := New(Star(2), Config{Seed: 1, SNRdB: math.Inf(1)})
	if err != nil {
		t.Fatalf("New rejected a noise-free link: %v", err)
	}
	nw.Run(10 * time.Second)
	if s := nw.Stats(); s.Joined != s.Nodes || s.Erasures != 0 {
		t.Errorf("noise-free star: joined %d/%d, %d erasures", s.Joined, s.Nodes, s.Erasures)
	}
}

func TestObserverStreamsCaptures(t *testing.T) {
	nw, err := New(Star(3), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	o := nw.Observe(DefaultChannel, 4096)
	done := make(chan uint64)
	go func() {
		var count uint64
		var lastSeq uint64
		for fc := range o.C() {
			count++
			if fc.Seq <= lastSeq {
				t.Errorf("capture seq %d not strictly increasing after %d", fc.Seq, lastSeq)
				break
			}
			lastSeq = fc.Seq
		}
		done <- count
	}()
	nw.Run(20 * time.Second)
	nw.CloseObservers()
	count := <-done
	if count != nw.Stats().Frames {
		t.Fatalf("observer saw %d captures, network sent %d frames", count, nw.Stats().Frames)
	}
}

func TestRegisterHealthDegradesOnStalledObserver(t *testing.T) {
	nw, err := New(Star(3), Config{Seed: 1, StallAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	h := obs.NewHealth(reg)
	nw.RegisterHealth(h)

	if snap := h.Check(); snap.Status != "ok" {
		t.Fatalf("initial status = %s, want ok", snap.Status)
	}

	// One-slot observer nobody drains: the event loop blocks on the
	// second capture send.
	nw.Observe(DefaultChannel, 1)
	ran := make(chan struct{})
	go func() {
		nw.Run(20 * time.Second)
		close(ran)
	}()
	deadline := time.After(5 * time.Second)
	for {
		time.Sleep(2 * time.Millisecond)
		snap := h.Check()
		snap = h.Check() // probe pushes; pushed state lands next evaluation
		var sim obs.ComponentHealth
		for _, c := range snap.Components {
			if c.Name == "sim" {
				sim = c
			}
		}
		if sim.Status == "degraded" {
			if !strings.Contains(sim.Detail, "stalled") {
				t.Fatalf("degraded detail = %q, want mention of a stall", sim.Detail)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatal("health never degraded while an observer send was blocked")
		default:
		}
	}

	// Drain the stuck observer so the run can finish.
	go func() {
		for _, list := range nw.observers {
			for _, o := range list {
				for range o.C() {
				}
			}
		}
	}()
	<-ran
	nw.CloseObservers() // lets the draining goroutine exit
	if snap := h.Check(); snap.Status != "ok" {
		snap = h.Check()
		if snap.Status != "ok" {
			t.Fatalf("status after drain = %s, want ok", snap.Status)
		}
	}
}
