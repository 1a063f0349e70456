package sim

import (
	"testing"
	"time"

	"wazabee/internal/ieee802154"
	"wazabee/internal/zigbee"
)

func TestNewIntruderValidation(t *testing.T) {
	nw, err := New(Star(2), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.NewIntruder(10); err == nil {
		t.Error("channel 10 (below the 802.15.4 band) accepted")
	}
	if _, err := nw.NewIntruder(27); err == nil {
		t.Error("channel 27 (above the 802.15.4 band) accepted")
	}
	if _, err := nw.NewIntruder(zigbee.DefaultChannel); err != nil {
		t.Errorf("valid channel rejected: %v", err)
	}
}

func TestIntruderInjectionCounted(t *testing.T) {
	nw, err := New(Star(2), Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	intr, err := nw.NewIntruder(zigbee.DefaultChannel)
	if err != nil {
		t.Fatal(err)
	}
	// Let the mesh form, then inject a spoofed reading at the
	// coordinator from a fake source address.
	nw.Run(10 * time.Second)
	coord := nw.Node(0)
	frame := ieee802154.NewDataFrame(1, coord.PAN, coord.Short, 0x7777,
		[]byte{0x77, 1, 2, 0}, true)
	if err := intr.Transmit(0, frame, true); err != nil {
		t.Fatal(err)
	}
	nw.Run(11 * time.Second)
	stats := nw.Stats()
	if stats.Injected != 1 {
		t.Errorf("Injected = %d, want 1", stats.Injected)
	}
	if stats.InjectedDelivered != 1 {
		t.Errorf("InjectedDelivered = %d, want 1", stats.InjectedDelivered)
	}
}

// TestIntruderOffChannelDoesNotCollide: a forgery on a channel the
// target is not tuned to must neither corrupt nor defer on-channel
// traffic. Two intruders, on and off the star's channel, hit the
// coordinator at the same instant; only the on-channel frame counts.
func TestIntruderOffChannelDoesNotCollide(t *testing.T) {
	nw, err := New(Star(4), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	on, err := nw.NewIntruder(zigbee.DefaultChannel)
	if err != nil {
		t.Fatal(err)
	}
	off, err := nw.NewIntruder(zigbee.DefaultChannel + 1)
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(10 * time.Second)
	before := nw.Stats()
	coord := nw.Node(0)
	for i, intr := range []*Intruder{on, off} {
		frame := ieee802154.NewDataFrame(uint8(i), coord.PAN, coord.Short, 0x7777,
			[]byte{0x77, 0, byte(i), 0}, true)
		if err := intr.Transmit(0, frame, true); err != nil {
			t.Fatal(err)
		}
	}
	nw.Run(11 * time.Second)
	after := nw.Stats()
	if got := after.Injected - before.Injected; got != 2 {
		t.Errorf("injected %d, want 2", got)
	}
	if got := after.InjectedDelivered - before.InjectedDelivered; got != 1 {
		t.Errorf("delivered %d, want the on-channel forgery only", got)
	}
	if got := after.Collisions - before.Collisions; got != 0 {
		t.Errorf("%d new collisions, want none from an off-channel forgery", got)
	}
}

func TestIntruderChannelMigrationDetaches(t *testing.T) {
	nw, err := New(Star(2), Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	intr, err := nw.NewIntruder(zigbee.DefaultChannel)
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(10 * time.Second)
	victim := nw.Node(1)
	if !victim.Joined {
		t.Fatal("victim did not associate during warmup")
	}
	coord := nw.Node(0)
	// The forged remote AT retune, spoofing the coordinator as source.
	frame := ieee802154.NewDataFrame(9, victim.PAN, victim.Short, coord.Short,
		[]byte{zigbee.FrameRemoteAT, 9, 'C', 'H', 26}, true)
	if err := intr.Transmit(1, frame, true); err != nil {
		t.Fatal(err)
	}
	nw.Run(11 * time.Second)
	if nw.Node(1).Joined {
		t.Error("victim still joined after forged retune")
	}
	if got := nw.Stats().ChannelMigrations; got != 1 {
		t.Errorf("ChannelMigrations = %d, want 1", got)
	}
}

// TestForgedAssociationResponseIgnored: a forged association response
// reaching a device that a forged retune detached must not make it
// rejoin, since the forgery has no node to take as the parent. The
// device still acknowledges it.
func TestForgedAssociationResponseIgnored(t *testing.T) {
	nw, err := New(Star(2), Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	intr, err := nw.NewIntruder(zigbee.DefaultChannel)
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(10 * time.Second)
	victim, coord := nw.Node(1), nw.Node(0)
	retune := ieee802154.NewDataFrame(9, victim.PAN, victim.Short, coord.Short,
		[]byte{zigbee.FrameRemoteAT, 9, 'C', 'H', 26}, true)
	if err := intr.Transmit(1, retune, true); err != nil {
		t.Fatal(err)
	}
	nw.Run(11 * time.Second)
	before := nw.Stats()
	if nw.Node(1).Joined || before.ChannelMigrations != 1 {
		t.Fatal("the forged retune did not detach the victim")
	}
	resp := ieee802154.NewAssociationResponse(10, victim.PAN, ieee802154.NoShortAddress, 0x0042, ieee802154.AssocStatusSuccess)
	if err := intr.Transmit(1, resp, true); err != nil {
		t.Fatal(err)
	}
	nw.Run(12 * time.Second)
	after := nw.Stats()
	if got := after.InjectedDelivered - before.InjectedDelivered; got != 1 {
		t.Fatalf("%d forged responses delivered, want 1", got)
	}
	if nw.Node(1).Joined || after.Joins != before.Joins {
		t.Errorf("the victim rejoined on a forged association response (joins %d -> %d)", before.Joins, after.Joins)
	}
}

func TestRemoteChannelChangeParsing(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		ok      bool
		channel int
	}{
		{"valid", []byte{zigbee.FrameRemoteAT, 3, 'C', 'H', 20}, true, 20},
		{"wrong frame type", []byte{0x10, 3, 'C', 'H', 20}, false, 0},
		{"wrong command", []byte{zigbee.FrameRemoteAT, 3, 'I', 'D', 20}, false, 0},
		{"short", []byte{zigbee.FrameRemoteAT, 3, 'C', 'H'}, false, 0},
		{"long", []byte{zigbee.FrameRemoteAT, 3, 'C', 'H', 20, 0}, false, 0},
		{"empty", nil, false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ch, frameID, ok := remoteChannelChange(tc.payload)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if ok && (ch != tc.channel || frameID != 3) {
				t.Errorf("parsed (channel %d, frameID %d), want (%d, 3)", ch, frameID, tc.channel)
			}
		})
	}
}

func TestIntruderDoesNotPerturbCleanRun(t *testing.T) {
	// Building an intruder that never transmits must leave the run
	// byte-identical to an intruder-free one — the guards in the MAC
	// hot path are no-ops until a frame is actually forged.
	digest := func(withIntruder bool) string {
		nw, err := New(Star(3), Config{Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		rec := NewDigestRecorder()
		nw.Tap(zigbee.DefaultChannel, rec.Record)
		if withIntruder {
			if _, err := nw.NewIntruder(zigbee.DefaultChannel); err != nil {
				t.Fatal(err)
			}
		}
		nw.Run(20 * time.Second)
		return rec.Sum()
	}
	if a, b := digest(false), digest(true); a != b {
		t.Errorf("idle intruder perturbed the run: %s vs %s", a, b)
	}
}

// TestIntruderBuildsStreamOnFirstUse: an attack that never draws from
// the intruder's stream, like each of the campaign's plans, never
// builds it, and the stream the first Rand call builds is the one
// nodeRand gives the intruder's index.
func TestIntruderBuildsStreamOnFirstUse(t *testing.T) {
	const seed = 9
	nw, err := New(Star(4), Config{Seed: seed, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	intr, err := nw.NewIntruder(zigbee.DefaultChannel)
	if err != nil {
		t.Fatal(err)
	}
	at := forgedWarmup
	for _, input := range forgedSeeds() {
		for _, fg := range decodeForgeries(input) {
			at += fg.delay
			nw.Scheduler().At(at, func() {
				if err := intr.Transmit(fg.target%4, fg.frame, fg.ack); err != nil {
					t.Error(err)
				}
			})
		}
	}
	nw.Run(at + forgedSettle)
	if s := nw.Stats(); s.InjectedDelivered == 0 {
		t.Fatalf("no forgery delivered (%d injected)", s.Injected)
	}
	if intr.rng != nil {
		t.Fatal("an attack that never called Rand built the intruder's stream")
	}
	got, want := intr.Rand(), nodeRand(seed, IntruderSrc)
	for i := 0; i < 100; i++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("draw %d = %d, nodeRand gives %d", i, g, w)
		}
	}
	if intr.Rand() != got {
		t.Fatal("a second Rand call built another stream")
	}
}
