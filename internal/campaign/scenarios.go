package campaign

import (
	"time"

	"wazabee/internal/attack"
	"wazabee/internal/ieee802154"
	"wazabee/internal/zigbee"
	"wazabee/internal/zigbee/sim"
)

// scenario is one catalogue entry's definition. All seven share the
// instance machinery; what differs is the attack plan installed on the
// scheduler and a few scoring switches.
type scenario struct {
	name string
	desc string
	// attack is false only for the benign baseline.
	attack bool
	// bleFraming marks the attacker's frames as carried inside BLE
	// advertising packets (the scenario A path) — detectable by the
	// framing detector. Tracker-style attacks (ESB diversion) leave no
	// such framing; only the modulation fingerprint can catch them.
	bleFraming bool
	// energyTwin enables the same-seed attack-free twin whose energy
	// ledger the drain score is measured against.
	energyTwin bool
	// attackStart is when the attacker keys up (0 selects
	// DefaultAttackStart).
	attackStart time.Duration
	// plan installs the attack schedule on the instance's event loop.
	plan func(*instance)
}

func (s *scenario) Name() string        { return s.name }
func (s *scenario) Description() string { return s.desc }
func (s *scenario) Attack() bool        { return s.attack }

// Setup implements Scenario.
func (s *scenario) Setup(opts Options) (Instance, error) {
	return newInstance(s, opts)
}

// every runs fn at start and then every interval until the instance's
// duration — the shape of all sustained attack plans.
func every(it *instance, start, interval time.Duration, fn func()) {
	sched := it.nw.Scheduler()
	var fire func()
	fire = func() {
		if sched.Now() >= it.duration {
			return
		}
		fn()
		sched.After(interval, fire)
	}
	sched.At(start, fire)
}

// catalogue is the scenario population, in stable report order.
var catalogue = []scenario{
	{
		name:   "benign-baseline",
		desc:   "attack-free mesh traffic; every alert is a false positive",
		attack: false,
	},
	{
		name:        "scenario-a-injection",
		desc:        "paper scenario A: spoofed sensor readings injected from BLE advertising frames",
		attack:      true,
		bleFraming:  true,
		attackStart: DefaultAttackStart,
		plan: func(it *instance) {
			var seq uint8
			var reading uint16 = 0x0100
			every(it, it.attackStart, 500*time.Millisecond, func() {
				coord := it.nw.Node(0)
				victim := it.nw.Node(1)
				seq++
				reading++
				f := &it.frame
				it.transmit(0, f.SetDataFrame(seq, coord.PAN, coord.Short, victim.Short,
					sim.AppendReading(f.Payload[:0], reading, 0), true), true)
			})
		},
	},
	{
		name:        "channel-migration",
		desc:        "paper scenario B: forged remote AT CH retunes detach every device from the PAN",
		attack:      true,
		attackStart: DefaultAttackStart,
		plan: func(it *instance) {
			sched := it.nw.Scheduler()
			var frameID byte
			for dev := 1; dev < it.opts.Devices+1; dev++ {
				dev := dev
				attempts := 0
				var fire func()
				fire = func() {
					if sched.Now() >= it.duration || attempts >= 6 {
						return
					}
					ni := it.nw.Node(dev)
					if !ni.Joined {
						return // migrated (or never associated): nothing left to move
					}
					attempts++
					frameID++
					coord := it.nw.Node(0)
					// A two-letter command always encodes.
					retune, _ := (&zigbee.ATCommand{FrameID: frameID, Command: "CH", Param: []byte{26}}).Encode()
					it.transmit(dev, it.frame.SetDataFrame(frameID, ni.PAN, ni.Short, coord.Short, retune, true), true)
					sched.After(400*time.Millisecond, fire)
				}
				sched.At(it.attackStart+time.Duration(dev-1)*250*time.Millisecond, fire)
			}
		},
	},
	{
		name:        "association-flood",
		desc:        "association requests hammer the coordinator through the join window",
		attack:      true,
		attackStart: 1500 * time.Millisecond,
		plan: func(it *instance) {
			var seq uint8
			every(it, it.attackStart, 150*time.Millisecond, func() {
				coord := it.nw.Node(0)
				seq++
				it.transmit(0, it.frame.SetAssociationRequest(seq, coord.PAN, coord.Short, 0x8e), true)
			})
		},
	},
	{
		name:        "energy-depletion",
		desc:        "forced-retransmission flood: secured-looking garbage drains one device's radio budget",
		attack:      true,
		energyTwin:  true,
		attackStart: DefaultAttackStart,
		plan: func(it *instance) {
			var seq uint8
			i := 0
			every(it, it.attackStart, 60*time.Millisecond, func() {
				coord := it.nw.Node(0)
				victim := it.nw.Node(1)
				seq++
				i++
				f := &it.frame
				f.SetDataFrame(seq, victim.PAN, victim.Short, coord.Short,
					attack.AppendDepletionPayload(f.Payload[:0], i), true)
				f.Security = true
				it.transmit(1, f, true)
			})
		},
	},
	{
		name:        "sleep-deprivation",
		desc:        "round-robin ack-required polling keeps every device's radio awake",
		attack:      true,
		energyTwin:  true,
		attackStart: DefaultAttackStart,
		plan: func(it *instance) {
			var seq uint8
			target := 0
			every(it, it.attackStart, 120*time.Millisecond, func() {
				coord := it.nw.Node(0)
				dev := 1 + target%it.opts.Devices
				target++
				ni := it.nw.Node(dev)
				seq++
				// A reading-shaped payload: the device acknowledges it
				// and forwards it to its parent, which acknowledges in
				// turn — each poll costs the victims three transmissions.
				f := &it.frame
				it.transmit(dev, f.SetDataFrame(seq, ni.PAN, ni.Short, coord.Short,
					sim.AppendReading(f.Payload[:0], uint16(seq), 0), true), true)
			})
		},
	},
	{
		name:        "replay-impersonation",
		desc:        "a captured legitimate reading is replayed verbatim, impersonating the device",
		attack:      true,
		attackStart: DefaultAttackStart,
		plan: func(it *instance) {
			// The capture side: remember the first clean data frame a
			// real device sent, parsed once (the tap below runs
			// alongside the monitor's).
			it.nw.Tap(zigbee.DefaultChannel, func(fc sim.FrameCapture) {
				if it.replay != nil || fc.Collided || fc.Src <= 0 || fc.Kind != "data" {
					return
				}
				frame, err := ieee802154.ParseMACFrame(fc.PSDU)
				if err != nil {
					if it.planErr == nil {
						it.planErr = err
					}
					return
				}
				it.replay = frame
			})
			every(it, it.attackStart, 500*time.Millisecond, func() {
				if it.replay == nil {
					return // nothing captured yet; try again next period
				}
				it.transmit(0, it.replay, it.replay.AckRequest)
			})
		},
	},
}
