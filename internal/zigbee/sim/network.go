package sim

import (
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"time"

	"wazabee/internal/ieee802154"
	"wazabee/internal/obs"
	"wazabee/internal/radio"
)

// nodeState is a node's MAC association state.
type nodeState uint8

const (
	stateIdle nodeState = iota
	stateScanning
	stateWaitAssoc
	stateJoined
)

// outgoing is one frame's MAC transaction, from the frame's building
// through CSMA-CA, the air and the acknowledgement wait. Records are
// recycled: newOutgoing hands one out for every frame the MAC builds,
// and freeOutgoing takes it back exactly once, when the transaction
// ends. A record keeps its id, its payload and its PSDU storage across
// uses; a scheduled action names the record by id (Network.outs).
type outgoing struct {
	id      uint32 // index in Network.outs
	kind    frameKind
	frame   ieee802154.MACFrame // frame.Payload lives in the record's payload storage
	psdu    []byte              // the encoded frame, in the record's PSDU storage
	mode    targetMode
	to      int
	needAck bool

	retries int // acknowledged-retransmission count
	be      int // current backoff exponent
	ncb     int // CSMA backoff attempts this transmission
}

// node is one simulated device. All mutation happens on the event loop;
// nothing here is touched concurrently.
type node struct {
	id   int
	spec NodeSpec
	rng  *rand.Rand

	// ext is the 64-bit extended (IEEE) address; short is the 16-bit
	// address assigned at association (0xFFFE before). PAN-ID conflict
	// arbitration compares ext addresses.
	ext   uint64
	short uint16
	pan   uint16

	state   nodeState
	seq     uint8
	joinGen uint64 // invalidates stale scan/association timeouts

	parentID    int
	parentShort uint16
	heard       []beaconHeard
	scanRetries int

	txBusy   bool
	queue    []*outgoing
	awaiting *outgoing
	ackGen   uint64
	// radioBusyUntil is when the node's own transceiver frees up —
	// transmissions in flight plus acknowledgements it has committed to.
	// A half-duplex radio neither passes CCA nor receives before then.
	radioBusyUntil time.Duration

	permitJoin bool

	reading uint16

	tally nodeTally
}

// nodeTally is one node's share of the mesh's MAC tally. Each MAC
// outcome increments one field, on the node it happened to, whether or
// not telemetry is on; Stats sums the nodes, and NodeStats and the
// wazabee_simnode_* series read the fields. tx and rx have no Stats
// counterpart and move only with telemetry.
type nodeTally struct {
	collisions, backoffs, ccaFailures, retries, ackFailures uint64
	erasures, deaf                                          uint64
	readings, forwarded                                     uint64
	joins, parentChanges                                    uint64
	tx, rx                                                  uint64
	joinedAt                                                time.Duration // first association; -1 until joined
	lastParent                                              int           // parent at last join; -1 before
}

// beaconHeard is one beacon collected during an active scan.
type beaconHeard struct {
	src   int
	short uint16
	pan   uint16
}

// ExtAddrBase is the OUI prefix simulated extended addresses share with
// the paper's XBee hardware.
const ExtAddrBase = 0x00124b00_00000000

// Config parameterises a virtual network. Zero values select the
// defaults of the paper's setup (2-second cadence, 25 dB links).
type Config struct {
	// Seed drives every random draw via per-node splitmix64 streams.
	Seed int64
	// SNRdB is the per-link signal-to-noise ratio handed to the virtual
	// medium's erasure model. Default 25.
	SNRdB float64
	// BeaconInterval is the coordinator/router beacon cadence. Default 2s.
	BeaconInterval time.Duration
	// DataInterval is the end-device (and router) reporting cadence.
	// Default 2s.
	DataInterval time.Duration

	// Fidelity selects the frame-delivery tier of the victim links
	// (radio.FidelitySymbol or radio.FidelityFrame; zero selects
	// FidelityFrame, the erasure model meshes have always run on).
	// FidelityIQ is rejected: the mesh simulator never synthesises
	// waveforms. Same-seed runs are bit-identical within a tier, but
	// the tiers draw from their calibrated distributions differently,
	// so digests differ across tiers.
	Fidelity radio.Fidelity

	// Registry receives the wazabee_sim_* series (and, with Telemetry,
	// the wazabee_simnode_*, wazabee_simlink_* and energy series), the
	// medium's calibrated-tier counters and the run-stage histogram;
	// Flight receives the state events. Each nil means none, not the
	// process default: without a registry the mesh keeps its tally
	// (Stats) and telemetry ledger (NodeStats, LinkStats, energy) and
	// mirrors them nowhere. Pass obs.Default() and obs.DefaultFlight()
	// to report to the process.
	Registry *obs.Registry
	Flight   *obs.Flight

	// Telemetry enables the simulation observatory: NodeStats and
	// LinkStats, per-node frame counts, per-link counters, the
	// join-latency histogram and the radio energy accountant. Off by
	// default — the uninstrumented event loop stays the benchmark baseline.
	Telemetry bool
	// Chip selects the energy accountant's current-draw profile
	// ("cc2652", "nrf52840"; default cc2652).
	Chip string
	// TraceWriter, when non-nil, receives the virtual-time trace as
	// Chrome trace-event JSON, streamed as the run executes. Setting it
	// implies Telemetry. Call CloseTrace after the final Run to
	// terminate the document.
	TraceWriter io.Writer
}

func (c *Config) fill() {
	if c.SNRdB == 0 {
		c.SNRdB = 25
	}
	if c.BeaconInterval <= 0 {
		c.BeaconInterval = 2 * time.Second
	}
	if c.DataInterval <= 0 {
		c.DataInterval = 2 * time.Second
	}
	if c.Fidelity == 0 {
		c.Fidelity = radio.FidelityFrame
	}
	if c.TraceWriter != nil {
		c.Telemetry = true
	}
}

// Stats is a snapshot of the network's counters, the event loop's only
// tally: the MAC counters summed over the nodes' tallies, plus the
// intruder's and the network-wide counts no node owns. The
// wazabee_sim_* counters are advanced from it at batch boundaries. Read
// it between Run calls — it is not synchronised against a running event
// loop.
type Stats struct {
	Nodes, Joined int

	Frames     uint64 // transmissions put on the air
	Beacons    uint64
	DataFrames uint64
	Acks       uint64
	Commands   uint64

	Collisions   uint64 // transmissions that overlapped another, the intruder's included
	Backoffs     uint64 // CSMA backoff draws
	CCAFailures  uint64 // transmissions abandoned after macMaxCSMABackoffs
	Retries      uint64 // acknowledged retransmissions attempted
	AckFailures  uint64 // transmissions abandoned after macMaxFrameRetries
	Erasures     uint64 // deliveries lost to link noise
	DeafMisses   uint64 // deliveries missed by a half-duplex receiver mid-transmission
	Readings     uint64 // data frames accepted at a coordinator
	Forwarded    uint64 // data frames relayed by a router
	PANConflicts uint64 // coordinator PAN-ID rebinds
	Joins        uint64 // successful associations

	Injected          uint64 // intruder frames put on the air
	InjectedDelivered uint64 // intruder frames a victim MAC processed
	ChannelMigrations uint64 // nodes detached by a forged remote AT retune

	Events      uint64        // scheduler events executed
	VirtualTime time.Duration // current virtual clock
	HeapDepth   int           // high-water mark of pending events
}

// Network is a virtual-time Zigbee mesh: topology-instantiated node
// actors, per-cell collision domains and a frame-level radio medium,
// all driven by one Scheduler. Each node keeps its own MAC tally, which
// Stats sums. The event loop is single-threaded; other goroutines see
// it only through what each batch boundary publishes, the registry
// series and DebugHandler's snapshot.
type Network struct {
	cfg   Config
	topo  Topology
	sched *Scheduler
	ch    radio.Channel // calibrated delivery tier (symbol or frame)

	nodes    []*node
	topoKids [][]int // topology children by node index
	rootOf   []int   // root coordinator by node index
	coordsOn map[int][]int
	airs     []air // collision domain by owning node index

	rcpt []int // recipients scratch buffer

	// outs and txs hold every outgoing and transmission record by id,
	// which is how a scheduled action names one; outFree and txFree
	// list the ids of the records free for reuse.
	outs    []*outgoing
	txs     []*transmission
	outFree []uint32
	txFree  []uint32

	frameSeq  uint64
	allocNext map[int]uint16 // per-root short-address allocator

	taps map[int][]func(FrameCapture)

	// stats holds the counts no node owns: the intruder's injections,
	// deliveries and collided forgeries, channel migrations and PAN
	// conflicts. Every other MAC counter lives in a node's tally, and
	// frames counts transmissions by kind; Stats adds them up.
	stats  Stats
	frames [numFrameKinds]uint64

	// telemetry, pre-resolved so the event loop never does registry
	// lookups; counters mirror the Stats taken at each batch boundary
	// (mirrored). reg and flight are Config's, each nil for none; the
	// series below exist only with a registry.
	reg        *obs.Registry
	flight     *obs.Flight
	mirrored   Stats
	counters   []tallyCounter
	gVirtual   *obs.Gauge
	gHeapDepth *obs.Gauge
	gJoined    *obs.Gauge

	depthThreshold int

	// tel is the simulation observatory (nil when Config.Telemetry is
	// off — every hook in the MAC path nil-checks it, keeping the
	// uninstrumented loop free of observatory work).
	tel        *telemetry
	heapGauges *heapGauges

	// snapshot published for the /debug/sim handler; refreshed at batch
	// boundaries once a handler exists.
	wantSnapshot atomic.Bool
	snap         atomic.Pointer[Snapshot]
}

// tallyCounter is one wazabee_sim_* counter series and the tally it
// mirrors: a field of Network.mirrored or a per-kind frame count.
type tallyCounter struct {
	c         *obs.Counter
	tally     *uint64
	published uint64 // tally value already added to c
}

// New instantiates a topology into a virtual network at time zero:
// coordinators come up joined and beaconing, everything else starts its
// first active scan within joinSpread.
func New(topo Topology, cfg Config) (*Network, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	cfg.fill()
	if err := (radio.Link{SNRdB: cfg.SNRdB}).Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	sampleRate := 8 * float64(ieee802154.ChipRate)
	med, err := radio.NewMedium(sampleRate, cfg.Seed)
	if err != nil {
		return nil, err
	}
	med.Obs = cfg.Registry
	if cfg.Fidelity == radio.FidelityIQ {
		return nil, fmt.Errorf("sim: FidelityIQ is not supported (the mesh simulator never synthesises waveforms); use symbol or frame")
	}
	ch, err := med.Channel(cfg.Fidelity, radio.ChannelOptions{Profile: radio.ProfileOQPSK})
	if err != nil {
		return nil, err
	}

	nw := &Network{
		cfg:       cfg,
		topo:      topo,
		sched:     NewScheduler(),
		ch:        ch,
		coordsOn:  make(map[int][]int),
		airs:      make([]air, len(topo.Nodes)),
		allocNext: make(map[int]uint16),
		taps:      make(map[int][]func(FrameCapture)),

		reg:            cfg.Registry,
		flight:         cfg.Flight,
		depthThreshold: 64,
	}
	nw.sched.dispatch = nw.dispatch

	if cfg.Telemetry {
		profile, err := ProfileByName(cfg.Chip)
		if err != nil {
			return nil, err
		}
		var tw *traceWriter
		if cfg.TraceWriter != nil {
			tw = newTraceWriter(cfg.TraceWriter, topo)
		}
		nw.tel = newTelemetry(topo, profile, nw.reg, tw)
	}

	nw.build()
	if nw.reg != nil {
		nw.registerMetrics()
		nw.publishCounters()
	}
	return nw, nil
}

// registerMetrics resolves the wazabee_sim_* series on the network's
// registry: it pairs every counter with the tally it mirrors, the one
// table publishCounters advances, resolves the batch gauges and sets
// the per-role node counts. Every series is registered here, so
// zero-valued ones still print. Only a network with a registry calls
// it.
func (nw *Network) registerMetrics() {
	add := func(tally *uint64, name string, labels ...string) {
		nw.counters = append(nw.counters, tallyCounter{c: nw.reg.Counter(name, labels...), tally: tally})
	}
	for k := range nw.frames {
		add(&nw.frames[k], "wazabee_sim_frames_total", "kind", frameKind(k).String())
	}
	s := &nw.mirrored
	add(&s.Collisions, "wazabee_sim_collisions_total")
	add(&s.Backoffs, "wazabee_sim_backoffs_total")
	add(&s.CCAFailures, "wazabee_sim_cca_failures_total")
	add(&s.Retries, "wazabee_sim_retries_total")
	add(&s.AckFailures, "wazabee_sim_ack_failures_total")
	add(&s.Erasures, "wazabee_sim_erasures_total")
	add(&s.DeafMisses, "wazabee_sim_deaf_misses_total")
	add(&s.Joins, "wazabee_sim_joins_total")
	add(&s.PANConflicts, "wazabee_sim_pan_conflicts_total")
	add(&s.Injected, "wazabee_sim_injected_total", "result", "offered")
	add(&s.InjectedDelivered, "wazabee_sim_injected_total", "result", "delivered")
	add(&s.ChannelMigrations, "wazabee_sim_channel_migrations_total")
	add(&s.Events, "wazabee_sim_events_total")

	nw.gVirtual = nw.reg.Gauge("wazabee_sim_virtual_seconds")
	nw.gHeapDepth = nw.reg.Gauge("wazabee_sim_heap_depth")
	nw.gJoined = nw.reg.Gauge("wazabee_sim_nodes", "state", "joined")
	nw.heapGauges = newHeapGauges(nw.reg, "virtual")
	roleCount := map[Role]int{}
	for _, spec := range nw.topo.Nodes {
		roleCount[spec.Role]++
	}
	for role, count := range roleCount {
		nw.reg.Gauge("wazabee_sim_nodes", "role", role.String()).Set(float64(count))
	}
}

// publishCounters takes one Stats, advances every counter series by its
// tally's growth since the last call and refreshes the joined-nodes
// gauge.
func (nw *Network) publishCounters() {
	nw.mirrored = nw.Stats()
	for i := range nw.counters {
		c := &nw.counters[i]
		if d := *c.tally - c.published; d > 0 {
			c.c.Add(d)
			c.published = *c.tally
		}
	}
	nw.gJoined.Set(float64(nw.mirrored.Joined))
}

// build creates node actors and schedules their opening moves.
func (nw *Network) build() {
	specs := nw.topo.Nodes
	nw.nodes = make([]*node, len(specs))
	nw.topoKids = make([][]int, len(specs))
	nw.rootOf = make([]int, len(specs))
	for i, spec := range specs {
		n := &node{
			id:       i,
			spec:     spec,
			rng:      nodeRand(nw.cfg.Seed, i),
			ext:      ExtAddrBase | uint64(i+1),
			short:    ieee802154.NoShortAddress,
			pan:      spec.PAN,
			parentID: spec.Parent,
			tally:    nodeTally{joinedAt: -1, lastParent: -1},
		}
		nw.nodes[i] = n
		if spec.Role == RoleCoordinator {
			nw.rootOf[i] = i
			nw.coordsOn[spec.Channel] = append(nw.coordsOn[spec.Channel], i)
		} else {
			nw.rootOf[i] = nw.rootOf[spec.Parent]
			nw.topoKids[spec.Parent] = append(nw.topoKids[spec.Parent], i)
		}
	}

	for _, n := range nw.nodes {
		if n.spec.Role == RoleCoordinator {
			n.short = 0x0000
			n.state = stateJoined
			n.permitJoin = true
			n.tally.joinedAt = 0 // coordinators come up joined
			nw.allocNext[n.id] = 1
			nw.after(nw.jitter(n, nw.cfg.BeaconInterval), opBeacon, n, 0)
			continue
		}
		nw.after(nw.jitter(n, joinSpread), opScan, n, 0)
	}
}

// jitter draws a uniform delay in [0, d) from the node's private stream.
func (nw *Network) jitter(n *node, d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(n.rng.Int63n(int64(d)))
}

// actionOp names the MAC step a typed action performs.
type actionOp uint8

const (
	opFunc          actionOp = iota // an At/After callback: Scheduler.fns[arg]()
	opBeacon                        // beaconLoop(node)
	opData                          // dataLoop(node)
	opScan                          // startScan(node)
	opScanEnd                       // scanEnd(node, gen)
	opCCA                           // cca(node, out)
	opTxStart                       // txStart(node, out, false)
	opAckStart                      // txStart(node, out, true)
	opTxEnd                         // txEnd(node, tx, false)
	opAckEnd                        // txEnd(node, tx, true)
	opAckTimeout                    // onAckTimeout(node, gen)
	opAssocWait                     // assocWaitEnd(node, gen)
	opAssocResp                     // enqueueTx(node, out)
	opIntruderTxEnd                 // intruderTxEnd(tx)
)

// action is one scheduled event, 16 bytes with no pointer in them: the
// step, the index of the node it runs on and one argument, which is the
// joinGen or ackGen at posting time, an outgoing or transmission record
// id, or for opFunc the Scheduler.fns slot of an At or After callback.
// The network posts typed actions for its own MAC steps, so the event
// loop builds no closure per event, and a queue entry carries its
// action by value.
type action struct {
	op   actionOp
	node int32
	arg  uint64
}

// dispatch runs one typed action: the single switch behind every event
// the network schedules for itself.
func (nw *Network) dispatch(a action) {
	if a.op == opIntruderTxEnd {
		nw.intruderTxEnd(nw.txs[a.arg])
		return
	}
	n := nw.nodes[a.node]
	switch a.op {
	case opBeacon:
		nw.beaconLoop(n)
	case opData:
		nw.dataLoop(n)
	case opScan:
		nw.startScan(n)
	case opScanEnd:
		nw.scanEnd(n, a.arg)
	case opCCA:
		nw.cca(n, nw.outs[a.arg])
	case opTxStart:
		nw.txStart(n, nw.outs[a.arg], false)
	case opAckStart:
		nw.txStart(n, nw.outs[a.arg], true)
	case opTxEnd:
		nw.txEnd(n, nw.txs[a.arg], false)
	case opAckEnd:
		nw.txEnd(n, nw.txs[a.arg], true)
	case opAckTimeout:
		nw.onAckTimeout(n, a.arg)
	case opAssocWait:
		nw.assocWaitEnd(n, a.arg)
	case opAssocResp:
		nw.enqueueTx(n, nw.outs[a.arg])
	default:
		panic(fmt.Sprintf("sim: unknown action op %d", a.op))
	}
}

// after posts op on node n d from now, with arg a generation or record
// id.
func (nw *Network) after(d time.Duration, op actionOp, n *node, arg uint64) {
	nw.sched.post(nw.sched.now+d, action{op: op, node: int32(n.id), arg: arg})
}

// startTransmission puts out on the air from src on channel, now: it
// takes a transmission record, reusing one a transmit end released when
// there is one, and assigns its fields one by one, the outgoing record
// they point to included. The caller registers it with the cells it
// occupies and schedules its end.
func (nw *Network) startTransmission(src, channel int, out *outgoing, destOwner int) *transmission {
	var tx *transmission
	if n := len(nw.txFree); n > 0 {
		tx = nw.txs[nw.txFree[n-1]]
		nw.txFree = nw.txFree[:n-1]
	} else {
		tx = &transmission{id: uint32(len(nw.txs))}
		nw.txs = append(nw.txs, tx)
	}
	now := nw.sched.Now()
	nw.frameSeq++
	tx.src = src
	tx.channel = channel
	tx.out = out
	tx.seq = nw.frameSeq
	tx.start = now
	tx.end = now + ieee802154.FrameDuration(len(out.psdu))
	tx.collided = false
	tx.destOwner = destOwner
	nw.frames[out.kind]++
	return tx
}

// freeTransmission releases a record nothing refers to any more.
func (nw *Network) freeTransmission(tx *transmission) {
	tx.out = nil
	nw.txFree = append(nw.txFree, tx.id)
}

// newOutgoing returns an outgoing record for a frame the caller builds
// into its frame field, reusing a released record when there is one.
// The record's payload and PSDU come back empty, in the record's own
// storage, and the frame's header is left for the caller to overwrite:
// with a MACFrame Set method, whose payload lands in that storage, or a
// copy.
func (nw *Network) newOutgoing(kind frameKind, mode targetMode, to int, needAck bool) *outgoing {
	var out *outgoing
	if n := len(nw.outFree); n > 0 {
		out = nw.outs[nw.outFree[n-1]]
		nw.outFree = nw.outFree[:n-1]
	} else {
		out = &outgoing{id: uint32(len(nw.outs))}
		nw.outs = append(nw.outs, out)
	}
	out.kind = kind
	out.frame.Payload = out.frame.Payload[:0]
	out.psdu = out.psdu[:0]
	out.mode = mode
	out.to = to
	out.needAck = needAck
	out.retries, out.be, out.ncb = 0, 0, 0
	return out
}

// freeOutgoing releases a record whose transaction has ended.
func (nw *Network) freeOutgoing(out *outgoing) {
	nw.outFree = append(nw.outFree, out.id)
}

// encode writes the record's frame into its PSDU storage.
func (out *outgoing) encode() error {
	psdu, err := out.frame.Append(out.psdu[:0])
	out.psdu = psdu
	return err
}

// channelMHz is the centre frequency of a channel Topology.Validate or
// NewIntruder has already checked.
func channelMHz(channel int) float64 {
	f, _ := ieee802154.ChannelFrequencyMHz(channel)
	return f
}

// cell returns the collision domain owned by a join-capable node.
func (nw *Network) cell(owner int) *air {
	return &nw.airs[owner]
}

// cellOwners lists the owners of the collision domains a node's
// transmissions occupy: its parent's cell (uplink receiver's
// neighborhood) and, for join-capable nodes, their own cell. -1 marks an
// unused slot.
func (nw *Network) cellOwners(n *node) [2]int {
	if n.spec.Role == RoleCoordinator {
		return [2]int{n.id, -1}
	}
	if n.spec.Role == RoleRouter {
		return [2]int{n.parentID, n.id}
	}
	return [2]int{n.parentID, -1}
}

// cellsOf resolves cellOwners to the air instances.
func (nw *Network) cellsOf(n *node) [2]*air {
	var cells [2]*air
	for i, owner := range nw.cellOwners(n) {
		if owner >= 0 {
			cells[i] = nw.cell(owner)
		}
	}
	return cells
}

// destCellOwner resolves the cell a transmission's receiver lives in:
// join-capable receivers own their cell, end devices live in their
// parent's, broadcasts are received in the sender's own neighborhood.
func (nw *Network) destCellOwner(n *node, out *outgoing) int {
	switch out.mode {
	case targetNode:
		if out.to < 0 || out.to >= len(nw.nodes) {
			// Replies to an out-of-topology intruder go out in the
			// sender's own neighborhood: real airtime and contention,
			// no in-topology receiver.
			if n.spec.Role == RoleEndDevice {
				return n.parentID
			}
			return n.id
		}
		rx := nw.nodes[out.to]
		if rx.spec.Role == RoleEndDevice {
			return rx.parentID
		}
		return rx.id
	case targetParent:
		return n.parentID
	default: // targetBeaconAudience
		if n.spec.Role == RoleEndDevice {
			return n.parentID
		}
		return n.id
	}
}

// Now returns the virtual clock.
func (nw *Network) Now() time.Duration { return nw.sched.Now() }

// Scheduler exposes the underlying event queue (benchmarks and the
// pacer-driven integrations need it).
func (nw *Network) Scheduler() *Scheduler { return nw.sched }

// Run executes every event due at or before the virtual instant t. It
// is the batch driver: splitting one Run into any sequence of smaller
// advances executes the identical event sequence. With a registry the
// run is a "sim_run" stage on it.
func (nw *Network) Run(t time.Duration) {
	if nw.reg != nil {
		defer obs.Stage(nw.reg, nil, "sim_run")()
	}
	nw.sched.RunUntil(t)
	nw.afterBatch()
}

// afterBatch refreshes the batch-cadence telemetry: with a registry the
// counters, clock and heap gauges and the telemetry series, and with a
// flight recorder an entry when the heap depth crosses a new doubling
// threshold.
func (nw *Network) afterBatch() {
	if nw.reg != nil {
		nw.publishCounters()
		nw.gVirtual.Set(nw.sched.Now().Seconds())
		nw.gHeapDepth.Set(float64(nw.sched.MaxDepth()))
		nw.heapGauges.publish(nw.sched)
		if nw.tel != nil {
			nw.tel.publish(nw.nodes, nw.sched.Now())
		}
	}
	if nw.wantSnapshot.Load() {
		nw.snap.Store(nw.Snapshot())
	}
	if nw.flight == nil {
		return
	}
	if d := nw.sched.MaxDepth(); d >= nw.depthThreshold {
		for nw.depthThreshold <= d {
			nw.depthThreshold *= 2
		}
		nw.flight.Record(obs.FlightEvent{
			Kind: "state", Component: "sim", Frame: -1,
			Detail: fmt.Sprintf("event heap high-water %d (pending %d)", d, nw.sched.Len()),
		})
	}
}

// CloseTrace finishes the virtual-time trace: it closes every node's
// open radio-state slice at the current virtual instant and terminates
// the JSON document. Call once after the final Run; a network without a
// trace writer returns nil. The trailing flush depends only on the final
// virtual time, so traces stay byte-identical however the run was
// batched.
func (nw *Network) CloseTrace() error {
	if nw.tel == nil || nw.tel.trace == nil {
		return nil
	}
	now := nw.sched.Now()
	for i := range nw.nodes {
		nw.tel.radioTransition(i, now, RadioIdle)
	}
	return nw.tel.trace.Close()
}

// Stats snapshots the counters: the nodes' tallies summed, plus the
// counts no node owns. Call between Run invocations.
func (nw *Network) Stats() Stats {
	s := nw.stats
	s.Nodes = len(nw.nodes)
	for _, n := range nw.nodes {
		if n.state == stateJoined {
			s.Joined++
		}
		c := &n.tally
		s.Collisions += c.collisions
		s.Backoffs += c.backoffs
		s.CCAFailures += c.ccaFailures
		s.Retries += c.retries
		s.AckFailures += c.ackFailures
		s.Erasures += c.erasures
		s.DeafMisses += c.deaf
		s.Readings += c.readings
		s.Forwarded += c.forwarded
		s.Joins += c.joins
	}
	s.Events = nw.sched.Executed()
	s.VirtualTime = nw.sched.Now()
	s.HeapDepth = nw.sched.MaxDepth()
	f := &nw.frames
	s.Beacons, s.DataFrames, s.Acks = f[kindBeacon], f[kindData], f[kindAck]
	s.Commands = f[kindBeaconRequest] + f[kindAssocRequest] + f[kindAssocResponse]
	s.Frames = s.Beacons + s.DataFrames + s.Acks + s.Commands
	return s
}

// NodeInfo describes one node's identity and association outcome.
type NodeInfo struct {
	ID      int
	Role    Role
	Ext     uint64
	Short   uint16
	PAN     uint16
	Channel int
	Joined  bool
}

// Node returns the current state of node i.
func (nw *Network) Node(i int) NodeInfo {
	n := nw.nodes[i]
	return NodeInfo{
		ID: i, Role: n.spec.Role, Ext: n.ext, Short: n.short,
		PAN: n.pan, Channel: n.spec.Channel, Joined: n.state == stateJoined,
	}
}
