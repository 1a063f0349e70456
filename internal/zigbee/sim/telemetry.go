package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"wazabee/internal/obs"
)

// The simulation observatory: per-node and per-link accounting behind
// the network-global wazabee_sim_* counters, so a campaign can tell
// *which* node is starving, *which* link is erasing frames, and how much
// energy each radio drained. All accumulation happens on the event loop
// in plain (non-atomic) fields — the loop is single-threaded by design —
// and is purely observational: no random draws, no scheduling, so an
// instrumented run produces the byte-identical capture sequence of an
// uninstrumented one. Registry series (wazabee_simnode_*,
// wazabee_simlink_*, wazabee_sim_energy_microjoules) exist only when the
// network has a registry: they are pre-resolved at construction and
// updated by delta at batch boundaries, keeping registry lookups out of
// the hot path.

// nodeTel is one node's private counter block.
type nodeTel struct {
	tx, rx                                                  uint64
	collisions, backoffs, ccaFailures, retries, ackFailures uint64
	erasures, deaf                                          uint64
	readings, forwarded                                     uint64
	joins, parentChanges                                    uint64
	joinedAt                                                time.Duration // first association; -1 until joined
	lastParent                                              int           // parent at last join; -1 before
}

// linkTel is one directed (tx → rx) link's counter block.
type linkTel struct {
	tx, rx                           int
	delivered, erasures, deaf, colls uint64
	published                        [4]uint64       // registry deltas already emitted
	ctrs                             [4]*obs.Counter // lazily resolved
}

// linkKey packs a directed node pair into a map key.
func linkKey(tx, rx int) uint64 { return uint64(uint32(tx))<<32 | uint64(uint32(rx)) }

// nodeFamilies maps each per-node counter family to its field — the
// single table the publisher, the reconciliation test and the metric
// catalogue share.
var nodeFamilies = []struct {
	name string
	get  func(*nodeTel) uint64
}{
	{"wazabee_simnode_tx_frames_total", func(n *nodeTel) uint64 { return n.tx }},
	{"wazabee_simnode_rx_frames_total", func(n *nodeTel) uint64 { return n.rx }},
	{"wazabee_simnode_collisions_total", func(n *nodeTel) uint64 { return n.collisions }},
	{"wazabee_simnode_backoffs_total", func(n *nodeTel) uint64 { return n.backoffs }},
	{"wazabee_simnode_cca_failures_total", func(n *nodeTel) uint64 { return n.ccaFailures }},
	{"wazabee_simnode_retries_total", func(n *nodeTel) uint64 { return n.retries }},
	{"wazabee_simnode_ack_failures_total", func(n *nodeTel) uint64 { return n.ackFailures }},
	{"wazabee_simnode_erasures_total", func(n *nodeTel) uint64 { return n.erasures }},
	{"wazabee_simnode_deaf_misses_total", func(n *nodeTel) uint64 { return n.deaf }},
	{"wazabee_simnode_joins_total", func(n *nodeTel) uint64 { return n.joins }},
	{"wazabee_simnode_parent_changes_total", func(n *nodeTel) uint64 { return n.parentChanges }},
}

// linkFamilies names the per-link families in linkTel field order.
var linkFamilies = [4]string{
	"wazabee_simlink_delivered_total",
	"wazabee_simlink_erasures_total",
	"wazabee_simlink_deaf_misses_total",
	"wazabee_simlink_collisions_total",
}

// telemetry is the observatory's event-loop-side state.
type telemetry struct {
	nodes   []nodeTel
	links   map[uint64]*linkTel
	energy  []radioAccount
	profile EnergyProfile
	trace   *traceWriter

	reg      *obs.Registry
	nodeCtrs [][]*obs.Counter // [node][family], resolved on first nonzero delta
	nodePub  []nodeTel        // counter values already pushed to the registry
	gEnergy  []*obs.Gauge     // per-node energy gauges, pre-resolved
	gRadio   [NumRadioStates]*obs.Gauge
	hJoin    *obs.Histogram
}

// newTelemetry builds the observatory for a topology. The ledger is
// always kept; reg nil mirrors it nowhere. Counter series resolve lazily
// at publish time (most nodes never collide or retry, so eagerly
// registering nodes × families series would mostly allocate zeros);
// only the always-set energy gauges are resolved up front.
func newTelemetry(topo Topology, profile EnergyProfile, reg *obs.Registry, trace *traceWriter) *telemetry {
	n := len(topo.Nodes)
	t := &telemetry{
		nodes:   make([]nodeTel, n),
		links:   make(map[uint64]*linkTel),
		energy:  make([]radioAccount, n),
		profile: profile,
		trace:   trace,
	}
	for i := range t.nodes {
		t.nodes[i].joinedAt = -1
		t.nodes[i].lastParent = -1
	}
	if reg == nil {
		return t
	}
	t.reg = reg
	t.nodeCtrs = make([][]*obs.Counter, n)
	t.nodePub = make([]nodeTel, n)
	t.gEnergy = make([]*obs.Gauge, n)
	t.hJoin = reg.Histogram("wazabee_sim_join_latency_seconds", obs.DurationBuckets)
	for i := range t.gEnergy {
		t.gEnergy[i] = reg.Gauge("wazabee_sim_energy_microjoules", "node", strconv.Itoa(i))
	}
	for s := 0; s < NumRadioStates; s++ {
		t.gRadio[s] = reg.Gauge("wazabee_sim_radio_seconds", "state", RadioState(s).String())
	}
	return t
}

// link returns (creating if needed) the counter block of one directed
// link.
func (t *telemetry) link(tx, rx int) *linkTel {
	key := linkKey(tx, rx)
	l := t.links[key]
	if l == nil {
		l = &linkTel{tx: tx, rx: rx}
		t.links[key] = l
	}
	return l
}

// noteJoin records one association on the joiner's telemetry: first-join
// latency, parent-change tracking and the join-latency histogram.
func (t *telemetry) noteJoin(n *node, now time.Duration) {
	nt := &t.nodes[n.id]
	nt.joins++
	if nt.joinedAt < 0 {
		nt.joinedAt = now
	}
	if nt.lastParent >= 0 && nt.lastParent != n.parentID {
		nt.parentChanges++
	}
	nt.lastParent = n.parentID
	if t.hJoin != nil {
		t.hJoin.Observe(obs.DurationSeconds(now))
	}
}

// radioTransition moves a node's radio into state s at now, emitting the
// completed interval to the trace.
func (t *telemetry) radioTransition(id int, now time.Duration, s RadioState) {
	prev, start, d := t.energy[id].transition(now, s)
	if t.trace != nil && prev != RadioIdle {
		t.trace.stateSlice(id, prev, start, d)
	}
}

// radioCharge re-attributes the trailing span before now to state s (a
// CCA window, a received frame) and emits both resulting intervals.
func (t *telemetry) radioCharge(id int, now, span time.Duration, s RadioState) {
	a := &t.energy[id]
	prev, start := a.state, a.since
	rest, charged := a.charge(now, span, s)
	if t.trace != nil {
		if prev != RadioIdle {
			t.trace.stateSlice(id, prev, start, rest)
		}
		t.trace.stateSlice(id, s, now-charged, charged)
	}
}

// publish pushes counter deltas and energy gauges into the registry —
// called at batch boundaries, never per event, and only with a
// registry. Registry order of link series follows map iteration; the
// values are deltas of deterministic totals, so the resulting registry
// state is batch-order independent.
func (t *telemetry) publish(now time.Duration) {
	var radioTotal [NumRadioStates]time.Duration
	for i := range t.nodes {
		cur, last := &t.nodes[i], &t.nodePub[i]
		for fi, fam := range nodeFamilies {
			if d := fam.get(cur) - fam.get(last); d > 0 {
				if t.nodeCtrs[i] == nil {
					t.nodeCtrs[i] = make([]*obs.Counter, len(nodeFamilies))
				}
				if t.nodeCtrs[i][fi] == nil {
					t.nodeCtrs[i][fi] = t.reg.Counter(fam.name, "node", strconv.Itoa(i))
				}
				t.nodeCtrs[i][fi].Add(d)
			}
		}
		*last = *cur
		dur := t.energy[i].durations(now)
		for s, d := range dur {
			radioTotal[s] += d
		}
		t.gEnergy[i].Set(t.profile.Microjoules(dur))
	}
	for s, d := range radioTotal {
		t.gRadio[s].Set(obs.DurationSeconds(d))
	}
	for _, l := range t.links {
		vals := [4]uint64{l.delivered, l.erasures, l.deaf, l.colls}
		for fi, v := range vals {
			if d := v - l.published[fi]; d > 0 {
				if l.ctrs[fi] == nil {
					l.ctrs[fi] = t.reg.Counter(linkFamilies[fi],
						"tx", strconv.Itoa(l.tx), "rx", strconv.Itoa(l.rx))
				}
				l.ctrs[fi].Add(d)
			}
		}
		l.published = vals
	}
}

// ---------------------------------------------------------------------
// Snapshot surface

// NodeStats is one node's observatory snapshot: identity, association
// outcome, MAC counters, radio-state durations and the integrated energy
// total.
type NodeStats struct {
	ID     int    `json:"id"`
	Role   string `json:"role"`
	Joined bool   `json:"joined"`
	Parent int    `json:"parent"`
	Short  uint16 `json:"short"`

	// JoinLatency is the virtual time of the node's first successful
	// association, -1 when it never joined. Coordinators join at 0.
	JoinLatency   time.Duration `json:"join_latency_ns"`
	Joins         uint64        `json:"joins"`
	ParentChanges uint64        `json:"parent_changes"`

	Tx          uint64 `json:"tx"`
	Rx          uint64 `json:"rx"`
	Collisions  uint64 `json:"collisions"`
	Backoffs    uint64 `json:"backoffs"`
	CCAFailures uint64 `json:"cca_failures"`
	Retries     uint64 `json:"retries"`
	AckFailures uint64 `json:"ack_failures"`
	Erasures    uint64 `json:"erasures"`
	DeafMisses  uint64 `json:"deaf_misses"`
	Readings    uint64 `json:"readings"`
	Forwarded   uint64 `json:"forwarded"`

	// RadioTime is the virtual time spent in each radio state, indexed
	// by RadioState; the entries always sum to the snapshot's virtual
	// elapsed time (the conservation invariant).
	RadioTime         [NumRadioStates]time.Duration `json:"radio_ns"`
	EnergyMicrojoules float64                       `json:"energy_microjoules"`
}

// LinkStats is one directed (tx → rx) link's delivery record.
type LinkStats struct {
	Tx         int    `json:"tx"`
	Rx         int    `json:"rx"`
	Delivered  uint64 `json:"delivered"`
	Erasures   uint64 `json:"erasures"`
	DeafMisses uint64 `json:"deaf_misses"`
	Collisions uint64 `json:"collisions"`
}

// Snapshot is the observatory's full state at one virtual instant — what
// /debug/sim serves and the campaign engine scores.
type Snapshot struct {
	VirtualTime       time.Duration      `json:"virtual_ns"`
	Stats             Stats              `json:"stats"`
	Chip              string             `json:"chip,omitempty"`
	EnergyMicrojoules float64            `json:"energy_microjoules"`
	RadioSeconds      map[string]float64 `json:"radio_seconds,omitempty"`
	Nodes             []NodeStats        `json:"nodes,omitempty"`
	Links             []LinkStats        `json:"links,omitempty"`
}

// nodeStats builds one node's snapshot row.
func (nw *Network) nodeStats(i int, now time.Duration) NodeStats {
	n := nw.nodes[i]
	nt := &nw.tel.nodes[i]
	dur := nw.tel.energy[i].durations(now)
	return NodeStats{
		ID: i, Role: n.spec.Role.String(), Joined: n.state == stateJoined,
		Parent: n.parentID, Short: n.short,
		JoinLatency: nt.joinedAt, Joins: nt.joins, ParentChanges: nt.parentChanges,
		Tx: nt.tx, Rx: nt.rx,
		Collisions: nt.collisions, Backoffs: nt.backoffs,
		CCAFailures: nt.ccaFailures, Retries: nt.retries, AckFailures: nt.ackFailures,
		Erasures: nt.erasures, DeafMisses: nt.deaf,
		Readings: nt.readings, Forwarded: nt.forwarded,
		RadioTime:         dur,
		EnergyMicrojoules: nw.tel.profile.Microjoules(dur),
	}
}

// NodeStats snapshots every node's telemetry. Call between Run
// invocations (like Stats); nil when telemetry is disabled.
func (nw *Network) NodeStats() []NodeStats {
	if nw.tel == nil {
		return nil
	}
	now := nw.sched.Now()
	out := make([]NodeStats, len(nw.nodes))
	for i := range nw.nodes {
		out[i] = nw.nodeStats(i, now)
	}
	return out
}

// LinkStats snapshots every directed link's telemetry, sorted by
// (tx, rx); nil when telemetry is disabled.
func (nw *Network) LinkStats() []LinkStats {
	if nw.tel == nil {
		return nil
	}
	out := make([]LinkStats, 0, len(nw.tel.links))
	for _, l := range nw.tel.links {
		out = append(out, LinkStats{
			Tx: l.tx, Rx: l.rx,
			Delivered: l.delivered, Erasures: l.erasures,
			DeafMisses: l.deaf, Collisions: l.colls,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tx != out[j].Tx {
			return out[i].Tx < out[j].Tx
		}
		return out[i].Rx < out[j].Rx
	})
	return out
}

// Snapshot assembles the full observatory snapshot. Call between Run
// invocations; with telemetry disabled it carries the global Stats only.
func (nw *Network) Snapshot() *Snapshot {
	snap := &Snapshot{
		VirtualTime: nw.sched.Now(),
		Stats:       nw.Stats(),
	}
	if nw.tel == nil {
		return snap
	}
	now := snap.VirtualTime
	snap.Chip = nw.tel.profile.Name
	snap.Nodes = make([]NodeStats, len(nw.nodes))
	snap.RadioSeconds = make(map[string]float64, NumRadioStates)
	var radioTotal [NumRadioStates]time.Duration
	for i := range nw.nodes {
		ns := nw.nodeStats(i, now)
		snap.Nodes[i] = ns
		snap.EnergyMicrojoules += ns.EnergyMicrojoules
		for s, d := range ns.RadioTime {
			radioTotal[s] += d
		}
	}
	for s, d := range radioTotal {
		snap.RadioSeconds[RadioState(s).String()] = obs.DurationSeconds(d)
	}
	snap.Links = nw.LinkStats()
	return snap
}

// ---------------------------------------------------------------------
// /debug/sim handler

// DebugHandler returns the /debug/sim endpoint: the observatory snapshot
// as JSON (default) or a text table (?format=text), a single node's row
// (?node=N), or the top-K nodes by a sort key (?top=K&sort=energy|tx|
// collisions|erasures). The handler serves the snapshot published at the
// last batch boundary, so it is safe to hit from any goroutine while the
// event loop runs.
func (nw *Network) DebugHandler() http.Handler {
	nw.wantSnapshot.Store(true)
	nw.snap.Store(nw.Snapshot()) // pre-run state, refreshed every afterBatch
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap := nw.snap.Load()
		if snap == nil {
			http.Error(w, "no snapshot yet", http.StatusServiceUnavailable)
			return
		}
		if idStr := r.URL.Query().Get("node"); idStr != "" {
			id, err := strconv.Atoi(idStr)
			if err != nil || id < 0 || id >= len(snap.Nodes) {
				http.Error(w, fmt.Sprintf("node %q out of range [0,%d)", idStr, len(snap.Nodes)), http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(snap.Nodes[id])
			return
		}
		view := *snap
		if topStr := r.URL.Query().Get("top"); topStr != "" && len(view.Nodes) > 0 {
			top, err := strconv.Atoi(topStr)
			if err != nil || top < 1 {
				http.Error(w, fmt.Sprintf("bad top %q", topStr), http.StatusBadRequest)
				return
			}
			view.Nodes = topNodes(view.Nodes, top, r.URL.Query().Get("sort"))
		}
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			WriteSnapshotText(w, &view)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(&view)
	})
}

// TopNodesByEnergy returns the k highest-energy nodes, leaving the
// input untouched — the CLI's -node-report selection.
func TopNodesByEnergy(nodes []NodeStats, k int) []NodeStats {
	return topNodes(nodes, k, "energy")
}

// topNodes returns the k highest nodes under the named sort key
// (default energy), leaving the input untouched.
func topNodes(nodes []NodeStats, k int, key string) []NodeStats {
	sorted := append([]NodeStats(nil), nodes...)
	val := func(n *NodeStats) float64 { return n.EnergyMicrojoules }
	switch key {
	case "tx":
		val = func(n *NodeStats) float64 { return float64(n.Tx) }
	case "collisions":
		val = func(n *NodeStats) float64 { return float64(n.Collisions) }
	case "erasures":
		val = func(n *NodeStats) float64 { return float64(n.Erasures) }
	}
	sort.SliceStable(sorted, func(i, j int) bool { return val(&sorted[i]) > val(&sorted[j]) })
	if k < len(sorted) {
		sorted = sorted[:k]
	}
	return sorted
}

// WriteSnapshotText renders the snapshot as the human-readable table the
// CLI's -node-report flag and ?format=text share.
func WriteSnapshotText(w io.Writer, snap *Snapshot) {
	fmt.Fprintf(w, "sim observatory @ %v: %d nodes, %d joined, %d frames, %.1f µJ total (%s)\n",
		snap.VirtualTime, snap.Stats.Nodes, snap.Stats.Joined, snap.Stats.Frames,
		snap.EnergyMicrojoules, snap.Chip)
	if len(snap.Nodes) == 0 {
		fmt.Fprintln(w, "per-node telemetry disabled (sim.Config.Telemetry)")
		return
	}
	fmt.Fprintf(w, "%6s %-12s %6s %8s %8s %6s %6s %6s %6s %6s %10s %12s\n",
		"node", "role", "joined", "tx", "rx", "coll", "cca!", "retry", "eras", "deaf", "join_ms", "energy_uJ")
	for _, n := range snap.Nodes {
		join := "-"
		if n.JoinLatency >= 0 {
			join = strconv.FormatFloat(float64(n.JoinLatency)/1e6, 'f', 1, 64)
		}
		fmt.Fprintf(w, "%6d %-12s %6v %8d %8d %6d %6d %6d %6d %6d %10s %12.1f\n",
			n.ID, n.Role, n.Joined, n.Tx, n.Rx, n.Collisions, n.CCAFailures,
			n.Retries, n.Erasures, n.DeafMisses, join, n.EnergyMicrojoules)
	}
}

// ---------------------------------------------------------------------
// Scheduler heap gauges

// heapGauges exports a Scheduler's high-water marks as
// wazabee_sim_heap_* gauges. The driver label separates the virtual
// batch driver from the wall-clock pacer when both run in one process.
type heapGauges struct {
	maxDepth, pending, executed, maxLag *obs.Gauge
}

// newHeapGauges pre-resolves the gauge series on reg (nil falls back to
// the process default registry).
func newHeapGauges(reg *obs.Registry, driver string) *heapGauges {
	r := obs.Or(reg)
	return &heapGauges{
		maxDepth: r.Gauge("wazabee_sim_heap_max_depth", "driver", driver),
		pending:  r.Gauge("wazabee_sim_heap_pending", "driver", driver),
		executed: r.Gauge("wazabee_sim_heap_executed", "driver", driver),
		maxLag:   r.Gauge("wazabee_sim_heap_max_lag_seconds", "driver", driver),
	}
}

// publish refreshes the gauges from the scheduler's current marks. Call
// it from the goroutine driving the scheduler.
func (g *heapGauges) publish(s *Scheduler) {
	g.maxDepth.Set(float64(s.MaxDepth()))
	g.pending.Set(float64(s.Len()))
	g.executed.Set(float64(s.Executed()))
	g.maxLag.Set(obs.DurationSeconds(s.MaxLag()))
}
