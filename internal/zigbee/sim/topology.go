package sim

import (
	"fmt"
	"math/rand"

	"wazabee/internal/ieee802154"
	"wazabee/internal/randsrc"
	"wazabee/internal/zigbee"
)

// Role is a node's 802.15.4 device role.
type Role uint8

const (
	// RoleCoordinator starts the PAN: it owns short address 0x0000,
	// beacons from time zero and admits joiners.
	RoleCoordinator Role = iota
	// RoleRouter joins like an end device, then beacons and admits
	// children of its own, forwarding their data towards the
	// coordinator.
	RoleRouter
	// RoleEndDevice joins a parent and reports periodic sensor data.
	RoleEndDevice
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleCoordinator:
		return "coordinator"
	case RoleRouter:
		return "router"
	case RoleEndDevice:
		return "end_device"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// NodeSpec describes one node of a topology before the network
// instantiates it.
type NodeSpec struct {
	// Role is the node's device role.
	Role Role
	// Parent is the index of the node's intended parent (-1 for
	// coordinators). Parents always precede children in the node list.
	Parent int
	// Channel is the 802.15.4 channel the node's PAN operates on.
	Channel int
	// PAN is the PAN identifier the node belongs to. Two coordinators
	// sharing (Channel, PAN) is legal input: it exercises the PAN-ID
	// conflict resolution path.
	PAN uint16
}

// Topology is a generated mesh layout: the seeded vocabulary the
// experiments, benchmarks and CLI share, so "Tree(3, 10) at seed 42"
// names the same network everywhere.
type Topology struct {
	Nodes []NodeSpec
}

// Counts returns how many nodes hold each role.
func (t Topology) Counts() (coordinators, routers, endDevices int) {
	for _, n := range t.Nodes {
		switch n.Role {
		case RoleCoordinator:
			coordinators++
		case RoleRouter:
			routers++
		default:
			endDevices++
		}
	}
	return
}

// Validate checks the structural invariants the network relies on:
// parents precede their children, only coordinators are parentless,
// parents can actually parent (coordinator or router, same channel and
// PAN), and channels are legal.
func (t Topology) Validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("sim: empty topology")
	}
	for i, n := range t.Nodes {
		if _, err := ieee802154.ChannelFrequencyMHz(n.Channel); err != nil {
			return fmt.Errorf("sim: node %d: %w", i, err)
		}
		if n.Role == RoleCoordinator {
			if n.Parent != -1 {
				return fmt.Errorf("sim: coordinator %d has parent %d", i, n.Parent)
			}
			continue
		}
		if n.Parent < 0 || n.Parent >= i {
			return fmt.Errorf("sim: node %d parent %d out of order (parents must precede children)", i, n.Parent)
		}
		p := t.Nodes[n.Parent]
		if p.Role == RoleEndDevice {
			return fmt.Errorf("sim: node %d parented to end device %d", i, n.Parent)
		}
		if p.Channel != n.Channel || p.PAN != n.PAN {
			return fmt.Errorf("sim: node %d on channel %d PAN %#04x, parent %d on channel %d PAN %#04x",
				i, n.Channel, n.PAN, n.Parent, p.Channel, p.PAN)
		}
	}
	return nil
}

// Star returns one coordinator with n end-device children, all on the
// default channel and PAN — the paper's sensor network scaled out.
func Star(n int) Topology {
	nodes := make([]NodeSpec, 0, n+1)
	nodes = append(nodes, NodeSpec{Role: RoleCoordinator, Parent: -1, Channel: zigbee.DefaultChannel, PAN: zigbee.DefaultPAN})
	for i := 0; i < n; i++ {
		nodes = append(nodes, NodeSpec{Role: RoleEndDevice, Parent: 0, Channel: zigbee.DefaultChannel, PAN: zigbee.DefaultPAN})
	}
	return Topology{Nodes: nodes}
}

// Tree returns a full fanout-ary tree of the given depth: the root
// coordinator, routers on every interior level and end devices on the
// leaves. Tree(3, 10) is the thousand-node acceptance mesh: 1
// coordinator, 110 routers, 1000 end devices.
func Tree(depth, fanout int) Topology {
	if depth < 1 {
		depth = 1
	}
	if fanout < 1 {
		fanout = 1
	}
	nodes := []NodeSpec{{Role: RoleCoordinator, Parent: -1, Channel: zigbee.DefaultChannel, PAN: zigbee.DefaultPAN}}
	level := []int{0}
	for d := 1; d <= depth; d++ {
		role := RoleRouter
		if d == depth {
			role = RoleEndDevice
		}
		var next []int
		for _, parent := range level {
			for i := 0; i < fanout; i++ {
				nodes = append(nodes, NodeSpec{Role: role, Parent: parent, Channel: zigbee.DefaultChannel, PAN: zigbee.DefaultPAN})
				next = append(next, len(nodes)-1)
			}
		}
		level = next
	}
	return Topology{Nodes: nodes}
}

// Random returns a seeded random mesh of n nodes: one coordinator per
// started PAN (1 + n/400, spread over distinct channels drawn from the
// 2.4 GHz page), roughly a quarter of the remaining nodes routers, and
// every non-coordinator parented to a uniformly chosen earlier
// coordinator or router of its PAN. The same (n, seed) always yields
// the same topology.
func Random(n int, seed int64) Topology {
	if n < 2 {
		n = 2
	}
	rnd := rand.New(randsrc.New(nodeSeed(seed, -1)))
	pans := 1 + (n-1)/400
	channels := rnd.Perm(ieee802154.LastChannel - ieee802154.FirstChannel + 1)

	nodes := make([]NodeSpec, 0, n)
	// parentsByPAN collects join-capable node indices per PAN.
	parentsByPAN := make([][]int, pans)
	for p := 0; p < pans; p++ {
		nodes = append(nodes, NodeSpec{
			Role:    RoleCoordinator,
			Parent:  -1,
			Channel: ieee802154.FirstChannel + channels[p%len(channels)],
			PAN:     uint16(0x1000 + 0x111*p),
		})
		parentsByPAN[p] = []int{p}
	}
	for len(nodes) < n {
		pan := rnd.Intn(pans)
		parents := parentsByPAN[pan]
		parent := parents[rnd.Intn(len(parents))]
		role := RoleEndDevice
		if rnd.Intn(4) == 0 {
			role = RoleRouter
		}
		spec := NodeSpec{
			Role:    role,
			Parent:  parent,
			Channel: nodes[parent].Channel,
			PAN:     nodes[parent].PAN,
		}
		nodes = append(nodes, spec)
		if role == RoleRouter {
			parentsByPAN[pan] = append(parentsByPAN[pan], len(nodes)-1)
		}
	}
	return Topology{Nodes: nodes}
}
