package topology

import (
	"fmt"
	"time"

	"aitf/internal/flow"
)

// Params tunes the standard builders.
type Params struct {
	// AccessDelay is the one-way delay of host↔gateway links. The
	// paper's Tr (victim→gateway one-way delay) example is 50 ms.
	AccessDelay time.Duration
	// BackboneDelay is the one-way delay of router↔router links.
	BackboneDelay time.Duration
	// TailBandwidth is the bandwidth (bytes/s) of the victim's access
	// link — the "tail circuit" a DoS attack congests. 0 = unlimited.
	TailBandwidth float64
	// CoreBandwidth is the bandwidth of all non-tail links.
	CoreBandwidth float64
	// QueueLen is the output queue capacity in packets (0 = default).
	QueueLen int
}

// DefaultParams mirrors the paper's running example: 50 ms access
// delay, 10 ms backbone hops, a 10 Mbps (1.25 MB/s) tail circuit
// ("if an enterprise has a 10 Mbps connection...", §I) and an
// uncongested core.
func DefaultParams() Params {
	return Params{
		AccessDelay:   50 * time.Millisecond,
		BackboneDelay: 10 * time.Millisecond,
		TailBandwidth: 1.25e6,
		CoreBandwidth: 0,
		QueueLen:      64,
	}
}

// ChainNodes names the nodes of a generalized Figure-1 chain.
type ChainNodes struct {
	Victim   NodeID
	VictimGW []NodeID // [0] closest to the victim
	Attacker NodeID
	AttackGW []NodeID // [0] closest to the attacker
}

// Chain builds a Figure-1-shaped path with depth border routers on each
// side; Chain(3, p) is topologically identical to the paper's Figure 1.
// Used for the escalation-depth sweeps of experiments E2 and E8.
func Chain(depth int, p Params) (*Topology, ChainNodes) {
	if depth < 1 {
		panic("topology: Chain depth must be >= 1")
	}
	if depth > 100 {
		panic("topology: Chain depth > 100 exceeds the address plan")
	}
	t := New()
	var n ChainNodes
	n.Victim = t.AddNode("victim", flow.MakeAddr(10, 1, 0, 2), KindHost, 1)
	n.VictimGW = make([]NodeID, depth)
	for i := 0; i < depth; i++ {
		n.VictimGW[i] = t.AddNode(
			fmt.Sprintf("v_gw%d", i+1),
			flow.MakeAddr(10, 1, byte(i+1), 1), KindBorderRouter, 1+i)
	}
	n.AttackGW = make([]NodeID, depth)
	for i := 0; i < depth; i++ {
		n.AttackGW[i] = t.AddNode(
			fmt.Sprintf("a_gw%d", i+1),
			flow.MakeAddr(10, 2, byte(i+1), 1), KindBorderRouter, 100+i)
	}
	n.Attacker = t.AddNode("attacker", flow.MakeAddr(10, 2, 0, 2), KindHost, 100)

	t.AddLink(n.Victim, n.VictimGW[0], p.AccessDelay, p.TailBandwidth, p.QueueLen)
	for i := 0; i+1 < depth; i++ {
		t.AddLink(n.VictimGW[i], n.VictimGW[i+1], p.BackboneDelay, p.CoreBandwidth, p.QueueLen)
	}
	t.AddLink(n.VictimGW[depth-1], n.AttackGW[depth-1], p.BackboneDelay, p.CoreBandwidth, p.QueueLen)
	for i := 0; i+1 < depth; i++ {
		t.AddLink(n.AttackGW[i], n.AttackGW[i+1], p.BackboneDelay, p.CoreBandwidth, p.QueueLen)
	}
	t.AddLink(n.AttackGW[0], n.Attacker, p.AccessDelay, p.CoreBandwidth, p.QueueLen)
	return t, n
}

// ManyToOneNodes names the nodes of a many-to-one attack topology.
type ManyToOneNodes struct {
	Victim    NodeID
	VictimGW  NodeID
	Core      NodeID
	Attackers []NodeID
	AttackGWs []NodeID // AttackGWs[i] serves Attackers[i]
	Legit     []NodeID
	LegitGWs  []NodeID
}

// ManyToOne builds the workhorse topology for resource and protection
// experiments (E3-E5, E9): nAttackers attacking hosts, each behind its
// own attacker gateway, plus nLegit legitimate hosts behind their own
// gateways, all reaching one victim through a non-AITF core router and
// the victim's gateway. The victim's access link is the bottleneck
// tail circuit.
//
//	attacker_i — a_gw_i ┐
//	                    ├— core — v_gw — victim
//	legit_j    — l_gw_j ┘
func ManyToOne(nAttackers, nLegit int, p Params) (*Topology, ManyToOneNodes) {
	if nAttackers < 0 || nLegit < 0 {
		panic("topology: negative host count")
	}
	if nAttackers+nLegit > 60000 {
		panic("topology: host count exceeds the address plan")
	}
	t := New()
	var n ManyToOneNodes
	n.Victim = t.AddNode("victim", flow.MakeAddr(10, 0, 0, 2), KindHost, 1)
	n.VictimGW = t.AddNode("v_gw", flow.MakeAddr(10, 0, 0, 1), KindBorderRouter, 1)
	n.Core = t.AddNode("core", flow.MakeAddr(10, 0, 0, 3), KindInternalRouter, 0)
	t.AddLink(n.Victim, n.VictimGW, p.AccessDelay, p.TailBandwidth, p.QueueLen)
	t.AddLink(n.VictimGW, n.Core, p.BackboneDelay, p.CoreBandwidth, p.QueueLen)

	addSite := func(i int, prefix byte, name string, as int) (host, gw NodeID) {
		hi, lo := byte(i/250), byte(i%250)
		gw = t.AddNode(fmt.Sprintf("%s_gw%d", name, i),
			flow.MakeAddr(prefix, 1, hi, lo+1), KindBorderRouter, as)
		host = t.AddNode(fmt.Sprintf("%s%d", name, i),
			flow.MakeAddr(prefix, 101, hi, lo+1), KindHost, as)
		t.AddLink(host, gw, p.AccessDelay, p.CoreBandwidth, p.QueueLen)
		t.AddLink(gw, n.Core, p.BackboneDelay, p.CoreBandwidth, p.QueueLen)
		return host, gw
	}
	for i := 0; i < nAttackers; i++ {
		h, g := addSite(i, 20, "atk", 100+i)
		n.Attackers = append(n.Attackers, h)
		n.AttackGWs = append(n.AttackGWs, g)
	}
	for i := 0; i < nLegit; i++ {
		h, g := addSite(i, 30, "leg", 5000+i)
		n.Legit = append(n.Legit, h)
		n.LegitGWs = append(n.LegitGWs, g)
	}
	return t, n
}

// SharedGatewayNodes names the nodes of a shared-gateway topology.
type SharedGatewayNodes struct {
	Victims   []NodeID
	VictimGW  NodeID
	AttackGW  NodeID
	Attackers []NodeID
}

// SharedGateway puts nAttackers hosts behind one attacker gateway and
// nVictims hosts behind one victim gateway — the configuration of
// §IV-C where a single provider must filter up to na = R2·T flows per
// misbehaving client. Multiple victims give one attacker multiple
// distinct (src, dst) flow labels.
func SharedGateway(nAttackers, nVictims int, p Params) (*Topology, SharedGatewayNodes) {
	if nAttackers < 1 || nVictims < 1 {
		panic("topology: need at least one attacker and one victim")
	}
	if nAttackers > 60000 || nVictims > 60000 {
		panic("topology: host count exceeds the address plan")
	}
	t := New()
	var n SharedGatewayNodes
	n.VictimGW = t.AddNode("v_gw", flow.MakeAddr(10, 0, 0, 1), KindBorderRouter, 1)
	n.AttackGW = t.AddNode("a_gw", flow.MakeAddr(10, 9, 0, 1), KindBorderRouter, 9)
	t.AddLink(n.VictimGW, n.AttackGW, p.BackboneDelay, p.CoreBandwidth, p.QueueLen)
	for i := 0; i < nVictims; i++ {
		hi, lo := byte(i/250), byte(i%250)
		name := "victim"
		if i > 0 {
			name = fmt.Sprintf("victim%d", i)
		}
		h := t.AddNode(name, flow.MakeAddr(10, 0, hi+1, lo+2), KindHost, 1)
		t.AddLink(h, n.VictimGW, p.AccessDelay, p.TailBandwidth, p.QueueLen)
		n.Victims = append(n.Victims, h)
	}
	for i := 0; i < nAttackers; i++ {
		hi, lo := byte(i/250), byte(i%250)
		h := t.AddNode(fmt.Sprintf("atk%d", i),
			flow.MakeAddr(10, 9, hi+1, lo+1), KindHost, 9)
		t.AddLink(h, n.AttackGW, p.AccessDelay, p.CoreBandwidth, p.QueueLen)
		n.Attackers = append(n.Attackers, h)
	}
	return t, n
}
