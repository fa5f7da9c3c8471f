package aitf

import (
	"aitf/internal/topology"
)

// ChainDeployment is a running Figure-1-style chain: a victim and an
// attacker, each behind `depth` border routers.
type ChainDeployment struct {
	*Deployment
	IDs      topology.ChainNodes
	Victim   *Host
	Attacker *Host
	// VictimGWs[0] is the victim's gateway; higher indexes sit closer
	// to the core. AttackGWs mirrors this on the attacker side.
	VictimGWs []*Gateway
	AttackGWs []*Gateway
}

// ChainOptions extends Options with chain-specific knobs.
type ChainOptions struct {
	Options
	// Depth is the number of border routers on each side (Figure 1 has
	// three).
	Depth int
	// NonCooperative marks attacker-side gateways (by index, 0 =
	// closest to the attacker) that ignore filtering requests.
	NonCooperative map[int]bool
	// AttackerCompliant makes the attacking host obey stop orders.
	AttackerCompliant bool
	// GatewayDefendsVictim models the victim as a legacy (non-AITF)
	// host: it gets no detector of its own, and its gateway runs
	// Options.GatewayDetect on its behalf instead (GatewaySpec
	// DetectFor). Requires GatewayDetect.ThresholdBps > 0.
	GatewayDefendsVictim bool
}

// DeployChain builds and wires a chain of the given depth through the
// generic DeployTopology entry point.
func DeployChain(opt ChainOptions) *ChainDeployment {
	if opt.Depth <= 0 {
		opt.Depth = 3
	}
	topo, ids := topology.Chain(opt.Depth, opt.Params)

	spec := TopologySpec{Topo: topo}
	// side wires one half of the chain: gw[0] serves the end host, each
	// gateway escalates to the one above, and the top one peers with
	// the other side's top gateway.
	side := func(gws []topology.NodeID, host, otherTop topology.NodeID, nonCoop map[int]bool) {
		for i := range gws {
			gs := GatewaySpec{Node: gws[i], Provider: NoProvider}
			if i == 0 {
				gs.Clients = []topology.NodeID{host}
				if opt.GatewayDefendsVictim && host == ids.Victim {
					gs.DetectFor = []topology.NodeID{host}
				}
			} else {
				gs.Clients = []topology.NodeID{gws[i-1]}
			}
			if i+1 < len(gws) {
				gs.Provider = gws[i+1]
			} else {
				gs.Peers = []topology.NodeID{otherTop}
			}
			gs.NonCooperative = nonCoop[i]
			spec.Gateways = append(spec.Gateways, gs)
		}
	}
	side(ids.VictimGW, ids.Victim, ids.AttackGW[opt.Depth-1], nil)
	side(ids.AttackGW, ids.Attacker, ids.VictimGW[opt.Depth-1], opt.NonCooperative)
	spec.Hosts = []HostSpec{
		{Node: ids.Victim, Gateway: ids.VictimGW[0], Victim: !opt.GatewayDefendsVictim},
		{Node: ids.Attacker, Gateway: ids.AttackGW[0], NonCompliant: !opt.AttackerCompliant},
	}

	d := DeployTopology(opt.Options, spec)
	c := &ChainDeployment{
		Deployment: d,
		IDs:        ids,
		Victim:     d.Host(ids.Victim),
		Attacker:   d.Host(ids.Attacker),
	}
	for i := 0; i < opt.Depth; i++ {
		c.VictimGWs = append(c.VictimGWs, d.Gateway(ids.VictimGW[i]))
		c.AttackGWs = append(c.AttackGWs, d.Gateway(ids.AttackGW[i]))
	}
	return c
}

// Figure1Deployment is the canonical 8-node deployment of the paper's
// Figure 1 (a depth-3 chain with the paper's node names).
type Figure1Deployment = ChainDeployment

// DeployFigure1 deploys the paper's Figure 1 example: G_host behind
// G_gw1..G_gw3 and B_host behind B_gw1..B_gw3. All gateways cooperate;
// use DeployChain with NonCooperative for the escalation scenarios.
func DeployFigure1(opt Options) *Figure1Deployment {
	return DeployChain(ChainOptions{Options: opt, Depth: 3})
}

// ManyToOneDeployment is a running many-attackers/one-victim network.
type ManyToOneDeployment struct {
	*Deployment
	IDs       topology.ManyToOneNodes
	Victim    *Host
	VictimGW  *Gateway
	Attackers []*Host
	AttackGWs []*Gateway
	Legit     []*Host
	LegitGWs  []*Gateway
}

// ManyToOneOptions extends Options for the many-to-one topology.
type ManyToOneOptions struct {
	Options
	// Attackers and Legit count the hosts of each kind, each behind
	// its own gateway.
	Attackers, Legit int
	// AttackersCompliant makes attacking hosts obey stop orders.
	AttackersCompliant bool
	// GatewayDefendsVictim models the victim as a legacy (non-AITF)
	// host: it gets no detector of its own, and its gateway runs
	// Options.GatewayDetect on its behalf instead (GatewaySpec
	// DetectFor). Requires GatewayDetect.ThresholdBps > 0. This also
	// arms the gateway's traffic view, so the collateral-aware
	// allocator prices aggregates from measured pairs instead of the
	// covered-address fallback.
	GatewayDefendsVictim bool
}

// DeployManyToOne builds the resource-experiment topology: every host
// behind its own AITF gateway, all joined by a non-AITF core router,
// with the victim's access link as the bottleneck tail circuit.
func DeployManyToOne(opt ManyToOneOptions) *ManyToOneDeployment {
	topo, ids := topology.ManyToOne(opt.Attackers, opt.Legit, opt.Params)

	sites := 1 + len(ids.Attackers) + len(ids.Legit)
	spec := TopologySpec{Topo: topo, Gateways: make([]GatewaySpec, 0, sites), Hosts: make([]HostSpec, 0, sites)}
	site := func(host, gw topology.NodeID, nonCompliant, victim bool) {
		gs := GatewaySpec{Node: gw, Provider: NoProvider, Clients: []topology.NodeID{host}}
		if victim && opt.GatewayDefendsVictim {
			gs.DetectFor = []topology.NodeID{host}
		}
		spec.Gateways = append(spec.Gateways, gs)
		spec.Hosts = append(spec.Hosts, HostSpec{
			Node: host, Gateway: gw,
			Victim:       victim && !opt.GatewayDefendsVictim,
			NonCompliant: nonCompliant,
		})
	}
	site(ids.Victim, ids.VictimGW, false, true)
	for i := range ids.Attackers {
		site(ids.Attackers[i], ids.AttackGWs[i], !opt.AttackersCompliant, false)
	}
	for i := range ids.Legit {
		site(ids.Legit[i], ids.LegitGWs[i], false, false)
	}

	d := DeployTopology(opt.Options, spec)
	m := &ManyToOneDeployment{
		Deployment: d,
		IDs:        ids,
		Victim:     d.Host(ids.Victim),
		VictimGW:   d.Gateway(ids.VictimGW),
		Attackers:  make([]*Host, len(ids.Attackers)),
		AttackGWs:  make([]*Gateway, len(ids.Attackers)),
		Legit:      make([]*Host, len(ids.Legit)),
		LegitGWs:   make([]*Gateway, len(ids.Legit)),
	}
	for i := range ids.Attackers {
		m.Attackers[i], m.AttackGWs[i] = d.Host(ids.Attackers[i]), d.Gateway(ids.AttackGWs[i])
	}
	for i := range ids.Legit {
		m.Legit[i], m.LegitGWs[i] = d.Host(ids.Legit[i]), d.Gateway(ids.LegitGWs[i])
	}
	return m
}

// SharedGatewayDeployment hosts many attackers behind one gateway.
type SharedGatewayDeployment struct {
	*Deployment
	IDs       topology.SharedGatewayNodes
	Victims   []*Host
	VictimGW  *Gateway
	AttackGW  *Gateway
	Attackers []*Host
}

// SharedGatewayOptions extends Options for the shared-gateway topology.
type SharedGatewayOptions struct {
	Options
	Attackers          int
	Victims            int
	AttackersCompliant bool
}

// DeploySharedGateway builds the §IV-C topology: one provider gateway
// responsible for a whole network of (mis)behaving clients, peered
// directly with the victims' gateway.
func DeploySharedGateway(opt SharedGatewayOptions) *SharedGatewayDeployment {
	if opt.Attackers <= 0 {
		opt.Attackers = 1
	}
	if opt.Victims <= 0 {
		opt.Victims = 1
	}
	topo, ids := topology.SharedGateway(opt.Attackers, opt.Victims, opt.Params)

	spec := TopologySpec{Topo: topo}
	spec.Gateways = []GatewaySpec{
		{Node: ids.VictimGW, Provider: NoProvider,
			Clients: ids.Victims, Peers: []topology.NodeID{ids.AttackGW}},
		{Node: ids.AttackGW, Provider: NoProvider,
			Clients: ids.Attackers, Peers: []topology.NodeID{ids.VictimGW}},
	}
	for _, hid := range ids.Victims {
		spec.Hosts = append(spec.Hosts, HostSpec{Node: hid, Gateway: ids.VictimGW, Victim: true})
	}
	for _, hid := range ids.Attackers {
		spec.Hosts = append(spec.Hosts, HostSpec{
			Node: hid, Gateway: ids.AttackGW, NonCompliant: !opt.AttackersCompliant,
		})
	}

	d := DeployTopology(opt.Options, spec)
	s := &SharedGatewayDeployment{
		Deployment: d,
		IDs:        ids,
		VictimGW:   d.Gateway(ids.VictimGW),
		AttackGW:   d.Gateway(ids.AttackGW),
	}
	for _, hid := range ids.Victims {
		s.Victims = append(s.Victims, d.Host(hid))
	}
	for _, hid := range ids.Attackers {
		s.Attackers = append(s.Attackers, d.Host(hid))
	}
	return s
}
