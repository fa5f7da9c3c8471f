package aitf

import (
	"aitf/internal/contract"
	"aitf/internal/core"
	"aitf/internal/flow"
	"aitf/internal/topology"
)

// NoProvider marks a GatewaySpec with no escalation provider (a
// top-level border router).
const NoProvider topology.NodeID = -1

// GatewaySpec describes one AITF gateway in a generic deployment.
//
// Clients and Peers are keyed by *physical neighbors*: the protocol
// verifies that a filtering request arrives through the interface its
// claimed client sits behind, so the entry for a client network that is
// reached through an intermediate (non-AITF) router must name that
// intermediate router, not the far-away client.
type GatewaySpec struct {
	// Node is the border router to install the gateway on.
	Node topology.NodeID
	// Provider is the node this gateway escalates to — its own AITF
	// gateway, usually the nearest deployed border router toward the
	// core. NoProvider marks a top-level gateway.
	Provider topology.NodeID
	// Clients lists neighbors served under a client contract: directly
	// attached hosts get Options.ClientContract, routers (downstream
	// client networks) get Options.PeerContract.
	Clients []topology.NodeID
	// Peers lists peering border routers (Options.PeerContract).
	Peers []topology.NodeID
	// NonCooperative makes the gateway ignore filtering requests that
	// address it as the attacker's gateway (§IV-A.1).
	NonCooperative bool
	// IngressHosts lists client hosts subject to ingress filtering:
	// packets entering through them must carry their own address
	// (§III-A). Only meaningful for directly attached hosts.
	IngressHosts []topology.NodeID
	// FilterCapacity / ShadowCapacity override the Options-derived
	// budgets when positive.
	FilterCapacity, ShadowCapacity int
	// DetectFor lists legacy client hosts this gateway defends with
	// gateway-side sketch detection (Options.GatewayDetect): the
	// gateway observes traffic addressed to them and files filtering
	// requests on their behalf. Empty disables detection here.
	DetectFor []topology.NodeID
}

// HostSpec describes one AITF end-host in a generic deployment.
type HostSpec struct {
	// Node is the host node.
	Node topology.NodeID
	// Gateway is the border router the host sends filtering requests to
	// (its AITF gateway — the nearest deployed one toward the core).
	Gateway topology.NodeID
	// Victim installs Options.Detector on the host.
	Victim bool
	// NonCompliant makes the host ignore stop orders (an attacker); the
	// zero value is a compliant host.
	NonCompliant bool
}

// TopologySpec is a full generic deployment description: an arbitrary
// topology plus the AITF roles installed on it. Nodes not named by any
// spec keep netsim's default best-effort forwarding (non-AITF "legacy"
// routers and hosts), which is how partial deployment is modelled.
type TopologySpec struct {
	Topo     *topology.Topology
	Gateways []GatewaySpec
	Hosts    []HostSpec
}

// DeployTopology builds and wires an arbitrary AITF deployment. The
// standard topologies (DeployChain, DeployManyToOne,
// DeploySharedGateway) are thin wrappers over this entry point; the
// scenario harness (internal/scenario) drives it with generated graphs.
func DeployTopology(opt Options, spec TopologySpec) *Deployment {
	d := newDeployment(opt, spec.Topo)
	for _, gs := range spec.Gateways {
		cfg := opt.gatewayConfig()
		cfg.Cooperative = !gs.NonCooperative
		if gs.FilterCapacity > 0 {
			cfg.FilterCapacity = gs.FilterCapacity
		}
		if gs.ShadowCapacity > 0 {
			cfg.ShadowCapacity = gs.ShadowCapacity
		}
		if gs.Provider != NoProvider {
			cfg.Provider = d.addrOf(gs.Provider)
		}
		if len(gs.Clients) > 0 {
			cfg.Clients = make(map[flow.Addr]contract.Contract, len(gs.Clients))
			for _, c := range gs.Clients {
				cfg.Clients[d.addrOf(c)] = d.contractForNode(c)
			}
		}
		if len(gs.Peers) > 0 {
			cfg.Peers = make(map[flow.Addr]contract.Contract, len(gs.Peers))
			for _, p := range gs.Peers {
				cfg.Peers[d.addrOf(p)] = opt.PeerContract
			}
		}
		if len(gs.IngressHosts) > 0 {
			cfg.IngressValidSrc = map[flow.Addr][]flow.Addr{}
			for _, h := range gs.IngressHosts {
				a := d.addrOf(h)
				cfg.IngressValidSrc[a] = []flow.Addr{a}
			}
		}
		if len(gs.DetectFor) > 0 && opt.GatewayDetect.Enabled() {
			det := opt.GatewayDetect
			// Distinct, reproducible hash seeds per gateway: collisions
			// in one gateway's sketch must not replicate at another.
			det.Seed ^= uint64(opt.Seed)*0x9e3779b97f4a7c15 + (uint64(gs.Node)+1)*0xff51afd7ed558ccd
			gd := &core.GatewayDetection{Config: det}
			for _, h := range gs.DetectFor {
				gd.Protected = append(gd.Protected, d.addrOf(h))
			}
			cfg.Detection = gd
		}
		d.addGateway(gs.Node, cfg)
	}
	for _, hs := range spec.Hosts {
		cfg := d.hostConfig(d.addrOf(hs.Gateway), hs.Victim)
		cfg.Compliant = !hs.NonCompliant
		d.addHost(hs.Node, cfg)
	}
	return d
}

// contractForNode picks the client contract by neighbor kind: end hosts
// get the end-host contract, downstream gateways the peer contract.
func (d *Deployment) contractForNode(id topology.NodeID) contract.Contract {
	if d.Topo.Nodes[id].Kind == topology.KindHost {
		return d.opt.ClientContract
	}
	return d.opt.PeerContract
}

// Gateway returns the gateway installed on node id, or nil.
func (d *Deployment) Gateway(id topology.NodeID) *Gateway { return d.Gateways[id] }

// Host returns the host installed on node id, or nil.
func (d *Deployment) Host(id topology.NodeID) *Host { return d.Hosts[id] }
