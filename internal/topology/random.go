package topology

import (
	"fmt"
	"math/rand"

	"aitf/internal/flow"
)

// RandomSpec parameterizes Random, the seeded multi-AS graph generator
// used by the adversarial scenario harness (internal/scenario). The
// generated internet is hierarchical, matching the AITF deployment
// model: a clique of tier-1 provider ASes at the top, every other AS
// attached to a provider chosen among the ASes generated before it
// (yielding provider trees of varying depth), one border router per AS,
// and each AS's hosts attached either directly to the border router or
// behind a non-AITF internal router.
type RandomSpec struct {
	// ASes is the total number of autonomous systems (≥ 2).
	ASes int
	// Tier1 is the size of the top-level provider clique, clamped to
	// [1, ASes].
	Tier1 int
	// MaxHostsPerAS bounds hosts per AS; every AS gets at least one.
	MaxHostsPerAS int
	// InternalRouterProb is the chance an AS fronts its hosts with a
	// non-AITF internal router instead of attaching them to the border
	// router directly.
	InternalRouterProb float64
	// Params tunes link delays, bandwidths and queues. Host access
	// links use TailBandwidth; backbone links are unlimited.
	Params Params
}

// RandomNodes names the structure of a generated topology.
type RandomNodes struct {
	// Border[i] is AS i's border router (the AITF gateway position).
	Border []NodeID
	// Internal[i] is AS i's internal router, or -1 when hosts attach to
	// the border router directly.
	Internal []NodeID
	// Hosts[i] lists AS i's end hosts.
	Hosts [][]NodeID
	// Parent[i] is the index of AS i's provider, -1 for tier-1 ASes.
	Parent []int
	// Tier1 lists the indices of the top-level clique ASes.
	Tier1 []int
}

// HostList flattens all hosts in AS order (deterministic).
func (n RandomNodes) HostList() []NodeID {
	var out []NodeID
	for _, hs := range n.Hosts {
		out = append(out, hs...)
	}
	return out
}

// ASOfHost returns the AS index owning the given host node, or -1.
func (n RandomNodes) ASOfHost(id NodeID) int {
	for as, hs := range n.Hosts {
		for _, h := range hs {
			if h == id {
				return as
			}
		}
	}
	return -1
}

// Ancestors returns the provider chain of AS i (excluding i itself),
// nearest provider first.
func (n RandomNodes) Ancestors(i int) []int {
	var out []int
	for p := n.Parent[i]; p >= 0; p = n.Parent[p] {
		out = append(out, p)
	}
	return out
}

// ASPath returns the AS-index path from AS a to AS b following the
// provider hierarchy: up from a to the tier-1 level, at most one
// tier-1 peering hop, then down to b. It mirrors the shortest path the
// routing layer computes on the generated graph.
func (n RandomNodes) ASPath(a, b int) []int {
	if a == b {
		return []int{a}
	}
	up := append([]int{a}, n.Ancestors(a)...)
	down := append([]int{b}, n.Ancestors(b)...)
	// If one chain contains the other's AS, cut at the meeting point.
	pos := make(map[int]int, len(up))
	for i, as := range up {
		pos[as] = i
	}
	for j, as := range down {
		if i, ok := pos[as]; ok {
			path := append([]int{}, up[:i+1]...)
			for k := j - 1; k >= 0; k-- {
				path = append(path, down[k])
			}
			return path
		}
	}
	// Disjoint trees: cross between the two tier-1 roots.
	path := append([]int{}, up...)
	for k := len(down) - 1; k >= 0; k-- {
		path = append(path, down[k])
	}
	return path
}

// maxRandomASes bounds the generator's address plan (10.x.y.z with two
// octets of AS index).
const maxRandomASes = 60000

// Random generates a connected multi-AS topology from the spec, drawing
// every choice from rng so equal (spec, seed) pairs produce identical
// graphs. It panics on nonsensical specs (generated specs are built by
// code, as with the other builders).
func Random(spec RandomSpec, rng *rand.Rand) (*Topology, RandomNodes) {
	if spec.ASes < 2 {
		panic("topology: Random needs at least 2 ASes")
	}
	if spec.ASes > maxRandomASes {
		panic(fmt.Sprintf("topology: Random ASes > %d exceeds the address plan", maxRandomASes))
	}
	if spec.MaxHostsPerAS < 1 {
		spec.MaxHostsPerAS = 1
	}
	if spec.MaxHostsPerAS > 200 {
		spec.MaxHostsPerAS = 200
	}
	tier1 := spec.Tier1
	if tier1 < 1 {
		tier1 = 1
	}
	if tier1 > spec.ASes {
		tier1 = spec.ASes
	}
	p := spec.Params

	t := New()
	n := RandomNodes{
		Border:   make([]NodeID, spec.ASes),
		Internal: make([]NodeID, spec.ASes),
		Hosts:    make([][]NodeID, spec.ASes),
		Parent:   make([]int, spec.ASes),
	}
	for i := 0; i < tier1; i++ {
		n.Tier1 = append(n.Tier1, i)
	}

	addr := func(as int, last byte) flow.Addr {
		return flow.Addr(uint32(10)<<24 | uint32(as/250)<<16 | uint32(as%250)<<8 | uint32(last))
	}
	for i := 0; i < spec.ASes; i++ {
		asNum := i + 1
		n.Border[i] = t.AddNode(fmt.Sprintf("gw%d", asNum),
			addr(i, 1), KindBorderRouter, asNum)
		n.Internal[i] = -1
		if rng.Float64() < spec.InternalRouterProb {
			n.Internal[i] = t.AddNode(fmt.Sprintf("r%d", asNum),
				addr(i, 2), KindInternalRouter, asNum)
			t.AddLink(n.Border[i], n.Internal[i], p.BackboneDelay, coreBandwidth, p.QueueLen)
		}
		nh := 1 + rng.Intn(spec.MaxHostsPerAS)
		attach := n.Border[i]
		if n.Internal[i] >= 0 {
			attach = n.Internal[i]
		}
		for j := 0; j < nh; j++ {
			h := t.AddNode(fmt.Sprintf("h%d_%d", asNum, j),
				addr(i, byte(10+j)), KindHost, asNum)
			t.AddLink(h, attach, p.AccessDelay, p.TailBandwidth, p.QueueLen)
			n.Hosts[i] = append(n.Hosts[i], h)
		}
		if i < tier1 {
			n.Parent[i] = -1
			for j := 0; j < i; j++ {
				t.AddLink(n.Border[i], n.Border[j], p.BackboneDelay, coreBandwidth, p.QueueLen)
			}
		} else {
			n.Parent[i] = rng.Intn(i)
			t.AddLink(n.Border[i], n.Border[n.Parent[i]], p.BackboneDelay, coreBandwidth, p.QueueLen)
		}
	}
	return t, n
}
