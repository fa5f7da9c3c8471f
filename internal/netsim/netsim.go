// Package netsim is the discrete-event network emulator: nodes joined
// by links with propagation delay, serialization (bandwidth) delay, and
// drop-tail output queues, all driven by the sim engine's virtual time.
//
// netsim knows nothing about AITF; protocol behaviour is injected per
// node through the Handler interface (implemented by internal/core for
// AITF nodes and by internal/pushback for the baseline).
package netsim

import (
	"fmt"
	"math/rand"

	"aitf/internal/flow"
	"aitf/internal/packet"
	"aitf/internal/sim"
	"aitf/internal/topology"
)

// DefaultQueueLen is the output queue capacity used when a link spec
// leaves QueueLen zero.
const DefaultQueueLen = 64

// Handler receives every packet delivered to a node. from is the
// interface the packet arrived on; it is nil for packets the node
// originates via Deliver (used only in tests).
type Handler interface {
	Receive(n *Node, p *packet.Packet, from *Iface)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(n *Node, p *packet.Packet, from *Iface)

// Receive implements Handler.
func (f HandlerFunc) Receive(n *Node, p *packet.Packet, from *Iface) { f(n, p, from) }

// IfaceStats counts per-direction link activity.
type IfaceStats struct {
	TxPackets uint64
	TxBytes   uint64
	RxPackets uint64
	RxBytes   uint64
	// QueueDrops counts packets dropped because the output queue was
	// full — congestion losses, the thing a DoS attack manufactures.
	// CtrlQueueDrops/DataQueueDrops split the same total by packet
	// class, so experiments can separate lost signaling from the attack
	// congestion that caused it.
	QueueDrops     uint64
	CtrlQueueDrops uint64
	DataQueueDrops uint64
	// LossDrops counts fault-induced losses — random link loss and
	// sends into an administratively downed link (see faults.go) —
	// again split by packet class. Disjoint from QueueDrops.
	LossDrops     uint64
	CtrlLossDrops uint64
	DataLossDrops uint64
}

// Iface is one node's attachment to one link, in one direction. Sending
// on an Iface transmits toward its neighbor.
//
// aitf:packetowner — a link holds its in-flight pooled packets from
// Send until their arrival fires.
type Iface struct {
	owner    *Node
	neighbor *Node
	back     *Iface // the neighbor's interface toward owner

	delay     sim.Time
	bandwidth float64 // bytes/s; 0 = infinite
	queueCap  int

	busyUntil sim.Time
	queued    int

	// The link's pending events, in the order they fire: one arrival
	// per packet in flight, one release per packet waiting its turn to
	// serialize. Each took its engine seq at Send, but only the head of
	// each FIFO is in the engine's queue; firing it enters the next one
	// under the (at, seq) it was given at Send, so the global event
	// order is the one a per-packet schedule would produce.
	inflight  ring[flight]
	releases  ring[release]
	arriveFn  func() // i.arriveHead, bound once at Build
	releaseFn func() // i.releaseHead

	// Fault-injection state (faults.go): per-class random loss
	// probability, administrative link state, and a crash epoch that
	// invalidates transmissions still queued when the owner crashes.
	ctrlLoss, dataLoss float64
	down               bool
	epoch              uint32
	crashedAt          sim.Time

	stats IfaceStats
}

// Neighbor returns the node at the far end.
func (i *Iface) Neighbor() *Node { return i.neighbor }

// Owner returns the node this interface belongs to.
func (i *Iface) Owner() *Node { return i.owner }

// Stats returns a copy of the interface counters.
func (i *Iface) Stats() IfaceStats { return i.stats }

// QueueLen returns the packets currently waiting for transmission.
func (i *Iface) QueueLen() int { return i.queued }

// Send transmits p toward the neighbor, modelling serialization delay,
// propagation delay, and a drop-tail queue. It reports whether the
// packet was accepted; on a false return the packet was dropped at the
// queue and released to the packet pool, so the caller must not retain
// it.
//
// aitf:noalloc
func (i *Iface) Send(p *packet.Packet) bool {
	if i.down || i.owner.down {
		// Downed link (or crashed owner): the packet never reaches the
		// wire.
		i.dropFault(p)
		return false
	}
	if loss := i.lossFor(p); loss > 0 && i.owner.net.faultRng.Float64() < loss {
		i.dropFault(p)
		return false
	}
	eng := i.owner.net.eng
	now := eng.Now()
	size := uint32(p.WireSize())
	txdur := i.txdur(size)
	start := now
	if i.busyUntil > now {
		// Link busy: the packet must queue.
		if i.queued >= i.queueCap {
			i.stats.QueueDrops++
			if p.IsControl() {
				i.stats.CtrlQueueDrops++
			} else {
				i.stats.DataQueueDrops++
			}
			p.Release() // congestion loss: the packet is dead, recycle it
			return false
		}
		start = i.busyUntil
		i.queued++
		r := release{at: start, seq: eng.ReserveSeq(), epoch: i.epoch}
		switch {
		case i.releases.len() == 0:
			i.releases.push(r)
			eng.PostReserved(r.at, r.seq, i.releaseFn)
		case r.at < i.releases.last().at:
			i.postStrayRelease(r)
		default:
			i.releases.push(r)
		}
	}
	i.busyUntil = start + txdur
	i.stats.TxPackets++
	i.stats.TxBytes += uint64(size)

	f := flight{p: p, at: start + txdur + i.delay, seq: eng.ReserveSeq(), size: size, epoch: i.epoch}
	switch {
	case i.inflight.len() == 0:
		i.inflight.push(f)
		eng.PostReserved(f.at, f.seq, i.arriveFn)
	case f.at < i.inflight.last().at:
		i.postStrayFlight(f)
	default:
		i.inflight.push(f)
	}
	return true
}

// flight is one packet on its way across a link: when it arrives, the
// engine seq it took at Send, and what arrive needs to decide whether a
// crash of the sender caught it still in the output queue. It is 32
// bytes: a link's delay and bandwidth never change, so the instant
// serialization began is not kept but recomputed (start).
//
// aitf:packetowner — owns its packet from Send to arrival.
type flight struct {
	p     *packet.Packet
	at    sim.Time
	seq   uint64
	size  uint32 // wire bytes
	epoch uint32
}

// txdur is the serialization time of size wire bytes on the link.
func (i *Iface) txdur(size uint32) sim.Time {
	if i.bandwidth > 0 {
		return sim.Time(float64(size) / i.bandwidth * 1e9)
	}
	return 0
}

// start is when f began serializing: Send set f.at = start + txdur +
// delay.
func (i *Iface) start(f *flight) sim.Time { return f.at - i.delay - i.txdur(f.size) }

// release is the moment a queued packet starts serializing and frees
// its output-queue slot.
type release struct {
	at    sim.Time
	seq   uint64
	epoch uint32
}

// postStrayFlight posts an arrival on its own, under the seq it took at
// Send, because it fires before the tail of the in-flight FIFO and so
// cannot join it. Times on one link never decrease from Send to Send
// with one exception: Crash resets busyUntil, so a restarted node can
// send under the arrivals and releases of the queue the crash wiped,
// which stay pending (they still fire, as drops and no-ops).
func (i *Iface) postStrayFlight(f flight) {
	i.owner.net.eng.PostReserved(f.at, f.seq, func() { i.arrive(f) })
}

// postStrayRelease is postStrayFlight for a queue release.
func (i *Iface) postStrayRelease(r release) {
	i.owner.net.eng.PostReserved(r.at, r.seq, func() { i.release(r) })
}

// arriveHead fires for the link's earliest in-flight packet.
//
// aitf:noalloc
func (i *Iface) arriveHead() {
	f := i.inflight.pop()
	if i.inflight.len() > 0 {
		next := i.inflight.first()
		i.owner.net.eng.PostReserved(next.at, next.seq, i.arriveFn)
	}
	i.arrive(f)
}

// releaseHead fires when the link's earliest queued packet starts
// serializing.
//
// aitf:noalloc
func (i *Iface) releaseHead() {
	r := i.releases.pop()
	if i.releases.len() > 0 {
		next := i.releases.first()
		i.owner.net.eng.PostReserved(next.at, next.seq, i.releaseFn)
	}
	i.release(r)
}

func (i *Iface) release(r release) {
	if i.epoch == r.epoch {
		i.queued--
	}
}

func (i *Iface) arrive(f flight) {
	if i.epoch != f.epoch && i.start(&f) > i.crashedAt {
		// The owner crashed while this packet was still sitting in its
		// output queue; it never made it onto the wire. Packets that had
		// already begun serializing (start <= crash time) are on the
		// wire and survive.
		i.owner.CrashDrops++
		f.p.Release()
		return
	}
	i.back.stats.RxPackets++
	i.back.stats.RxBytes += uint64(f.size)
	i.neighbor.deliver(f.p, i.back)
}

// Node is a running network element.
type Node struct {
	net  *Network
	info topology.Node

	ifaces  []*Iface // in topology link order, as topology.Neighbors
	handler Handler

	// RoutingDrops counts packets dropped for TTL expiry or no route.
	RoutingDrops uint64
	// CrashDrops counts packets lost to a node crash: queued
	// transmissions wiped by Crash, plus packets arriving while the node
	// is down.
	CrashDrops uint64

	// down marks a crashed node (see faults.go); a down node neither
	// sends nor receives.
	down bool
}

// ID returns the node's topology ID.
func (n *Node) ID() topology.NodeID { return n.info.ID }

// Addr returns the node's network address.
func (n *Node) Addr() flow.Addr { return n.info.Addr }

// Name returns the node's topology name.
func (n *Node) Name() string { return n.info.Name }

// Kind returns the node's topology kind.
func (n *Node) Kind() topology.Kind { return n.info.Kind }

// AS returns the node's autonomous domain.
func (n *Node) AS() int { return n.info.AS }

// Net returns the owning network.
func (n *Node) Net() *Network { return n.net }

// Engine returns the simulation engine, for scheduling protocol timers.
func (n *Node) Engine() *sim.Engine { return n.net.eng }

// Ifaces lists the node's interfaces in topology order.
func (n *Node) Ifaces() []*Iface { return n.ifaces }

// IfaceTo returns the interface whose neighbor has the given address,
// or nil. Topologies hold no parallel links, so there is at most one.
func (n *Node) IfaceTo(neighbor flow.Addr) *Iface {
	for _, i := range n.ifaces {
		if i.neighbor.Addr() == neighbor {
			return i
		}
	}
	return nil
}

// NextHop returns the interface on the shortest path toward dst, or nil
// if dst is unknown or is the node itself.
//
// aitf:noalloc
func (n *Node) NextHop(dst flow.Addr) *Iface {
	id, ok := n.net.ids[dst]
	if !ok || id == n.info.ID {
		return nil
	}
	return n.ifaces[n.net.routes.Port(n.info.ID, id)]
}

// SetHandler installs the node's packet handler.
func (n *Node) SetHandler(h Handler) { n.handler = h }

// Handler returns the node's current handler.
func (n *Node) Handler() Handler { return n.handler }

// deliver hands an arriving packet to the handler.
func (n *Node) deliver(p *packet.Packet, from *Iface) {
	if n.down {
		n.CrashDrops++
		p.Release()
		return
	}
	n.handler.Receive(n, p, from)
}

// Forward routes p toward its destination: decrements TTL, looks up the
// next hop, and transmits. It reports whether the packet moved on.
// A dropped packet (TTL expiry, no route, queue overflow) is released
// back to the packet pool — callers must not retain p after a false
// return.
func (n *Node) Forward(p *packet.Packet) bool {
	if p.TTL == 0 {
		n.RoutingDrops++
		p.Release()
		return false
	}
	p.TTL--
	hop := n.NextHop(p.Dst)
	if hop == nil {
		n.RoutingDrops++
		p.Release()
		return false
	}
	return hop.Send(p)
}

// Originate injects a packet generated by this node into the network,
// stamping the source if unset. As with Forward, a false return means
// the packet was dropped and released; callers must not retain it.
func (n *Node) Originate(p *packet.Packet) bool {
	if p.Src == 0 {
		p.Src = n.Addr()
	}
	hop := n.NextHop(p.Dst)
	if hop == nil {
		n.RoutingDrops++
		p.Release()
		return false
	}
	return hop.Send(p)
}

// Network is a set of running nodes built from a topology.
type Network struct {
	eng    *sim.Engine
	topo   *topology.Topology
	nodes  []*Node
	ids    map[flow.Addr]topology.NodeID // the one index every NextHop shares
	routes *topology.Routes

	// faultRng drives all fault randomness (faults.go). Lazily seeded;
	// fault-free networks never touch it, so their schedules are
	// byte-identical to builds without fault injection.
	faultRng *rand.Rand
}

// Build instantiates a network over the engine. Every node starts with
// a plain forwarding handler (hosts drop packets not addressed to
// them); install protocol handlers with Node.SetHandler.
func Build(eng *sim.Engine, topo *topology.Topology) (*Network, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	n := len(topo.Nodes)
	net := &Network{eng: eng, topo: topo, nodes: make([]*Node, n), ids: make(map[flow.Addr]topology.NodeID, n)}
	for _, tn := range topo.Nodes {
		node := &Node{net: net, info: tn, handler: HandlerFunc(defaultReceive)}
		net.nodes[tn.ID] = node
		net.ids[tn.Addr] = tn.ID
	}
	for _, ls := range topo.Links {
		qlen := ls.QueueLen
		if qlen <= 0 {
			qlen = DefaultQueueLen
		}
		a, b := net.nodes[ls.A], net.nodes[ls.B]
		ab := &Iface{owner: a, neighbor: b, delay: ls.Delay, bandwidth: ls.Bandwidth, queueCap: qlen}
		ba := &Iface{owner: b, neighbor: a, delay: ls.Delay, bandwidth: ls.Bandwidth, queueCap: qlen}
		ab.back, ba.back = ba, ab
		for _, i := range [2]*Iface{ab, ba} {
			i.arriveFn, i.releaseFn = i.arriveHead, i.releaseHead
			i.owner.ifaces = append(i.owner.ifaces, i)
		}
	}
	// Routes' ports index topology.Neighbors, so NextHop can index
	// ifaces with them only while both lists are in link order.
	net.routes = topo.Routes()
	for _, node := range net.nodes {
		for i, peer := range topo.Neighbors(node.ID()) {
			if node.ifaces[i].neighbor.ID() != peer {
				panic(fmt.Sprintf("netsim: %s interface %d is not toward neighbor %d", node.Name(), i, peer))
			}
		}
	}
	return net, nil
}

// MustBuild is Build for static topologies known to be valid.
func MustBuild(eng *sim.Engine, topo *topology.Topology) *Network {
	net, err := Build(eng, topo)
	if err != nil {
		panic(fmt.Sprintf("netsim: %v", err))
	}
	return net
}

// Engine returns the simulation engine.
func (net *Network) Engine() *sim.Engine { return net.eng }

// Topology returns the topology the network was built from.
func (net *Network) Topology() *topology.Topology { return net.topo }

// Node returns the node with the given topology ID.
func (net *Network) Node(id topology.NodeID) *Node { return net.nodes[id] }

// NodeByAddr returns the node with the given address, or nil.
func (net *Network) NodeByAddr(a flow.Addr) *Node {
	if id, ok := net.ids[a]; ok {
		return net.nodes[id]
	}
	return nil
}

// Nodes lists all nodes in topology order.
func (net *Network) Nodes() []*Node { return net.nodes }

// defaultReceive is plain best-effort forwarding: routers relay,
// endpoints silently absorb their own traffic and drop the rest.
func defaultReceive(n *Node, p *packet.Packet, _ *Iface) {
	if p.Dst == n.Addr() {
		return
	}
	n.Forward(p)
}
