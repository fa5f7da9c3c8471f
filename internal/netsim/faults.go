package netsim

// Fault injection: seeded random per-link loss, deterministic link
// up/down flap schedules, and node crash/restart. All randomness comes
// from one network-level seeded source drawn in deterministic event
// order, so a fault schedule replays exactly for a given seed — and a
// network that configures no faults never draws from it at all,
// keeping fault-free runs byte-identical to pre-fault builds.

import (
	"math/rand"

	"aitf/internal/flow"
	"aitf/internal/packet"
	"aitf/internal/sim"
)

// SeedFaults seeds the network's fault randomness source. Call once
// before configuring link loss; SetLinkLoss falls back to seed 1 when
// no seed was provided.
func (net *Network) SeedFaults(seed int64) {
	net.faultRng = rand.New(rand.NewSource(seed))
}

// ifacePair returns the two directed interfaces of the link between a
// and b, or nils when no such link exists.
func (net *Network) ifacePair(a, b flow.Addr) (*Iface, *Iface) {
	na, nb := net.NodeByAddr(a), net.NodeByAddr(b)
	if na == nil || nb == nil {
		return nil, nil
	}
	return na.IfaceTo(b), nb.IfaceTo(a)
}

// SetLinkLoss sets random loss probabilities in [0, 1] on the link
// between a and b (both directions), separately for control and data
// packets. Control-only loss models the paper's hard case — signaling
// squeezed by the very congestion it is trying to relieve — without
// perturbing data-plane accounting. No-op when the link doesn't exist.
func (net *Network) SetLinkLoss(a, b flow.Addr, ctrl, data float64) {
	if net.faultRng == nil {
		net.faultRng = rand.New(rand.NewSource(1))
	}
	ab, ba := net.ifacePair(a, b)
	for _, i := range []*Iface{ab, ba} {
		if i != nil {
			f := i.faults()
			f.ctrlLoss, f.dataLoss = clamp01(ctrl), clamp01(data)
		}
	}
}

// SetLinkState administratively raises or lowers the link between a
// and b (both directions). Sends into a downed link count as fault
// losses. No-op when the link doesn't exist.
func (net *Network) SetLinkState(a, b flow.Addr, up bool) {
	ab, ba := net.ifacePair(a, b)
	for _, i := range []*Iface{ab, ba} {
		if i != nil {
			i.faults().down = !up
		}
	}
}

// FlapLink schedules one down/up flap of the link between a and b:
// down at downAt, back up at upAt. Times in the past fire immediately
// (sim.Engine clamps them to now).
func (net *Network) FlapLink(a, b flow.Addr, downAt, upAt sim.Time) {
	net.eng.ScheduleAt(downAt, func() { net.SetLinkState(a, b, false) })
	net.eng.ScheduleAt(upAt, func() { net.SetLinkState(a, b, true) })
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// linkFault is one direction's fault-injection state: per-class random
// loss probability and administrative link state. An Iface holds one
// only once a fault is configured on its link.
type linkFault struct {
	ctrlLoss, dataLoss float64
	down               bool
}

// faults returns the interface's fault state, making it on first use.
func (i *Iface) faults() *linkFault {
	if i.fault == nil {
		i.fault = &linkFault{}
	}
	return i.fault
}

// drops reports whether the link loses p: it is down, or p's class has
// a loss probability and the network's fault source draws below it.
func (f *linkFault) drops(net *Network, p *packet.Packet) bool {
	if f.down {
		return true
	}
	loss := f.dataLoss
	if p.IsControl() {
		loss = f.ctrlLoss
	}
	return loss > 0 && net.faultRng.Float64() < loss
}

// dropFault counts a fault-induced loss and recycles the packet.
func (i *Iface) dropFault(p *packet.Packet) {
	if p.IsControl() {
		i.stats.CtrlLossDrops++
	} else {
		i.stats.DataLossDrops++
	}
	p.Release()
}

// Crash takes the node down mid-run. Packets still sitting in its
// output queues are dropped (in-flight packets that already started
// serializing survive — they are on the wire), and the handler reverts
// to the default plain handler: volatile protocol state is gone,
// exactly as a process crash would lose it. Protocol layers with their own timers must stop them
// separately (e.g. core.Gateway.Halt); a crashed node drops everything
// that arrives until Restart.
func (n *Node) Crash() {
	now := n.net.eng.Now()
	n.down = true
	n.crashedAt = now
	for _, i := range n.ifaces {
		// Bumping the epoch turns the pending releases into no-ops and
		// makes the arrivals of still-queued packets drop instead of
		// deliver. Both FIFOs keep their entries: each still fires as
		// one event, at the time it was given.
		i.epoch++
		n.CrashDrops += uint64(i.queued)
		i.queued = 0
		i.busyUntil = now
	}
	n.handler = HandlerFunc(defaultReceive)
}

// Restart brings a crashed node back with empty queues and the default
// handler. The caller re-attaches its protocol handler (e.g. by
// building a fresh core.Gateway on it) and restores any snapshot it kept.
func (n *Node) Restart() { n.down = false }

// AggStats sums the node's interface counters into one IfaceStats —
// the per-node view the metrics surface exports.
func (n *Node) AggStats() IfaceStats {
	var s IfaceStats
	for _, i := range n.ifaces {
		st := i.Stats()
		s.TxPackets += st.TxPackets
		s.TxBytes += st.TxBytes
		s.RxPackets += st.RxPackets
		s.RxBytes += st.RxBytes
		s.QueueDrops += st.QueueDrops
		s.CtrlQueueDrops += st.CtrlQueueDrops
		s.DataQueueDrops += st.DataQueueDrops
		s.LossDrops += st.LossDrops
		s.CtrlLossDrops += st.CtrlLossDrops
		s.DataLossDrops += st.DataLossDrops
	}
	return s
}
