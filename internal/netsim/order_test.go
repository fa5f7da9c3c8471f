package netsim

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"aitf/internal/flow"
	"aitf/internal/packet"
	"aitf/internal/sim"
	"aitf/internal/topology"
)

// The delivery-order property: a link keeps only its earliest arrival
// and its earliest queue release in the engine's queue, yet the network
// must fire exactly the events, in exactly the order, of a schedule
// that gives every accepted packet its own arrival event (and, when it
// had to queue, its own release event) at Send.
//
// orderModel is that per-packet schedule, written out independently of
// Iface.Send: it mirrors every engine seq the run consumes, predicts
// each Send's verdict (down link, crashed owner, seeded per-class loss,
// full queue), and keeps the expected events sorted by (at, seq). The
// test then single-steps the engine and checks each fired event against
// the model's next one: its time, and its whole observable effect
// (which node received which packet, whose CrashDrops moved, which
// queue released a slot).

type modelKind uint8

const (
	evDriver modelKind = iota
	evArrival
	evRelease
)

type modelEvent struct {
	at    sim.Time
	seq   uint64
	kind  modelKind
	link  *modelLink
	id    uint32   // arrival: packet id
	start sim.Time // arrival: when serialization began
	epoch uint32
}

type modelLink struct {
	iface              *Iface
	busyUntil          sim.Time
	queued             int
	ctrlLoss, dataLoss float64
	down               bool
	epoch              uint32
	crashedAt          sim.Time
	lastArrive         sim.Time // of the newest accepted packet
}

type delivery struct {
	node *Node
	id   uint32
}

type orderModel struct {
	t     *testing.T
	eng   *sim.Engine
	net   *Network
	rng   *rand.Rand // twin of the network's fault source
	seq   uint64     // the engine's next seq
	links map[*Iface]*modelLink
	down  map[*Node]bool
	drops map[*Node]uint64 // expected CrashDrops

	pending   []modelEvent
	delivered []delivery // what the handlers actually saw
	strays    int        // accepted sends that land before their link's tail
}

func pktID(p *packet.Packet) uint32 { return uint32(p.SrcPort)<<16 | uint32(p.DstPort) }

func (m *orderModel) expect(ev modelEvent) {
	ev.seq = m.seq
	m.seq++
	m.pending = append(m.pending, ev)
}

// popNext removes and returns the pending event that must fire next.
func (m *orderModel) popNext() modelEvent {
	min := 0
	for k, ev := range m.pending {
		if b := m.pending[min]; ev.at < b.at || (ev.at == b.at && ev.seq < b.seq) {
			min = k
		}
	}
	ev := m.pending[min]
	m.pending = append(m.pending[:min], m.pending[min+1:]...)
	return ev
}

// schedule registers a driver action with both the engine and the model.
func (m *orderModel) schedule(at sim.Time, run func()) {
	m.expect(modelEvent{at: at, kind: evDriver})
	m.eng.ScheduleAt(at, run)
}

// send is Iface.Send plus the model's account of it.
func (m *orderModel) send(i *Iface, p *packet.Packet) {
	l, now := m.links[i], m.eng.Now()
	ctrl, size, id := p.IsControl(), p.WireSize(), pktID(p)

	want := true
	loss := l.dataLoss
	if ctrl {
		loss = l.ctrlLoss
	}
	switch {
	case l.down || m.down[i.owner]:
		want = false
	case loss > 0 && m.rng.Float64() < loss:
		want = false
	case l.busyUntil > now && l.queued >= int(i.queueCap):
		want = false
	}
	if got := i.Send(p); got != want {
		m.t.Fatalf("t=%v: Send on %s->%s = %v, model says %v", now, i.owner.Name(), i.Neighbor().Name(), got, want)
	}
	if !want {
		return
	}
	var txdur sim.Time
	if i.bandwidth > 0 {
		txdur = sim.Time(float64(size) / i.bandwidth * 1e9)
	}
	start := now
	if l.busyUntil > now {
		start = l.busyUntil
		l.queued++
		m.expect(modelEvent{at: start, kind: evRelease, link: l, epoch: l.epoch})
	}
	l.busyUntil = start + txdur
	arrive := start + txdur + i.delay
	if arrive < l.lastArrive {
		m.strays++
	}
	l.lastArrive = arrive
	m.expect(modelEvent{at: arrive, kind: evArrival, link: l, id: id, start: start, epoch: l.epoch})
}

// Receive forwards through the model, so sends made from inside an
// arrival are mirrored too.
func (m *orderModel) Receive(n *Node, p *packet.Packet, _ *Iface) {
	m.delivered = append(m.delivered, delivery{n, pktID(p)})
	if p.Dst == n.Addr() {
		p.Release()
		return
	}
	m.send(n.NextHop(p.Dst), p)
}

func (m *orderModel) crash(n *Node) {
	now := m.eng.Now()
	m.down[n] = true
	for _, i := range n.ifaces {
		l := m.links[i]
		l.epoch++
		l.crashedAt = now
		m.drops[n] += uint64(l.queued)
		l.queued = 0
		l.busyUntil = now
	}
	n.Crash()
}

func (m *orderModel) restart(n *Node) {
	m.down[n] = false
	n.Restart()
	n.SetHandler(m)
}

func (m *orderModel) setLinkState(a, b *Node, up bool) {
	m.links[a.IfaceTo(b.Addr())].down = !up
	m.links[b.IfaceTo(a.Addr())].down = !up
	m.net.SetLinkState(a.Addr(), b.Addr(), up)
}

// step fires one engine event and checks it is the model's next.
func (m *orderModel) step() {
	ev := m.popNext()
	var wantDelivery *delivery
	switch ev.kind {
	case evArrival:
		i := ev.link.iface
		switch {
		case ev.link.epoch != ev.epoch && ev.start > ev.link.crashedAt:
			m.drops[i.owner]++ // wiped from the sender's queue by its crash
		case m.down[i.Neighbor()]:
			m.drops[i.Neighbor()]++
		default:
			wantDelivery = &delivery{i.Neighbor(), ev.id}
		}
	case evRelease:
		if ev.link.epoch == ev.epoch {
			ev.link.queued--
		}
	}
	seen := len(m.delivered)
	if !m.eng.Step() {
		m.t.Fatalf("engine ran dry; model still expects kind %d at %v", ev.kind, ev.at)
	}
	if m.eng.Now() != ev.at {
		m.t.Fatalf("event %d fired at %v, model expects kind %d (seq %d) at %v",
			m.eng.Processed, m.eng.Now(), ev.kind, ev.seq, ev.at)
	}
	// A handler may forward, never receive twice: at most one delivery.
	switch got := m.delivered[seen:]; {
	case wantDelivery == nil && len(got) != 0:
		m.t.Fatalf("t=%v: %s received packet %08x, model expects kind %d", ev.at, got[0].node.Name(), got[0].id, ev.kind)
	case wantDelivery != nil && (len(got) != 1 || got[0] != *wantDelivery):
		m.t.Fatalf("t=%v: delivered %v, model expects packet %08x at %s", ev.at, got, wantDelivery.id, wantDelivery.node.Name())
	}
	for _, n := range m.net.nodes {
		if n.CrashDrops != m.drops[n] {
			m.t.Fatalf("t=%v after kind %d: %s CrashDrops = %d, model %d", ev.at, ev.kind, n.Name(), n.CrashDrops, m.drops[n])
		}
		for _, i := range n.ifaces {
			if int(i.queued) != m.links[i].queued {
				m.t.Fatalf("t=%v after kind %d: %s->%s QueueLen = %d, model %d",
					ev.at, ev.kind, n.Name(), i.Neighbor().Name(), i.queued, m.links[i].queued)
			}
		}
	}
}

func TestPropertyDeliveryOrder(t *testing.T) {
	strays, crashDrops, stale := 0, uint64(0), 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// A star: hub R with an unlimited link to A, a slow deep-queued
		// link to B and a fast shallow-queued link to C.
		topo := topology.New()
		var ids [4]topology.NodeID
		for k, name := range []string{"R", "A", "B", "C"} {
			ids[k] = topo.AddNode(name, flow.MakeAddr(10, 0, 0, byte(k+1)), topology.KindInternalRouter, k)
		}
		topo.AddLink(ids[0], ids[1], time.Millisecond, 0, 0)
		topo.AddLink(ids[0], ids[2], 2*time.Millisecond, 50_000, 8)
		topo.AddLink(ids[0], ids[3], 500*time.Microsecond, 1_000_000, 4)

		eng := sim.NewEngine(seed)
		net := MustBuild(eng, topo)
		net.SeedFaults(seed)
		m := &orderModel{
			t: t, eng: eng, net: net, rng: rand.New(rand.NewSource(seed)),
			links: map[*Iface]*modelLink{}, down: map[*Node]bool{}, drops: map[*Node]uint64{},
		}
		nodes := net.nodes
		for _, n := range nodes {
			n.SetHandler(m)
			for _, i := range n.ifaces {
				m.links[i] = &modelLink{iface: i}
			}
		}
		hub, b := nodes[0], nodes[2]
		net.SetLinkLoss(hub.Addr(), b.Addr(), 0.2, 0.1)
		for _, i := range []*Iface{hub.IfaceTo(b.Addr()), b.IfaceTo(hub.Addr())} {
			m.links[i].ctrlLoss, m.links[i].dataLoss = 0.2, 0.1
		}

		// The script: bursts of sends, with crashes (restarted a little
		// later, usually under a still-draining wiped queue) and flaps.
		const horizon = 400 * time.Millisecond
		var nextID uint32
		sendBurst := func() {
			src := nodes[rng.Intn(len(nodes))]
			for k := rng.Intn(12) + 1; k > 0; k-- {
				dst := nodes[rng.Intn(len(nodes))]
				if dst == src {
					continue
				}
				var p *packet.Packet
				if rng.Intn(4) == 0 {
					p = packet.NewControl(src.Addr(), dst.Addr(), &packet.VerifyReply{Flow: flow.PairLabel(src.Addr(), dst.Addr())})
				} else {
					p = packet.NewData(src.Addr(), dst.Addr(), flow.ProtoUDP, 0, 0, 40+rng.Intn(1460))
				}
				nextID++
				p.SrcPort, p.DstPort = uint16(nextID>>16), uint16(nextID)
				m.send(src.NextHop(dst.Addr()), p)
			}
		}
		for k := 0; k < 120; k++ {
			at := sim.Time(rng.Int63n(int64(horizon)))
			switch r := rng.Intn(20); {
			case r < 16:
				m.schedule(at, sendBurst)
			case r < 18:
				n := nodes[rng.Intn(len(nodes))]
				back := at + sim.Time(rng.Int63n(int64(20*time.Millisecond)))
				m.schedule(at, func() {
					if !m.down[n] {
						m.crash(n)
					}
				})
				m.schedule(back, func() {
					if m.down[n] {
						m.restart(n)
					}
				})
			default:
				spoke := nodes[1+rng.Intn(3)]
				m.schedule(at, func() { m.setLinkState(hub, spoke, false) })
				m.schedule(at+sim.Time(rng.Int63n(int64(10*time.Millisecond))), func() { m.setLinkState(hub, spoke, true) })
			}
		}

		fired := uint64(0)
		for len(m.pending) > 0 {
			m.step()
			fired++
		}
		if eng.Step() {
			t.Fatalf("seed %d: engine fired an event the model never expected, at %v", seed, eng.Now())
		}
		if eng.Processed != fired {
			t.Fatalf("seed %d: Processed = %d, model fired %d", seed, eng.Processed, fired)
		}
		strays += m.strays
		for _, n := range nodes {
			crashDrops += n.CrashDrops
		}
		for _, l := range m.links {
			if l.epoch > 0 {
				stale++
			}
		}
	}
	// The script must reach the hard cases, or the property is vacuous.
	if strays == 0 {
		t.Fatal("no send ever landed before its link's pending tail: the post-crash case was not exercised")
	}
	if crashDrops == 0 || stale == 0 {
		t.Fatalf("crashes dropped %d packets over %d crashed links: crash handling was not exercised", crashDrops, stale)
	}
	t.Logf("out-of-order sends %d, crash drops %d", strays, crashDrops)
}

// TestStraySendsKeepOrder pins the non-monotone case by hand: after a
// crash wipes a slow link's deep queue and the node restarts, a fresh
// packet arrives long before the wiped packets' arrival events (which
// still fire, as drops). It must be delivered at its own time, between
// them, and the link must go on working afterwards.
func TestStraySendsKeepOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	topo, ids := lineTopo(topology.Params{AccessDelay: time.Millisecond, TailBandwidth: 100_000, QueueLen: 32})
	net := MustBuild(eng, topo)
	router, dst := net.Node(ids[1]), net.Node(ids[2])
	s := &sink{}
	dst.SetHandler(s)
	out := router.IfaceTo(dst.Addr())
	send := func() {
		out.Send(packet.NewData(router.Addr(), dst.Addr(), flow.ProtoUDP, 1, 2, 1000))
	}
	// Ten packets at t=0: ~10.2 ms of serialization each, arrivals at
	// ~11, 21, … 103 ms.
	for k := 0; k < 10; k++ {
		send()
	}
	eng.ScheduleAt(15*time.Millisecond, func() {
		router.Crash() // packet 2 is serializing; 3..10 are wiped
		router.Restart()
		send() // arrives at ~26 ms, under the wiped arrivals still pending
		send()
	})
	eng.ScheduleAt(200*time.Millisecond, send)
	eng.Run()

	var at []time.Duration
	for _, v := range s.times {
		at = append(at, v.Round(time.Millisecond))
	}
	want := []time.Duration{11, 21, 26, 36, 211}
	for k := range want {
		want[k] *= time.Millisecond
	}
	if !slices.Equal(at, want) {
		t.Fatalf("arrivals at %v, want %v", at, want)
	}
	// 8 wiped at the crash, and each counted again when its arrival fires.
	if router.CrashDrops != 16 {
		t.Fatalf("CrashDrops = %d, want 16", router.CrashDrops)
	}
	// 13 arrivals + 9 + 1 releases (queued sends) + 2 scheduled actions.
	if eng.Processed != 25 {
		t.Fatalf("Processed = %d, want 25", eng.Processed)
	}
}
