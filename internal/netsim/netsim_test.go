package netsim

import (
	"testing"
	"time"

	"aitf/internal/flow"
	"aitf/internal/packet"
	"aitf/internal/sim"
	"aitf/internal/topology"
)

// lineTopo builds host A — router R — host B with the given params.
func lineTopo(p topology.Params) (*topology.Topology, [3]topology.NodeID) {
	t := topology.New()
	a := t.AddNode("A", flow.MakeAddr(10, 0, 0, 1), topology.KindHost, 1)
	r := t.AddNode("R", flow.MakeAddr(10, 0, 0, 2), topology.KindInternalRouter, 0)
	b := t.AddNode("B", flow.MakeAddr(10, 0, 0, 3), topology.KindHost, 2)
	t.AddLink(a, r, p.AccessDelay, p.CoreBandwidth, p.QueueLen)
	t.AddLink(r, b, p.AccessDelay, p.TailBandwidth, p.QueueLen)
	return t, [3]topology.NodeID{a, r, b}
}

type sink struct {
	got   []*packet.Packet
	times []sim.Time
}

func (s *sink) Receive(n *Node, p *packet.Packet, _ *Iface) {
	if p.Dst != n.Addr() {
		n.Forward(p)
		return
	}
	s.got = append(s.got, p)
	s.times = append(s.times, n.Engine().Now())
}

func TestEndToEndDelivery(t *testing.T) {
	eng := sim.NewEngine(1)
	params := topology.Params{AccessDelay: 10 * time.Millisecond}
	topo, ids := lineTopo(params)
	net := MustBuild(eng, topo)
	dst := net.Node(ids[2])
	s := &sink{}
	dst.SetHandler(s)

	src := net.Node(ids[0])
	p := packet.NewData(src.Addr(), dst.Addr(), flow.ProtoUDP, 1000, 80, 500)
	if !src.Originate(p) {
		t.Fatal("Originate failed")
	}
	eng.Run()
	if len(s.got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(s.got))
	}
	// Two hops of 10 ms propagation, zero serialization (infinite bw).
	if s.times[0] != 20*time.Millisecond {
		t.Fatalf("arrival at %v, want 20ms", s.times[0])
	}
	if s.got[0].TTL != packet.DefaultTTL-1 {
		t.Fatalf("TTL = %d, want %d (one forwarding hop)", s.got[0].TTL, packet.DefaultTTL-1)
	}
}

func TestSerializationDelay(t *testing.T) {
	eng := sim.NewEngine(1)
	// 1000 bytes/s link: a packet of 516 wire bytes takes 516 ms to
	// serialize; delivery = tx + propagation.
	params := topology.Params{AccessDelay: 10 * time.Millisecond, TailBandwidth: 1000}
	topo, ids := lineTopo(params)
	net := MustBuild(eng, topo)
	s := &sink{}
	net.Node(ids[2]).SetHandler(s)

	src := net.Node(ids[0])
	p := packet.NewData(src.Addr(), net.Node(ids[2]).Addr(), flow.ProtoUDP, 1, 2, 500)
	src.Originate(p)
	eng.Run()
	if len(s.got) != 1 {
		t.Fatalf("delivered %d", len(s.got))
	}
	wire := float64(packet.HeaderBytes + 500)
	want := 10*time.Millisecond + // A→R hop (infinite bw)
		sim.Time(wire/1000*1e9) + // serialization on R→B
		10*time.Millisecond // propagation R→B
	if s.times[0] != want {
		t.Fatalf("arrival at %v, want %v", s.times[0], want)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	params := topology.Params{
		AccessDelay:   time.Millisecond,
		TailBandwidth: 1000, // very slow
		QueueLen:      4,
	}
	topo, ids := lineTopo(params)
	net := MustBuild(eng, topo)
	s := &sink{}
	net.Node(ids[2]).SetHandler(s)

	src := net.Node(ids[0])
	dst := net.Node(ids[2]).Addr()
	// Burst of 20 packets arrives at R nearly simultaneously; R's slow
	// output link fits 1 in flight + 4 queued.
	for i := 0; i < 20; i++ {
		src.Originate(packet.NewData(src.Addr(), dst, flow.ProtoUDP, uint16(i), 80, 500))
	}
	eng.Run()
	if len(s.got) != 5 {
		t.Fatalf("delivered %d packets, want 5 (1 transmitting + 4 queued)", len(s.got))
	}
	r := net.Node(ids[1])
	drops := r.IfaceTo(dst).Stats().QueueDrops
	if drops != 15 {
		t.Fatalf("queue drops = %d, want 15", drops)
	}
}

func TestTTLExpiry(t *testing.T) {
	eng := sim.NewEngine(1)
	topo, ids := lineTopo(topology.Params{AccessDelay: time.Millisecond})
	net := MustBuild(eng, topo)
	s := &sink{}
	net.Node(ids[2]).SetHandler(s)

	src := net.Node(ids[0])
	p := packet.NewData(src.Addr(), net.Node(ids[2]).Addr(), flow.ProtoUDP, 1, 2, 10)
	p.TTL = 0 // dies at the router
	src.Originate(p)
	eng.Run()
	if len(s.got) != 0 {
		t.Fatal("TTL-0 packet was delivered")
	}
	if net.Node(ids[1]).RoutingDrops != 1 {
		t.Fatalf("router RoutingDrops = %d", net.Node(ids[1]).RoutingDrops)
	}
}

func TestIfaceStats(t *testing.T) {
	eng := sim.NewEngine(1)
	topo, ids := lineTopo(topology.Params{AccessDelay: time.Millisecond})
	net := MustBuild(eng, topo)
	src, r := net.Node(ids[0]), net.Node(ids[1])
	p := packet.NewData(src.Addr(), net.Node(ids[2]).Addr(), flow.ProtoUDP, 1, 2, 100)
	src.Originate(p)
	eng.Run()
	tx := src.IfaceTo(r.Addr()).Stats()
	if tx.TxPackets != 1 || tx.TxBytes != uint64(packet.HeaderBytes+100) {
		t.Fatalf("tx stats = %+v", tx)
	}
	rx := r.IfaceTo(src.Addr()).Stats()
	if rx.RxPackets != 1 || rx.RxBytes != tx.TxBytes {
		t.Fatalf("rx stats = %+v", rx)
	}
}

func TestDefaultHandlerAbsorbsOwnTraffic(t *testing.T) {
	eng := sim.NewEngine(1)
	topo, ids := lineTopo(topology.Params{AccessDelay: time.Millisecond})
	net := MustBuild(eng, topo)
	src := net.Node(ids[0])
	// No handler installed on B: default absorbs without error.
	src.Originate(packet.NewData(src.Addr(), net.Node(ids[2]).Addr(), flow.ProtoUDP, 1, 2, 10))
	eng.Run()
	if net.Node(ids[2]).RoutingDrops != 0 {
		t.Fatal("default handler should absorb own traffic silently")
	}
}

func TestOriginateNoRoute(t *testing.T) {
	eng := sim.NewEngine(1)
	topo, ids := lineTopo(topology.Params{AccessDelay: time.Millisecond})
	net := MustBuild(eng, topo)
	src := net.Node(ids[0])
	p := packet.NewData(src.Addr(), flow.MakeAddr(99, 9, 9, 9), flow.ProtoUDP, 1, 2, 10)
	if src.Originate(p) {
		t.Fatal("Originate to unknown destination succeeded")
	}
	if src.RoutingDrops != 1 {
		t.Fatalf("RoutingDrops = %d", src.RoutingDrops)
	}
}

func TestOriginateStampsSource(t *testing.T) {
	eng := sim.NewEngine(1)
	topo, ids := lineTopo(topology.Params{AccessDelay: time.Millisecond})
	net := MustBuild(eng, topo)
	s := &sink{}
	net.Node(ids[2]).SetHandler(s)
	src := net.Node(ids[0])
	p := packet.NewData(0, net.Node(ids[2]).Addr(), flow.ProtoUDP, 1, 2, 10)
	src.Originate(p)
	eng.Run()
	if len(s.got) != 1 || s.got[0].Src != src.Addr() {
		t.Fatal("source not stamped")
	}
}

func TestBuildRejectsInvalidTopology(t *testing.T) {
	topo := topology.New()
	topo.AddNode("a", flow.MakeAddr(1, 1, 1, 1), topology.KindHost, 1)
	topo.AddNode("b", flow.MakeAddr(2, 2, 2, 2), topology.KindHost, 2)
	if _, err := Build(sim.NewEngine(1), topo); err == nil {
		t.Fatal("Build accepted a disconnected topology")
	}
}

func TestFigure1EndToEnd(t *testing.T) {
	eng := sim.NewEngine(1)
	p := topology.DefaultParams()
	p.TailBandwidth = 0 // uncongested for this test
	topo, ids := topology.Figure1(p)
	net := MustBuild(eng, topo)
	s := &sink{}
	net.Node(ids.GHost).SetHandler(s)
	b := net.Node(ids.BHost)
	b.Originate(packet.NewData(b.Addr(), net.Node(ids.GHost).Addr(), flow.ProtoUDP, 1, 80, 1000))
	eng.Run()
	if len(s.got) != 1 {
		t.Fatalf("delivered %d", len(s.got))
	}
	// 2 access hops of 50ms + 5 backbone hops of 10ms = 150ms.
	if want := 150 * time.Millisecond; s.times[0] != want {
		t.Fatalf("B_host→G_host delay = %v, want %v", s.times[0], want)
	}
}

func TestNodeAccessors(t *testing.T) {
	eng := sim.NewEngine(1)
	topo, ids := topology.Figure1(topology.DefaultParams())
	net := MustBuild(eng, topo)
	n := net.Node(ids.GGw1)
	if n.Name() != "G_gw1" || n.Kind() != topology.KindBorderRouter || n.AS() != 1 {
		t.Fatalf("accessors: %s %v %d", n.Name(), n.Kind(), n.AS())
	}
	if net.NodeByAddr(n.Addr()) != n {
		t.Fatal("NodeByAddr mismatch")
	}
	if net.NodeByAddr(flow.MakeAddr(9, 9, 9, 9)) != nil {
		t.Fatal("NodeByAddr for unknown addr should be nil")
	}
	if len(net.Nodes()) != 8 {
		t.Fatal("Nodes() length wrong")
	}
	if net.Topology() != topo || net.Engine() != eng {
		t.Fatal("Topology/Engine accessors wrong")
	}
	if n.Net() != net {
		t.Fatal("Net accessor wrong")
	}
}

// forwardChain is the depth-5 chain with plain forwarding handlers and
// no bandwidth limit: every hop is Forward, Send, one arrival event.
func forwardChain() (eng *sim.Engine, src *Node, dst flow.Addr) {
	eng = sim.NewEngine(1)
	p := topology.DefaultParams()
	p.TailBandwidth = 0
	topo, ids := topology.Chain(5, p)
	net := MustBuild(eng, topo)
	return eng, net.Node(ids.Attacker), net.Node(ids.Victim).Addr()
}

func BenchmarkForwardThroughChain(b *testing.B) {
	eng, src, dst := forwardChain()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.Originate(packet.NewData(src.Addr(), dst, flow.ProtoUDP, 1, 80, 1000))
		// Pending counts busy links, and every packet sent before the
		// clock moves waits in the first link's FIFO: drain by sends.
		if i%4096 == 4095 {
			eng.Run()
		}
	}
	eng.Run()
}

// TestHopZeroAlloc pins the simulated hop's allocation budget: once the
// link FIFOs and the engine's free list are warm, originating a burst
// and carrying it across all eleven hops allocates nothing.
func TestHopZeroAlloc(t *testing.T) {
	eng, src, dst := forwardChain()
	// The default handler absorbs a packet at its destination without
	// releasing it, so the same packets go round again.
	burst := make([]*packet.Packet, 32)
	for k := range burst {
		burst[k] = packet.NewData(src.Addr(), dst, flow.ProtoUDP, 1, 80, 1000)
	}
	round := func() {
		for _, p := range burst {
			p.TTL = packet.DefaultTTL
			if !src.Originate(p) {
				t.Fatal("Originate failed")
			}
		}
		eng.Run()
	}
	round()
	before := eng.Processed
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("%v allocs per burst of %d packets at steady state, want 0", allocs, len(burst))
	}
	// AllocsPerRun calls round once to warm up, then 50 times.
	if hops := (eng.Processed - before) / uint64(51*len(burst)); hops != 11 {
		t.Fatalf("%d events per packet, want one per hop of the 11-link chain", hops)
	}
}

// TestPropertyConservation: across arbitrary bursts into a bottleneck,
// delivered + queue-dropped + in-queue equals offered — the network
// neither duplicates nor loses packets silently.
func TestPropertyConservation(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		eng := sim.NewEngine(seed)
		params := topology.Params{
			AccessDelay:   time.Millisecond,
			TailBandwidth: 50_000, // bottleneck
			QueueLen:      8,
		}
		topo, ids := lineTopo(params)
		net := MustBuild(eng, topo)
		s := &sink{}
		net.Node(ids[2]).SetHandler(s)
		src, r := net.Node(ids[0]), net.Node(ids[1])
		dst := net.Node(ids[2]).Addr()

		rng := eng.Rand()
		offered := 0
		for i := 0; i < 200; i++ {
			at := time.Duration(rng.Intn(1000)) * time.Millisecond
			eng.ScheduleAt(at, func() {
				src.Originate(packet.NewData(src.Addr(), dst, flow.ProtoUDP, 1, 2, 500))
				offered++
			})
		}
		eng.Run()

		dropped := r.IfaceTo(dst).Stats().QueueDrops
		delivered := uint64(len(s.got))
		if delivered+dropped != uint64(offered) {
			t.Fatalf("seed %d: delivered %d + dropped %d != offered %d",
				seed, delivered, dropped, offered)
		}
	}
}

// TestBandwidthCeiling: a saturated link delivers at its configured
// rate, not the offered rate.
func TestBandwidthCeiling(t *testing.T) {
	eng := sim.NewEngine(1)
	params := topology.Params{
		AccessDelay:   time.Millisecond,
		TailBandwidth: 100_000,
		QueueLen:      16,
	}
	topo, ids := lineTopo(params)
	net := MustBuild(eng, topo)
	s := &sink{}
	net.Node(ids[2]).SetHandler(s)
	src := net.Node(ids[0])
	dst := net.Node(ids[2]).Addr()

	// Offer 5x the capacity for 10 s.
	wireSize := 516.0
	interval := sim.Time(wireSize / 500_000 * 1e9)
	var tick func()
	tick = func() {
		if eng.Now() >= 10*time.Second {
			return
		}
		src.Originate(packet.NewData(src.Addr(), dst, flow.ProtoUDP, 1, 2, 500))
		eng.Schedule(interval, tick)
	}
	eng.ScheduleAt(0, tick)
	eng.Run()

	var deliveredBytes float64
	for _, p := range s.got {
		deliveredBytes += float64(p.WireSize())
	}
	rate := deliveredBytes / 10
	if rate < 90_000 || rate > 110_000 {
		t.Fatalf("delivered %v B/s through a 100 KB/s link", rate)
	}
}
