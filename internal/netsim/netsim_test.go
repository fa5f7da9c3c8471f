package netsim

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"

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
	t.AddLink(a, r, p.AccessDelay, 0, p.QueueLen)
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

// TestNextHopCacheMatchesRoutes drives NextHop's one-entry cache
// through hits, misses and thrashing: every (node, destination) pair of
// a random internet and of an army, plus the node itself and an unknown
// address, queried one to three times back to back in a seeded shuffled
// order. Every answer is the interface toward the neighbor Routes.Port
// names (nil toward the node itself and toward the unknown address),
// and the answers do not change while nodes are crashed and links are down, nor after.
func TestNextHopCacheMatchesRoutes(t *testing.T) {
	random, _ := topology.Random(topology.RandomSpec{ASes: 14, Tier1: 3, MaxHostsPerAS: 3, InternalRouterProb: 0.3,
		Params: topology.DefaultParams()}, rand.New(rand.NewSource(7)))
	army, _ := topology.ManyToOne(40, 3, topology.DefaultParams())
	for _, tc := range []struct {
		name string
		topo *topology.Topology
	}{{"random", random}, {"army", army}} {
		t.Run(tc.name, func(t *testing.T) {
			net := MustBuild(sim.NewEngine(1), tc.topo)
			routes := tc.topo.Routes()
			unknown := flow.MakeAddr(203, 0, 113, 9)
			type query struct {
				from *Node
				dst  flow.Addr
			}
			var queries []query
			want := map[query]*Iface{}
			for _, from := range net.nodes {
				queries = append(queries, query{from, unknown})
				want[query{from, unknown}] = nil
				for _, dst := range net.nodes {
					var hop *Iface
					if dst != from {
						hop = from.IfaceTo(tc.topo.Nodes[tc.topo.Neighbors(from.ID())[routes.Port(from.ID(), dst.ID())]].Addr)
					}
					queries = append(queries, query{from, dst.Addr()})
					want[query{from, dst.Addr()}] = hop
				}
			}
			rng := rand.New(rand.NewSource(11))
			pass := func(stage string) {
				t.Helper()
				rng.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })
				for _, q := range queries {
					for range 1 + rng.Intn(3) {
						if got := q.from.NextHop(q.dst); got != want[q] {
							t.Fatalf("%s: %s -> %s: NextHop leads to %s, want %s",
								stage, q.from.Name(), q.dst, neighborName(got), neighborName(want[q]))
						}
					}
				}
			}
			pass("fresh")
			for i, node := range net.nodes {
				if i%5 == 0 {
					node.Crash()
				}
			}
			for _, ls := range tc.topo.Links[:len(tc.topo.Links)/3] {
				net.SetLinkState(tc.topo.Nodes[ls.A].Addr, tc.topo.Nodes[ls.B].Addr, false)
			}
			pass("crashed and links down")
			for _, node := range net.nodes {
				node.Restart()
			}
			pass("restarted")
		})
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
	p.TailBandwidth = 0               // uncongested for this test
	topo, ids := topology.Chain(3, p) // the paper's Figure 1
	net := MustBuild(eng, topo)
	s := &sink{}
	net.Node(ids.Victim).SetHandler(s)
	b := net.Node(ids.Attacker)
	b.Originate(packet.NewData(b.Addr(), net.Node(ids.Victim).Addr(), flow.ProtoUDP, 1, 80, 1000))
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
	topo, ids := topology.Chain(3, topology.DefaultParams())
	net := MustBuild(eng, topo)
	n := net.Node(ids.VictimGW[0])
	if n.Name() != "v_gw1" || n.ID() != ids.VictimGW[0] || n.Addr() != topo.Nodes[n.ID()].Addr {
		t.Fatalf("accessors: %s %v %v", n.Name(), n.ID(), n.Addr())
	}
	if net.NodeByAddr(n.Addr()) != n {
		t.Fatal("NodeByAddr mismatch")
	}
	if net.NodeByAddr(flow.MakeAddr(9, 9, 9, 9)) != nil {
		t.Fatal("NodeByAddr for unknown addr should be nil")
	}
	if len(net.nodes) != 8 {
		t.Fatal("Build made the wrong number of nodes")
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

// neighborName names the node an interface leads to, or "nil".
func neighborName(i *Iface) string {
	if i == nil {
		return "nil"
	}
	return i.Neighbor().Name()
}

// BenchmarkNextHop times one next-hop lookup: toward one destination,
// as every hop of an army's attack traffic asks, and toward
// destinations rotating over every node of the army, so each lookup
// misses the node's last answer.
func BenchmarkNextHop(b *testing.B) {
	topo, ids := topology.ManyToOne(500, 0, topology.DefaultParams())
	net := MustBuild(sim.NewEngine(1), topo)
	core := net.Node(ids.Core)
	var dsts []flow.Addr
	for _, n := range net.nodes {
		if n != core {
			dsts = append(dsts, n.Addr())
		}
	}
	b.Run("one", func(b *testing.B) {
		victim := net.Node(ids.Victim).Addr()
		for range b.N {
			if core.NextHop(victim) == nil {
				b.Fatal("no route")
			}
		}
	})
	b.Run("rotating", func(b *testing.B) {
		for i := range b.N {
			if core.NextHop(dsts[i%len(dsts)]) == nil {
				b.Fatal("no route")
			}
		}
	})
}

// TestHopZeroAlloc pins the simulated hop's allocation budget: once the
// link FIFOs and the engine's event slab are warm, originating a burst
// and carrying it to its destination allocates nothing, across all
// eleven hops of a chain of tree nodes and across the four of an army's
// zombie → victim path, whose core router looks its next hop up as the
// root of the army's tree.
func TestHopZeroAlloc(t *testing.T) {
	eng, src, dst := forwardChain()
	hopZeroAlloc(t, eng, src, dst, 11)

	eng = sim.NewEngine(1)
	p := topology.DefaultParams()
	p.TailBandwidth = 0
	topo, ids := topology.ManyToOne(50, 2, p)
	net := MustBuild(eng, topo)
	hopZeroAlloc(t, eng, net.Node(ids.Attackers[49]), net.Node(ids.Victim).Addr(), 4)
}

// hopZeroAlloc carries bursts of 32 packets from src to dst, hops links
// apart, and fails unless a warm burst allocates nothing.
func hopZeroAlloc(t *testing.T, eng *sim.Engine, src *Node, dst flow.Addr, hops uint64) {
	t.Helper()
	// The destination hands each packet back to the burst instead of
	// releasing it, so the same packets go round again.
	burst := make([]*packet.Packet, 32)
	for k := range burst {
		burst[k] = packet.NewData(src.Addr(), dst, flow.ProtoUDP, 1, 80, 1000)
	}
	src.net.NodeByAddr(dst).SetHandler(HandlerFunc(func(_ *Node, p *packet.Packet, _ *Iface) {
		burst = append(burst, p)
	}))
	round := func() {
		for _, p := range burst {
			p.TTL = packet.DefaultTTL
			if !src.Originate(p) {
				t.Fatal("Originate failed")
			}
		}
		burst = burst[:0]
		eng.Run()
		if len(burst) != cap(burst) {
			t.Fatalf("%d of %d packets came back", len(burst), cap(burst))
		}
	}
	round()
	before := eng.Processed
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("%v allocs per burst of %d packets at steady state, want 0", allocs, len(burst))
	}
	// AllocsPerRun calls round once to warm up, then 50 times.
	if got := (eng.Processed - before) / uint64(51*len(burst)); got != hops {
		t.Fatalf("%d events per packet, want one per hop of %d", got, hops)
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

// TestFlightSize pins a link's per-packet in-flight record at 24 bytes
// and a pointer, 32 on a 64-bit word: the link rings hold one per
// packet on the wire.
func TestFlightSize(t *testing.T) {
	if n, want := unsafe.Sizeof(flight{}), 24+unsafe.Sizeof(uintptr(0)); n != want {
		t.Fatalf("flight is %d bytes, want %d", n, want)
	}
}

// TestIfaceSize pins a link end at 208 bytes on a 64-bit word, a Go
// size class of its own (it was 272, in the 288-byte class): a zombie's
// two links have four. Its fault state sits behind a pointer, its
// owner's last crash time on the node, and its two drop totals are
// sums of their per-class splits.
func TestIfaceSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size is pinned for a 64-bit word")
	}
	if n := unsafe.Sizeof(Iface{}); n != 208 {
		t.Fatalf("Iface is %d bytes, want 208", n)
	}
}
