package pushback

import (
	"testing"
	"time"

	"aitf/internal/flow"
	"aitf/internal/netsim"
	"aitf/internal/packet"
	"aitf/internal/sim"
	"aitf/internal/topology"
)

// tailBps is the default tail-circuit bandwidth of the topologies
// (10 Mbit/s); floods run at multiples of it to force congestion.
const tailBps = 1.25e6

// deploy builds a Chain(depth) topology with pushback routers on every
// border router and plain hosts at the ends.
func deploy(t *testing.T, depth int, cfg Config) (*sim.Engine, *netsim.Network, topology.ChainNodes, []*Router) {
	t.Helper()
	eng := sim.NewEngine(1)
	params := topology.DefaultParams()
	topo, ids := topology.Chain(depth, params)
	net := netsim.MustBuild(eng, topo)
	var routers []*Router
	for _, id := range append(append([]topology.NodeID{}, ids.VictimGW...), ids.AttackGW...) {
		r := NewRouter(cfg)
		r.Attach(net.Node(id))
		routers = append(routers, r)
	}
	return eng, net, ids, routers
}

type meterHandler struct {
	bytes uint64
	last  sim.Time
}

func (m *meterHandler) Receive(n *netsim.Node, p *packet.Packet, _ *netsim.Iface) {
	if p.Dst == n.Addr() && !p.IsControl() {
		m.bytes += uint64(p.PayloadLen)
		m.last = n.Engine().Now()
	}
}

func flood(eng *sim.Engine, from *netsim.Node, to flow.Addr, rate float64, pktSize int, until sim.Time) {
	interval := sim.Time(float64(pktSize) / rate * 1e9)
	var tick func()
	tick = func() {
		if eng.Now() >= until {
			return
		}
		from.Originate(packet.NewData(from.Addr(), to, flow.ProtoUDP, 40, 80, pktSize))
		eng.Schedule(interval, tick)
	}
	eng.ScheduleAt(0, tick)
}

func TestLocalRateLimitEngages(t *testing.T) {
	cfg := DefaultConfig()
	eng, net, ids, routers := deploy(t, 1, cfg)
	vm := &meterHandler{}
	net.Node(ids.Victim).SetHandler(vm)

	// 4x the congestion threshold.
	flood(eng, net.Node(ids.Attacker), net.Node(ids.Victim).Addr(), 4*tailBps, 1000, sim.Time(10*time.Second))
	eng.RunUntil(sim.Time(10 * time.Second))

	vgw := routers[0]
	if !vgw.Limited(net.Node(ids.Victim).Addr()) {
		t.Fatal("victim-side router never rate-limited the aggregate")
	}
	if vgw.Stats().LimitDrops == 0 {
		t.Fatal("rate limit installed but nothing dropped")
	}
	// Delivered rate must approach the limit, not the offered rate.
	got := float64(vm.bytes) / 10
	if got > cfg.LimitBps*1.6 {
		t.Fatalf("delivered %v B/s, want ≲ limit %v", got, cfg.LimitBps)
	}
}

func TestPushbackPropagatesUpstream(t *testing.T) {
	cfg := DefaultConfig()
	eng, net, ids, routers := deploy(t, 3, cfg)
	net.Node(ids.Victim).SetHandler(&meterHandler{})

	flood(eng, net.Node(ids.Attacker), net.Node(ids.Victim).Addr(), 4*tailBps, 1000, sim.Time(30*time.Second))
	eng.RunUntil(sim.Time(30 * time.Second))

	limited := 0
	var requests uint64
	for _, r := range routers {
		if r.Limited(net.Node(ids.Victim).Addr()) {
			limited++
		}
		requests += r.Stats().RequestsSent
	}
	if limited < 2 {
		t.Fatalf("pushback recruited %d routers, want ≥ 2 (hop-by-hop)", limited)
	}
	if requests == 0 {
		t.Fatal("no pushback requests sent")
	}
}

func TestPushbackIsSlowerThanOneRound(t *testing.T) {
	// The first remote rate limit cannot appear before PropagateAfter:
	// the defining latency disadvantage vs AITF's single round (§V).
	cfg := DefaultConfig()
	eng, net, ids, routers := deploy(t, 3, cfg)
	net.Node(ids.Victim).SetHandler(&meterHandler{})

	var firstRemote sim.Time
	for i, r := range routers {
		i := i
		r.OnInstall = func(string, flow.Label, int) {
			if i > 0 && firstRemote == 0 {
				firstRemote = eng.Now()
			}
		}
	}
	flood(eng, net.Node(ids.Attacker), net.Node(ids.Victim).Addr(), 4*tailBps, 1000, sim.Time(30*time.Second))
	eng.RunUntil(sim.Time(30 * time.Second))

	if firstRemote == 0 {
		t.Fatal("pushback never reached a second router")
	}
	if firstRemote < sim.Time(cfg.PropagateAfter) {
		t.Fatalf("remote limit at %v, before PropagateAfter %v", firstRemote, cfg.PropagateAfter)
	}
}

func TestCollateralDamageToLegitTraffic(t *testing.T) {
	// Pushback rate-limits the whole aggregate toward the victim, so
	// legitimate traffic inside the aggregate is squeezed too.
	cfg := DefaultConfig()
	eng := sim.NewEngine(1)
	params := topology.DefaultParams()
	topo, ids := topology.ManyToOne(1, 1, params)
	net := netsim.MustBuild(eng, topo)
	r := NewRouter(cfg)
	r.Attach(net.Node(ids.VictimGW))
	vm := &meterHandler{}
	net.Node(ids.Victim).SetHandler(vm)

	victimAddr := net.Node(ids.Victim).Addr()
	flood(eng, net.Node(ids.Attackers[0]), victimAddr, 4*tailBps, 1000, sim.Time(20*time.Second))

	legitBytes := uint64(0)
	legit := net.Node(ids.Legit[0])
	legitTick := func() {}
	legitTick = func() {
		if eng.Now() >= sim.Time(20*time.Second) {
			return
		}
		legit.Originate(packet.NewData(legit.Addr(), victimAddr, flow.ProtoTCP, 99, 80, 1000))
		legitBytes += 1000
		eng.Schedule(20*time.Millisecond, legitTick)
	}
	eng.ScheduleAt(0, legitTick)
	eng.RunUntil(sim.Time(20 * time.Second))

	if !r.Limited(victimAddr) {
		t.Fatal("aggregate never limited")
	}
	if r.Stats().LimitDrops == 0 {
		t.Fatal("no drops recorded")
	}
	// The limiter cannot distinguish legit from attack: delivered bytes
	// are far below offered attack+legit, proving collateral exists.
	offered := uint64(4*tailBps*20) + legitBytes
	if vm.bytes*2 > offered {
		t.Fatalf("limiter ineffective: delivered %d of %d", vm.bytes, offered)
	}
}

// TestPushbackMaxDepthBounded: recursion must stop at MaxDepth even on
// a chain long enough to recruit more routers — the edge the random
// scenario generator's deep provider trees hit.
func TestPushbackMaxDepthBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxDepth = 2
	eng, net, ids, routers := deploy(t, 6, cfg)
	net.Node(ids.Victim).SetHandler(&meterHandler{})

	maxDepth := 0
	for _, r := range routers {
		r.OnInstall = func(_ string, _ flow.Label, depth int) {
			if depth > maxDepth {
				maxDepth = depth
			}
		}
	}
	flood(eng, net.Node(ids.Attacker), net.Node(ids.Victim).Addr(), 4*tailBps, 1000, sim.Time(40*time.Second))
	eng.RunUntil(sim.Time(40 * time.Second))

	limited := 0
	for _, r := range routers {
		if r.Limited(net.Node(ids.Victim).Addr()) {
			limited++
		}
	}
	if limited < 2 {
		t.Fatalf("pushback recruited only %d routers; propagation never engaged", limited)
	}
	if limited > cfg.MaxDepth+1 {
		t.Fatalf("pushback recruited %d routers, MaxDepth %d allows at most %d",
			limited, cfg.MaxDepth, cfg.MaxDepth+1)
	}
	if maxDepth > cfg.MaxDepth {
		t.Fatalf("a limit was installed at depth %d > MaxDepth %d", maxDepth, cfg.MaxDepth)
	}
}

// TestPushbackIdleAggregateGoesCold: an aggregate that stops entirely
// must drop out of the hot set at the next evaluation instead of
// propagating stale requests (the zero-packet window edge case).
func TestPushbackIdleAggregateGoesCold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PropagateAfter = 20 * time.Second // long enough to never trigger here
	eng, net, ids, routers := deploy(t, 2, cfg)
	net.Node(ids.Victim).SetHandler(&meterHandler{})

	// Congest for 3 s, then go silent.
	flood(eng, net.Node(ids.Attacker), net.Node(ids.Victim).Addr(), 4*tailBps, 1000, sim.Time(3*time.Second))
	// A single late packet forces one more window evaluation after the
	// silence.
	eng.ScheduleAt(sim.Time(8*time.Second), func() {
		net.Node(ids.Attacker).Originate(packet.NewData(
			net.Node(ids.Attacker).Addr(), net.Node(ids.Victim).Addr(), flow.ProtoUDP, 40, 80, 100))
	})
	eng.RunUntil(sim.Time(12 * time.Second))

	var requests uint64
	for _, r := range routers {
		requests += r.Stats().RequestsSent
	}
	if requests != 0 {
		t.Fatalf("%d pushback requests sent although the aggregate went cold before PropagateAfter", requests)
	}
}

func TestLimitExpires(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 2 * time.Second
	eng, net, ids, routers := deploy(t, 1, cfg)
	net.Node(ids.Victim).SetHandler(&meterHandler{})

	flood(eng, net.Node(ids.Attacker), net.Node(ids.Victim).Addr(), 4*tailBps, 1000, sim.Time(3*time.Second))
	eng.RunUntil(sim.Time(2 * time.Second))
	if !routers[0].Limited(net.Node(ids.Victim).Addr()) {
		t.Fatal("limit never installed")
	}
	// Attack stops; after Duration the limit must lapse.
	eng.RunUntil(sim.Time(10 * time.Second))
	if routers[0].Limited(net.Node(ids.Victim).Addr()) {
		t.Fatal("limit did not expire")
	}
}

func TestRoundTripPushbackMessage(t *testing.T) {
	m := &packet.PushbackReq{
		Aggregate: flow.ToDestination(flow.MakeAddr(10, 0, 0, 2)),
		LimitBps:  625000,
		Depth:     3,
		Duration:  time.Minute,
	}
	p := packet.NewControl(flow.MakeAddr(1, 1, 1, 1), flow.MakeAddr(2, 2, 2, 2), m)
	b, err := packet.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	got := packet.Get()
	if err := packet.UnmarshalInto(got, b); err != nil {
		t.Fatal(err)
	}
	gm, ok := got.Msg.(*packet.PushbackReq)
	if !ok {
		t.Fatalf("decoded %T", got.Msg)
	}
	if *gm != *m {
		t.Fatalf("mismatch: %+v vs %+v", gm, m)
	}
}
