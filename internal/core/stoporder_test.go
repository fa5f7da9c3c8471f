package core

import (
	"math/rand"
	"testing"
	"time"

	"aitf/internal/endhost"
	"aitf/internal/flow"
	"aitf/internal/netsim"
	"aitf/internal/packet"
	"aitf/internal/sim"
	"aitf/internal/topology"
)

// TestBlockedByStopOrderMatchesBruteForce: a compliant host finds exact
// and pair stop orders by lookup and scans only the other shapes,
// dropping expired ones as it goes. Over random order sets — exact,
// pair, /N source and destination prefixes, wildcard endpoints, partial
// port and protocol wildcards, re-issued labels, orders already expired
// or expiring while the script runs — it must answer exactly what
// "some live order's label Matches the tuple" answers, and
// ActiveStopOrders must count the live ones.
func TestBlockedByStopOrderMatchesBruteForce(t *testing.T) {
	topo := topology.New()
	a := topo.AddNode("a", flow.MakeAddr(10, 0, 0, 1), topology.KindHost, 1)
	b := topo.AddNode("b", flow.MakeAddr(10, 0, 0, 2), topology.KindHost, 1)
	topo.AddLink(a, b, time.Millisecond, 0, 0)

	for trial := int64(0); trial < 50; trial++ {
		rng := rand.New(rand.NewSource(trial))
		eng := sim.NewEngine(trial)
		gw := flow.MakeAddr(10, 0, 0, 2)
		h := NewHost(DefaultHostConfig(gw))
		h.Attach(netsim.MustBuild(eng, topo).Node(a), nil)
		var out endhost.Out

		// A small address and port space, so orders and tuples overlap.
		addr := func() flow.Addr { return flow.MakeAddr(20, byte(rng.Intn(2)), byte(rng.Intn(3)), byte(rng.Intn(4))) }
		proto := func() flow.Proto { return []flow.Proto{flow.ProtoUDP, flow.ProtoTCP, flow.ProtoAny}[rng.Intn(3)] }
		port := func() uint16 { return uint16(rng.Intn(3)) }
		tuple := func() flow.Tuple { return flow.TupleOf(addr(), addr(), proto(), port(), port()) }
		// label builds an order of a random shape that covers t.
		label := func(t flow.Tuple) flow.Label {
			switch rng.Intn(7) {
			case 0:
				return t.ExactLabel()
			case 1, 2:
				return flow.PairLabel(t.Src, t.Dst)
			case 3:
				return flow.SrcPrefixLabel(t.Src, uint8(8+rng.Intn(25)), t.Dst)
			case 4:
				return dstPrefixLabel(t.Src, t.Dst, uint8(8+rng.Intn(25)))
			case 5:
				if rng.Intn(2) == 0 {
					return fromSource(t.Src)
				}
				return flow.ToDestination(t.Dst)
			default:
				l := t.ExactLabel()
				l.Wildcards = flow.Wild(rng.Intn(32)) // any of the five Wild bits
				return l
			}
		}

		ref := map[flow.Label]sim.Time{}
		var ordered []flow.Tuple // tuples some order was built to cover
		for step := 0; step < 200; step++ {
			if rng.Intn(3) == 0 {
				t := tuple()
				l := label(t)
				until := h.now() + sim.Time(rng.Intn(40)-10)*time.Millisecond
				h.eng.Control(h.now(), packet.NewControl(gw, h.node.Addr(), &packet.FilterReq{
					Stage: packet.StageToAttacker, Flow: l, Duration: until - h.now(), Txid: uint64(step + 1),
				}), &out)
				ref[l.Canonical()] = until
				ordered = append(ordered, t)
			}
			if rng.Intn(8) == 0 {
				eng.RunUntil(h.now() + sim.Time(rng.Intn(10))*time.Millisecond)
			}
			now := h.now()
			tup := tuple()
			if len(ordered) > 0 && rng.Intn(2) == 0 {
				tup = ordered[rng.Intn(len(ordered))]
			}
			want := false
			live := 0
			for l, until := range ref {
				if until > now {
					live++
					want = want || l.Matches(tup)
				}
			}
			if got := !h.eng.MaySend(now, tup); got != want {
				t.Fatalf("trial %d step %d: blocked(%+v) = %v, brute force %v", trial, step, tup, got, want)
			}
			if got := h.ActiveStopOrders(); got != live {
				t.Fatalf("trial %d step %d: ActiveStopOrders = %d, brute force %d", trial, step, got, live)
			}
		}
	}
}

// fromSource matches all traffic from src regardless of destination.
func fromSource(src flow.Addr) flow.Label {
	return flow.Label{Src: src, Wildcards: flow.WildDst | flow.WildProto | flow.WildSrcPort | flow.WildDstPort}
}

// dstPrefixLabel matches all traffic from src to the destination prefix
// dst/bits, any protocol and ports.
func dstPrefixLabel(src, dst flow.Addr, bits uint8) flow.Label {
	return flow.Label{Src: src, Dst: dst, DstPrefixLen: bits,
		Wildcards: flow.WildProto | flow.WildSrcPort | flow.WildDstPort}.Canonical()
}
