package main

import (
	"fmt"
	"math/rand"
	"time"

	"aitf/internal/contract"
	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/packet"
	"aitf/internal/wire"
)

// The filter_round workload runs the §II-C round over four real UDP
// nodes on loopback: the benchmark's attacker node — a_gw — v_gw —
// victim host. One data datagram from a fresh spoofed client address
// makes the victim detect, request, and the two gateways filter; the
// round ends when the stop order naming that flow reaches the attacker.
const (
	roundsInFlight = 16
	// roundsPerSeg rounds are timed together as one segment of a trial;
	// sizes.rounds is a multiple of it.
	roundsPerSeg = 500
	// sendsPerRound is the datagrams one round puts on the wire: the data
	// datagram over three hops, then request, relay, query and reply over
	// two hops each, and the stop order.
	sendsPerRound = 10
	dataPerRound  = 3
)

var (
	victimAddr   = flow.MakeAddr(10, 0, 0, 2)
	vgwAddr      = flow.MakeAddr(10, 0, 0, 1)
	agwAddr      = flow.MakeAddr(10, 9, 0, 1)
	attackerAddr = flow.MakeAddr(10, 9, 0, 2)

	// unlimited is a contract whose policers never refuse: the workload
	// measures the protocol path, not the R1/R2 rate limits.
	unlimited = contract.Contract{R1: 1e9, R1Burst: 1e9, R2: 1e9, R2Burst: 1e9}
)

// stopOrder is one round's completion as the attacker node saw it.
type stopOrder struct {
	round int
	at    time.Time
}

// roundRig is the four-node chain, built fresh for every trial so each
// starts from empty filter tables.
type roundRig struct {
	attacker *wire.Node
	agw, vgw *wire.Gateway
	victim   *wire.Host
	// base is the first spoofed client address; round i attacks from
	// base+i, so the attacker node maps a stop order back to its round
	// without a lookup table.
	base   flow.Addr
	rounds int
	// stops carries completions from the attacker node's receive loop to
	// the generator; at most roundsInFlight are ever outstanding.
	stops chan stopOrder
	// quit releases the attacker's receive loop from a blocked report
	// once the generator has stopped listening.
	quit chan struct{}
}

// Handle implements wire.Handler for the attacker node: it owns the
// decoded packet and reports stop orders to the generator.
func (r *roundRig) Handle(_ *wire.Node, p *packet.Packet, _ flow.Addr) {
	defer p.Release()
	m, ok := p.Msg.(*packet.FilterReq)
	if !ok || m.Stage != packet.StageToAttacker {
		return
	}
	if i := int(m.Flow.Src - r.base); i >= 0 && i < r.rounds {
		select {
		case r.stops <- stopOrder{round: i, at: time.Now()}:
		case <-r.quit:
		}
	}
}

func newRoundRig(seed int64, rounds int, trace *obs.Trace) (*roundRig, error) {
	rng := rand.New(rand.NewSource(seed))
	r := &roundRig{
		base:   flow.MakeAddr(50, 0, 0, 0) + flow.Addr(1+rng.Intn(1<<20)),
		rounds: rounds,
		stops:  make(chan stopOrder, roundsInFlight),
		quit:   make(chan struct{}),
	}
	timers := contract.Timers{T: 60 * time.Second, Ttmp: 30 * time.Second,
		Grace: 250 * time.Millisecond, Penalty: time.Minute}
	gateway := func(addr flow.Addr, name string, hops map[flow.Addr]flow.Addr) (*wire.Gateway, error) {
		return wire.NewGateway(wire.GatewayConfig{
			Node:           wire.NodeConfig{Addr: addr, Name: name, NextHop: hops},
			Timers:         timers,
			FilterCapacity: rounds + 1024,
			ShadowCapacity: rounds + 1024,
			Clients:        map[flow.Addr]contract.Contract{victimAddr: unlimited},
			Default:        unlimited,
			Secret:         []byte("benchmark-" + name),
			// Well past opDeadline, so a host stall shows as a late round
			// and not as a failed handshake.
			HandshakeTimeout: 10 * time.Second,
			DataplaneShards:  2,
			Trace:            trace,
		})
	}
	// a_gw routes every spoofed client address back to the attacker node,
	// which is where its stop orders go.
	agwHops := make(map[flow.Addr]flow.Addr, rounds+2)
	agwHops[victimAddr], agwHops[vgwAddr] = vgwAddr, vgwAddr
	for i := 0; i < rounds; i++ {
		agwHops[r.base+flow.Addr(i)] = attackerAddr
	}
	var err error
	fail := func(err error) (*roundRig, error) {
		r.close()
		return nil, err
	}
	if r.agw, err = gateway(agwAddr, "a_gw", agwHops); err != nil {
		return fail(err)
	}
	if r.vgw, err = gateway(vgwAddr, "v_gw", map[flow.Addr]flow.Addr{victimAddr: victimAddr, agwAddr: agwAddr}); err != nil {
		return fail(err)
	}
	if r.victim, err = wire.NewHost(wire.HostConfig{
		Node: wire.NodeConfig{Addr: victimAddr, Name: "victim",
			NextHop: map[flow.Addr]flow.Addr{vgwAddr: vgwAddr, agwAddr: vgwAddr}},
		Gateway:   vgwAddr,
		Timers:    timers,
		DetectBps: 1, // the first datagram of any source is an attack
		Trace:     trace,
	}); err != nil {
		return fail(err)
	}
	if r.attacker, err = wire.NewNode(wire.NodeConfig{Addr: attackerAddr, Name: "attacker"}); err != nil {
		return fail(err)
	}
	r.attacker.SetHandler(r)
	book := wire.Book{
		victimAddr:   r.victim.Node().UDPAddr().String(),
		vgwAddr:      r.vgw.Node().UDPAddr().String(),
		agwAddr:      r.agw.Node().UDPAddr().String(),
		attackerAddr: r.attacker.UDPAddr().String(),
	}
	for _, n := range []*wire.Node{r.victim.Node(), r.vgw.Node(), r.agw.Node(), r.attacker} {
		n.SetBook(book)
	}
	r.victim.Run()
	r.vgw.Run()
	r.agw.Run()
	r.attacker.Run()
	return r, nil
}

func (r *roundRig) close() {
	close(r.quit)
	if r.attacker != nil {
		r.attacker.Close()
	}
	if r.agw != nil {
		r.agw.Close()
	}
	if r.vgw != nil {
		r.vgw.Close()
	}
	if r.victim != nil {
		r.victim.Close()
	}
}

// roundTimes records, per round, when its data datagram was sent and
// when its stop order arrived (zero while outstanding).
type roundTimes struct{ sent, stopped []time.Time }

// run plays rounds [from, to) with roundsInFlight outstanding and
// returns how many completed and how many missed opDeadline. Times are
// recorded into rt when non-nil, latencies into lat when non-nil.
func (r *roundRig) run(from, to int, lat *latencies, rt *roundTimes) (done, failed int, err error) {
	sentAt := make([]time.Time, to-from)
	var inflight []int
	timer := time.NewTimer(opDeadline)
	defer timer.Stop()
	next := from
	for done+failed < to-from {
		for len(inflight) < roundsInFlight && next < to {
			p := packet.NewData(r.base+flow.Addr(next), victimAddr, flow.ProtoUDP, 4000, 80, 1000)
			sentAt[next-from] = time.Now()
			err := r.attacker.SendTo(agwAddr, p)
			p.Release()
			if err != nil {
				return done, failed, fmt.Errorf("attacker send: %w", err)
			}
			inflight = append(inflight, next)
			next++
		}
		timer.Reset(opDeadline)
		select {
		case s := <-r.stops:
			for k, i := range inflight {
				if i != s.round {
					continue // a round already written off: its late stop order is ignored
				}
				inflight = append(inflight[:k], inflight[k+1:]...)
				done++
				if lat != nil {
					lat.add(s.at.Sub(sentAt[i-from]))
				}
				if rt != nil {
					rt.sent[i], rt.stopped[i] = sentAt[i-from], s.at
				}
				break
			}
		case now := <-timer.C:
			kept := inflight[:0]
			for _, i := range inflight {
				if now.Sub(sentAt[i-from]) >= opDeadline {
					failed++
				} else {
					kept = append(kept, i)
				}
			}
			inflight = kept
		}
	}
	return done, failed, nil
}

// nodes lists the rig's four transports.
func (r *roundRig) nodes() []*wire.Node {
	return []*wire.Node{r.attacker, r.agw.Node(), r.vgw.Node(), r.victim.Node()}
}

// check verifies the protocol's end state: with no round lost, both
// gateways hold exactly one filter per round, nothing was policed,
// retransmitted or failed its handshake.
func (r *roundRig) check(done, failed int) error {
	for _, g := range []*wire.Gateway{r.agw, r.vgw} {
		st := g.Stats()
		if failed == 0 && g.Filters().Len() != done {
			return fmt.Errorf("round: %s holds %d filters after %d rounds", g.Node().Name(), g.Filters().Len(), done)
		}
		if st.ReqPoliced != 0 || st.CtrlRetransmits != 0 || st.HandshakesFailed != 0 || st.ReqInvalid != 0 {
			return fmt.Errorf("round: %s policed %d, retransmitted %d, failed %d handshakes, rejected %d requests",
				g.Node().Name(), st.ReqPoliced, st.CtrlRetransmits, st.HandshakesFailed, st.ReqInvalid)
		}
	}
	return nil
}
