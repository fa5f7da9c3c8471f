package main

import (
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"time"

	"aitf/internal/alloc"
	"aitf/internal/cluster"
	"aitf/internal/dataplane"
	"aitf/internal/detect"
	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/netsim"
	"aitf/internal/obs"
	"aitf/internal/packet"
	"aitf/internal/sim"
	"aitf/internal/topology"
	"aitf/internal/traceback"
	"aitf/internal/wire"
)

// The traced run. Every workload alternates untraced and traced trials
// (the ratio of their throughputs is bench.trace_overhead), and on the
// first traced trial times each layer the workload enters in isolation:
// one stage per layer, one span per batch of calls into it.

const stagePer = 1024 // operations per stage span; syscall stages use burstLen

func (r *report) set(name string, v float64) { r.Metrics[name] = Value{Value: v} }

// tracePairs alternates untraced and traced trials for half of
// cfg.seconds. trial plays one; first is true on the first traced trial,
// the one that also runs the layer stages that need running once. The
// untraced trials' values go into the report: end-to-end numbers never
// come from a traced trial. What only traced trials measure (the stages
// they repeat) goes in too.
func tracePairs(cfg runConfig, rep *report, trial func(ts *trialSet, sp *spans, first bool) (time.Duration, error)) error {
	un, tr := newTrialSet(), newTrialSet()
	pairs := cfg
	pairs.sz.minTrials, pairs.seconds = 1, cfg.seconds/2
	first := true
	err := trials(pairs, func() (time.Duration, error) {
		d1, err := trial(un, nil, false)
		if err != nil {
			return 0, err
		}
		d2, err := trial(tr, cfg.spans, first)
		first = false
		return d1 + d2, err
	})
	tr.into(rep.Metrics)
	un.into(rep.Metrics)
	rep.set("bench.trace_overhead", tr.value("ops_per_s")/un.value("ops_per_s"))
	return err
}

// drain reads n datagrams a stage just caused to be written to conn.
func drain(conn *net.UDPConn, n int, buf []byte) error {
	if err := conn.SetReadDeadline(time.Now().Add(opDeadline)); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if _, err := conn.Read(buf); err != nil {
			return fmt.Errorf("stage drain: %w", err)
		}
	}
	return nil
}

// stageUDPFloor times one raw write plus read of the same datagram on a
// loopback socket pair: the kernel's share of any hop.
func stageUDPFloor(sp *spans, ts *trialSet, batches int, d []byte) error {
	rx, err := listenLoopback()
	if err != nil {
		return err
	}
	defer rx.Close()
	tx, err := net.DialUDP("udp", nil, rx.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return err
	}
	defer tx.Close()
	buf := make([]byte, 2048)
	var ioErr error
	ts.addStage("wire.udp_floor_ns", sp.batches("wire.udp_floor", batches, stagePer, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if _, err := tx.Write(d); err != nil {
				ioErr = err
			}
			if _, err := rx.Read(buf); err != nil {
				ioErr = err
			}
		}
	}, nil))
	return ioErr
}

// stageSendTo times Node.SendTo (resolve, marshal, socket write) of p
// from a node of its own to a sink drained between batches.
func stageSendTo(sp *spans, ts *trialSet, batches int, p *packet.Packet) error {
	sink, err := listenLoopback()
	if err != nil {
		return err
	}
	defer sink.Close()
	node, err := wire.NewNode(wire.NodeConfig{Addr: gwAddr, Name: "stage",
		Book: wire.Book{sinkAddr: sink.LocalAddr().String()}})
	if err != nil {
		return err
	}
	defer node.Close()
	buf := make([]byte, 2048)
	var ioErr error
	ts.addStage("wire.sendto_ns", sp.batches("wire.sendto", batches, burstLen, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := node.SendTo(sinkAddr, p); err != nil {
				ioErr = err
			}
		}
	}, func() {
		if err := drain(sink, burstLen, buf); err != nil {
			ioErr = err
		}
	}))
	return ioErr
}

// stageRelayFloor runs the burst loop through a goroutine that only
// reads a datagram and writes it on: what the chain costs with no
// gateway in it, measured the way fwdTrial measures throughput: one
// warm-up pass over the ring, then one whose segments are pooled.
func stageRelayFloor(ts *trialSet, ring []dgram) error {
	sink, err := listenLoopback()
	if err != nil {
		return err
	}
	defer sink.Close()
	in, err := listenLoopback()
	if err != nil {
		return err
	}
	out, err := net.DialUDP("udp", nil, sink.LocalAddr().(*net.UDPAddr))
	if err != nil {
		in.Close()
		return err
	}
	relayed := make(chan struct{})
	go func() {
		defer close(relayed)
		buf := make([]byte, 2048)
		for {
			n, err := in.Read(buf)
			if err != nil {
				return // socket closed
			}
			if _, err := out.Write(buf[:n]); err != nil {
				return
			}
		}
	}()
	stop := func() {
		in.Close()
		<-relayed
		out.Close()
	}
	lb, err := newLoopback(in.LocalAddr().(*net.UDPAddr), sink, 0)
	if err != nil {
		stop()
		return err
	}
	defer lb.close()
	defer stop()
	if _, err := lb.bursts(ring, true); err != nil { // warm-up
		return err
	}
	total, err := lb.pass(ring, true, ts, "wire.relay_floor_pps")
	if err != nil {
		return err
	}
	if lb.timedOut > 0 {
		return fmt.Errorf("relay floor: %d datagrams lost", lb.timedOut)
	}
	ts.add("wire.relay_floor_pps", "1/s", float64(len(ring))/total.Seconds(), len(ring))
	return nil
}

// stageNonce times the route-record authenticator over the pairs of ds.
func stageNonce(sp *spans, rep *report, batches int, addr flow.Addr, secret string, ds []dgram) *traceback.Recorder {
	rec := traceback.NewRecorder(addr, []byte(secret))
	nonce := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t := ds[i%len(ds)].tuple
			rec.Nonce(flow.Tuple{Src: t.Src, Dst: t.Dst})
		}
	}
	rep.set("traceback.nonce_ns", sp.stage("traceback.nonce", batches, stagePer, nonce))
	rep.set("traceback.nonce_allocs", allocsPerOp(stagePer, func() { nonce(0, stagePer) }))
	return rec
}

// stageCodec times decode of the datagrams in rx and encode of the
// packets in tx, and counts the allocations of one of each.
func stageCodec(sp *spans, rep *report, batches int, rx [][]byte, tx []packet.Packet) {
	var scratch packet.Packet
	buf := make([]byte, 0, 2048)
	// Decode and encode errors cannot occur: both sides replay datagrams
	// this package marshalled itself.
	unmarshal := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			_ = packet.UnmarshalInto(&scratch, rx[i%len(rx)])
		}
	}
	marshal := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			buf, _ = packet.AppendMarshal(buf[:0], &tx[i%len(tx)])
		}
	}
	rep.set("packet.unmarshal_ns", sp.stage("packet.unmarshal", batches, stagePer, unmarshal))
	rep.set("packet.marshal_ns", sp.stage("packet.marshal", batches, stagePer, marshal))
	rep.set("packet.allocs_per_op", allocsPerOp(stagePer, func() { unmarshal(0, stagePer); marshal(0, stagePer) }))
}

func traceFwd(spec fwdSpec, cfg runConfig, rep *report) error {
	traffic := newFwdTraffic(cfg.seed, spec, cfg.sz.ringBursts)
	lat := newLatencies(probesPerWindow)
	err := tracePairs(cfg, rep, func(ts *trialSet, sp *spans, first bool) (time.Duration, error) {
		var inspect func(*fwdRig) error
		if sp != nil {
			inspect = func(rig *fwdRig) error {
				if err := fwdSocketStages(cfg, rig, ts, sp); err != nil || !first {
					return err
				}
				return fwdStages(cfg, rig, rep, sp)
			}
		}
		return fwdTrial(cfg, traffic, lat, ts, rep, sp, inspect)
	})
	m := func(name string) float64 { return rep.Metrics[name].Value }
	share := 1 - float64(spec.attackPerBurst)/burstLen // of datagrams that reach the send half
	rep.set("wire.handle_self_ns", m("wire.handle_data_ns")-m("dataplane.classify_ns")-
		share*(m("detect.observe_ns")+m("traceback.nonce_ns")+m("wire.sendto_ns")))
	rep.set("wire.user_share", 1-m("ops_per_s")/m("wire.relay_floor_pps"))
	return err
}

// fwdSocketStages times the layers of the data path that make a socket
// call, on the live rig of a traced trial. Every traced trial runs them
// and the run pools their batches (see addStage).
func fwdSocketStages(cfg runConfig, rig *fwdRig, ts *trialSet, sp *spans) error {
	t, n := rig.traffic, cfg.sz.stageBatches
	var sent packet.Packet // a legit datagram as the gateway sends it on
	if err := packet.UnmarshalInto(&sent, t.legit[0].wire); err != nil {
		return err
	}
	sent.RecordRoute(gwAddr, 1)
	if err := stageSendTo(sp, ts, n, &sent); err != nil {
		return err
	}
	if err := stageUDPFloor(sp, ts, n/4, t.legit[0].wire); err != nil {
		return err
	}
	if err := stageRelayFloor(ts, t.ring); err != nil {
		return err
	}

	// Gateway.Handle, called directly as the read loop would call it:
	// one burst decoded into pooled packets (untimed), handled (timed),
	// and what it delivered drained from the sink (untimed).
	buf := make([]byte, 2048)
	var burst [burstLen]*packet.Packet
	pos, delivered := 0, 0
	var handleErr error
	decode := func() {
		delivered = 0
		for k := range burst {
			d := t.ring[pos%len(t.ring)]
			pos++
			burst[k] = packet.Get()
			if err := packet.UnmarshalInto(burst[k], d.wire); err != nil {
				handleErr = err
			}
			if !d.attack {
				delivered++
			}
		}
	}
	decode()
	ts.addStage("wire.handle_data_ns", sp.batches("wire.handle_data", n, burstLen, func(int, int) {
		for _, p := range burst {
			rig.gw.Handle(rig.gw.Node(), p, upstreamAddr)
		}
	}, func() {
		if err := drain(rig.sink, delivered, buf); err != nil {
			handleErr = err
		}
		decode()
	}))
	for _, p := range burst {
		p.Release() // the batch decoded after the last one handled
	}
	return handleErr
}

// fwdStages replays the workload's datagrams through each layer of the
// gateway's data path that stays in user space, on the live rig of the
// first traced trial.
func fwdStages(cfg runConfig, rig *fwdRig, rep *report, sp *spans) error {
	t, n := rig.traffic, cfg.sz.stageBatches
	ring, legit := t.ring, t.legit
	dp := rig.gw.DataPlane()

	// As received: the ring. As sent: legit datagrams with the gateway's
	// own route-record entry appended.
	rx := make([][]byte, len(ring))
	for i, d := range ring {
		rx[i] = d.wire
	}
	tx := make([]packet.Packet, 256)
	for i := range tx {
		if err := packet.UnmarshalInto(&tx[i], legit[i%len(legit)].wire); err != nil {
			return err
		}
		tx[i].RecordRoute(gwAddr, uint64(i))
	}
	stageCodec(sp, rep, n, rx, tx)

	drops := 0
	rep.set("dataplane.classify_ns", sp.stage("dataplane.classify", n, stagePer, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if dp.ClassifyTuple(ring[i%len(ring)].tuple, 1000).Drop {
				drops++
			}
		}
	}))
	rep.set("dataplane.hit_ratio", float64(drops)/float64(n*stagePer))

	pkts := make([]*packet.Packet, len(ring))
	for i, d := range ring {
		pkts[i] = packet.Get()
		if err := packet.UnmarshalInto(pkts[i], d.wire); err != nil {
			return err
		}
	}
	verdicts := make([]dataplane.Verdict, 0, 64)
	rep.set("dataplane.classify_batch_ns", sp.stage("dataplane.classify_batch", n, stagePer, func(lo, hi int) {
		for i := lo; i < hi; i += 64 {
			k := i % len(pkts)
			verdicts = dp.ClassifyInto(pkts[k:k+64], verdicts[:0])
		}
	}))
	for _, p := range pkts {
		p.Release()
	}

	if det := rig.gw.Detector(); det != nil {
		rep.set("detect.observe_ns", sp.stage("detect.observe", n, stagePer, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				det.ObserveTuple(dp.Now(), legit[i%len(legit)].tuple, 1000)
			}
		}))
		rep.set("detect.detections", float64(det.Stats().Detections))
		if det.Stats().Detections != 0 {
			return fmt.Errorf("fwd: detection filed %d requests against an unreachable threshold", det.Stats().Detections)
		}
	}

	stageNonce(sp, rep, n, gwAddr, "benchmark-gw", legit)
	if err := stageResolve(sp, rep, n, wire.Book{sinkAddr: rig.sink.LocalAddr().String()}, sinkAddr); err != nil {
		return err
	}
	// Last, because a populated shadow cache changes what a classify
	// miss costs.
	now := dp.Now()
	rep.set("dataplane.shadow_log_ns", sp.stage("dataplane.shadow_log", n/4, stagePer, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dp.LogShadow(flow.PairLabel(flow.MakeAddr(60, 0, 0, 0)+flow.Addr(i), t.dsts[i%len(t.dsts)]), sinkAddr, now, now+time.Minute)
		}
	}))

	rep.set("dataplane.filters", float64(rig.gw.Filters().Len()))
	rep.set("wire.filter_drops", float64(rig.gw.Stats().FilterDrops))
	wireCounters(rep, rig.gw)
	return nil
}

// stageResolve times the endpoint lookup every send makes.
func stageResolve(sp *spans, rep *report, batches int, book wire.Book, to flow.Addr) error {
	var err error
	rep.set("wire.resolve_ns", sp.stage("wire.resolve", batches, stagePer, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if _, rerr := book.Resolve(to); rerr != nil {
				err = rerr
			}
		}
	}))
	return err
}

// wireCounters reports the control-plane counters that must stay 0;
// the rigs' own checks fail the run when they do not.
func wireCounters(rep *report, gws ...*wire.Gateway) {
	var retx, policed, failed uint64
	for _, g := range gws {
		st := g.Stats()
		retx += st.CtrlRetransmits
		policed += st.ReqPoliced
		failed += st.HandshakesFailed
	}
	rep.set("wire.retransmits", float64(retx))
	rep.set("wire.req_policed", float64(policed))
	rep.set("wire.handshakes_failed", float64(failed))
}

// roundTrace is what a traced filter_round trial records: the protocol
// milestones of all four nodes, and the generator's own send and stop
// times. A nil *roundTrace records nothing.
type roundTrace struct {
	trace *obs.Trace
	rt    roundTimes
}

func newRoundTrace(rounds int) *roundTrace {
	// Seven milestones a round; the ring must hold a whole trial.
	return &roundTrace{trace: obs.NewTrace(obs.NewRing(8*rounds), slog.New(slog.DiscardHandler))}
}

func (t *roundTrace) obs() *obs.Trace {
	if t == nil {
		return nil
	}
	return t.trace
}

func (t *roundTrace) times(rounds int) *roundTimes {
	if t == nil {
		return nil
	}
	t.rt = roundTimes{sent: make([]time.Time, rounds), stopped: make([]time.Time, rounds)}
	return &t.rt
}

func traceRound(cfg runConfig, rep *report) error {
	lat := newLatencies(roundsPerSeg)
	trial := 0
	return tracePairs(cfg, rep, func(ts *trialSet, sp *spans, first bool) (time.Duration, error) {
		trial++
		if sp == nil {
			return roundTrial(cfg, trial, lat, ts, rep, nil, nil)
		}
		tr := newRoundTrace(cfg.sz.warmRounds + cfg.sz.rounds)
		return roundTrial(cfg, trial, lat, ts, rep, tr, func(r *roundRig) error {
			// The socket stages repeat every traced trial (see addStage);
			// a relayed filtering request stands for the round's sends.
			relay := packet.Packet{Header: packet.Header{Src: vgwAddr, Dst: agwAddr, Proto: flow.ProtoAITF, TTL: packet.DefaultTTL},
				Msg: &packet.FilterReq{Stage: packet.StageToAttackerGW, Flow: flow.PairLabel(r.base, victimAddr),
					Duration: time.Minute, Round: 1, Victim: victimAddr, Evidence: make([]packet.RREntry, 2)}}
			wire, err := packet.Marshal(&relay)
			if err == nil {
				err = stageSendTo(sp, ts, cfg.sz.stageBatches, &relay)
			}
			if err == nil {
				err = stageUDPFloor(sp, ts, cfg.sz.stageBatches/4, wire)
			}
			if err != nil || !first {
				return err
			}
			if err := roundGaps(cfg, r, tr, rep, sp); err != nil {
				return err
			}
			return roundStages(cfg, r, rep, sp)
		})
	})
}

// roundGaps splits each traced round at its protocol milestones and
// reports the median of every gap; their sum explains the round time.
// Every 64th round also becomes a span tree.
func roundGaps(cfg runConfig, r *roundRig, tr *roundTrace, rep *report, sp *spans) error {
	// Trace events carry the wire runtime's clock, which the dataplane
	// exposes; one paired reading aligns it with the generator's.
	wireNow, hostNow := r.agw.DataPlane().Now(), time.Now()
	at := func(e obs.Event) time.Time { return hostNow.Add(e.At - wireNow) }

	milestones := []string{"request-sent", "temp-filter-installed", "handshake-query", "handshake-ok"}
	round := make(map[string]int, r.rounds)
	for i := 0; i < r.rounds; i++ {
		round[flow.PairLabel(r.base+flow.Addr(i), victimAddr).Canonical().String()] = i
	}
	marks := make([][4]time.Time, r.rounds)
	for _, e := range tr.trace.Ring().Snapshot() {
		i, ok := round[e.Flow]
		if !ok {
			continue
		}
		for k, kind := range milestones {
			if e.Kind == kind {
				marks[i][k] = at(e)
			}
		}
	}
	names := []string{"wire.round_detect_us", "wire.round_tempfilter_us", "wire.round_relay_us", "wire.round_handshake_us", "wire.round_stop_us"}
	gaps := make([][]float64, len(names))
	for i := cfg.sz.warmRounds; i < r.rounds; i++ {
		edges := []time.Time{tr.rt.sent[i], marks[i][0], marks[i][1], marks[i][2], marks[i][3], tr.rt.stopped[i]}
		whole := true
		for _, e := range edges {
			whole = whole && !e.IsZero()
		}
		if !whole {
			continue // a round that timed out, or whose events the ring lost
		}
		var root int
		if i%64 == 0 {
			root = sp.add("wire.round", -1, edges[0], edges[5], 1)
		}
		for k := range names {
			gaps[k] = append(gaps[k], float64(edges[k+1].Sub(edges[k]))/1e3)
			if i%64 == 0 {
				sp.add(names[k], root, edges[k], edges[k+1], 1)
			}
		}
	}
	if len(gaps[0]) < (r.rounds-cfg.sz.warmRounds)/2 {
		return fmt.Errorf("round trace: only %d of %d rounds have all their milestones", len(gaps[0]), r.rounds-cfg.sz.warmRounds)
	}
	for k, name := range names {
		rep.Metrics[name] = Value{Value: median(gaps[k]), Samples: len(gaps[k])}
	}
	return nil
}

// roundStages times the layers a round enters, on the rig of a traced
// trial, and reads its exact counters.
func roundStages(cfg runConfig, r *roundRig, rep *report, sp *spans) error {
	n := cfg.sz.stageBatches
	var sent uint64
	for _, node := range r.nodes() {
		s, _ := node.Counts()
		sent += s
	}
	rounds := uint64(r.agw.Filters().Len())
	rep.set("wire.ctrl_msgs_per_round", float64(sent-dataPerRound*rounds)/float64(rounds))
	rep.set("dataplane.filters", float64(rounds))
	wireCounters(rep, r.agw, r.vgw)

	// The datagrams of one round as each node receives them, and the
	// packets behind them as each node sends them.
	src, label := r.base, flow.PairLabel(r.base, victimAddr)
	tup := flow.Tuple{Src: src, Dst: victimAddr}
	agwRec := stageNonce(sp, rep, n, agwAddr, "benchmark-a_gw", []dgram{{tuple: tup}})
	vgwRec := traceback.NewRecorder(vgwAddr, []byte("benchmark-v_gw"))
	evidence := []packet.RREntry{{Router: agwAddr, Nonce: agwRec.Nonce(tup)}, {Router: vgwAddr, Nonce: vgwRec.Nonce(tup)}}
	data := func(hops int) packet.Packet {
		return packet.Packet{Header: packet.Header{Src: src, Dst: victimAddr, Proto: flow.ProtoUDP,
			SrcPort: 4000, DstPort: 80, TTL: packet.DefaultTTL, PayloadLen: 1000}, Path: evidence[:hops]}
	}
	ctrl := func(from, to flow.Addr, m packet.Message) packet.Packet {
		return packet.Packet{Header: packet.Header{Src: from, Dst: to, Proto: flow.ProtoAITF, TTL: packet.DefaultTTL}, Msg: m}
	}
	req := func(stage packet.Stage, ev []packet.RREntry) *packet.FilterReq {
		return &packet.FilterReq{Stage: stage, Flow: label, Duration: time.Minute, Round: 1, Victim: victimAddr, Evidence: ev}
	}
	query := ctrl(agwAddr, victimAddr, &packet.VerifyQuery{Flow: label, Nonce: 42})
	reply := ctrl(victimAddr, agwAddr, &packet.VerifyReply{Flow: label, Nonce: 42})
	tx := []packet.Packet{data(0), data(1), data(2),
		ctrl(victimAddr, vgwAddr, req(packet.StageToVictimGW, evidence)),
		ctrl(vgwAddr, agwAddr, req(packet.StageToAttackerGW, evidence)),
		query, query, reply, reply,
		ctrl(agwAddr, src, req(packet.StageToAttacker, nil))}
	rx := make([][]byte, len(tx))
	for i := range tx {
		b, err := packet.Marshal(&tx[i])
		if err != nil {
			return err
		}
		rx[i] = b
	}
	stageCodec(sp, rep, n, rx, tx)

	rep.set("traceback.verify_ns", sp.stage("traceback.verify", n, stagePer, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			agwRec.Verify(evidence, tup)
		}
	}))

	// What a data datagram's classification costs against the table the
	// rounds built: always a miss, the source is fresh.
	dp := r.agw.DataPlane()
	rep.set("dataplane.classify_ns", sp.stage("dataplane.classify", n, stagePer, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dp.ClassifyTuple(flow.Tuple{Src: flow.MakeAddr(70, 0, 0, 0) + flow.Addr(i), Dst: victimAddr}, 1000)
		}
	}))

	// The round's three table writes, on an engine of the gateways' shape
	// growing from empty to one trial's worth of entries.
	heap0 := heapInuseMB()
	scratch := dataplane.New(dataplane.Config{Shards: 2, FilterCapacity: n*stagePer + 1, ShadowCapacity: n*stagePer + 1,
		Evict: filter.RejectNew, ShadowLookup: true, Clock: dataplane.WallClock(time.Now())})
	fresh := func(i int) flow.Label { return flow.PairLabel(flow.MakeAddr(80, 0, 0, 0)+flow.Addr(i), victimAddr) }
	var writeErr error
	rep.set("dataplane.install_ns", sp.stage("dataplane.install", n, stagePer, func(lo, hi int) {
		now := scratch.Now()
		for i := lo; i < hi; i++ {
			if err := scratch.Install(fresh(i), now, now+time.Minute); err != nil {
				writeErr = err
			}
		}
	}))
	rep.set("dataplane.heap_bytes_per_filter", (heapInuseMB()-heap0)*(1<<20)/float64(n*stagePer))
	rep.set("dataplane.shadow_log_ns", sp.stage("dataplane.shadow_log", n, stagePer, func(lo, hi int) {
		now := scratch.Now()
		for i := lo; i < hi; i++ {
			if !scratch.LogShadow(fresh(i), victimAddr, now, now+time.Minute) {
				writeErr = fmt.Errorf("shadow log refused entry %d", i)
			}
		}
	}))
	if writeErr != nil {
		return writeErr
	}

	return stageResolve(sp, rep, n, wire.Book{agwAddr: r.agw.Node().UDPAddr().String()}, agwAddr)
}

func traceArmy(cfg runConfig, rep *report) error {
	lat := newLatencies(int(cfg.sz.armyVirtual/armySlice) + 1)
	var first armyOutcome
	err := tracePairs(cfg, rep, func(ts *trialSet, sp *spans, _ bool) (time.Duration, error) {
		return armyTrial(cfg, lat, ts, rep, sp, &first)
	})
	if err != nil {
		return err
	}
	rep.set("sim.events", float64(first.events))
	rep.set("core.victim_bytes", float64(first.victimBytes))
	rep.set("core.filters_installed", float64(first.filters))
	simStages(cfg, rep, int(first.events))
	return nil
}

// simStages times the simulator's two bottom layers bare: the event
// heap with no-op events, and netsim delivery along a chain of plain
// routers.
func simStages(cfg runConfig, rep *report, events int) {
	sp, n := cfg.spans, cfg.sz.stageBatches
	eng := sim.NewEngine(cfg.seed)
	batches := events / stagePer
	if batches < n {
		batches = n
	}
	rep.set("sim.event_ns", sp.stage("sim.event", batches, stagePer, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			eng.Schedule(time.Duration(i%97)*time.Microsecond, func() {})
		}
		eng.Run()
	}))

	const hops = 8
	topo := topology.New()
	prev := topo.AddNode("src", flow.MakeAddr(10, 2, 0, 1), topology.KindHost, 0)
	for i := 0; i < hops-1; i++ {
		next := topo.AddNode(fmt.Sprintf("r%d", i), flow.MakeAddr(10, 2, 1, byte(i+1)), topology.KindInternalRouter, 0)
		topo.AddLink(prev, next, time.Millisecond, 0, 0)
		prev = next
	}
	dstAddr := flow.MakeAddr(10, 2, 0, 2)
	dst := topo.AddNode("dst", dstAddr, topology.KindHost, 0)
	topo.AddLink(prev, dst, time.Millisecond, 0, 0)
	chainEng := sim.NewEngine(cfg.seed)
	chain := netsim.MustBuild(chainEng, topo)
	chain.Node(dst).SetHandler(netsim.HandlerFunc(func(_ *netsim.Node, p *packet.Packet, _ *netsim.Iface) { p.Release() }))
	origin := chain.Node(0)
	perHop := sp.stage("netsim.hop", n, stagePer, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			origin.Originate(packet.NewData(origin.Addr(), dstAddr, flow.ProtoUDP, 1, 2, 1000))
		}
		chainEng.Run()
	})
	rep.set("netsim.hop_ns", perHop/hops)
}

func traceScenarios(cfg runConfig, rep *report) error {
	lat := newLatencies(cfg.sz.scenarios)
	var first scenarioPass
	err := tracePairs(cfg, rep, func(ts *trialSet, sp *spans, _ bool) (time.Duration, error) {
		d, err := scenarioTrial(cfg, lat, ts, rep, sp, &first)
		if sp == nil && err == nil { // lat is left sorted by the trial
			ts.add("scenario.run_ms_p50", "ms", percentile(lat.ns, 0.5)/1e6, len(lat.ns))
			ts.add("scenario.run_ms_max", "ms", percentile(lat.ns, 1)/1e6, len(lat.ns))
		}
		return d, err
	})
	if err != nil {
		return err
	}
	rep.set("scenario.log_events", float64(first.logEvents))
	rep.set("scenario.violations", float64(len(first.violating)))
	rep.set("scenario.fingerprint32", float64(uint32(first.fingerprint)))
	simStages(cfg, rep, 0)
	return controlStages(cfg, rep)
}

// controlStages times the two control-plane layers only generated
// scenarios reach, on the fwd_attack table and tuple stream: a cluster
// merge round, and the collateral-aware allocator's choice.
func controlStages(cfg runConfig, rep *report) error {
	sp := cfg.spans
	t := newFwdTraffic(cfg.seed, cfg.sz.fwdAttack, cfg.sz.ringBursts)
	rng := rand.New(rand.NewSource(cfg.seed))
	clu := cluster.New(cluster.Config{Replicas: 3, HashSeed: uint64(cfg.seed), Replicate: true},
		detect.Config{ThresholdBps: 1e18, Seed: uint64(cfg.seed)})
	var now sim.Time
	feed := func() { // one window's observations, untimed
		for k := 0; k < len(t.ring); k++ {
			clu.Observe(now, t.ring[rng.Intn(len(t.ring))].tuple, 1000)
		}
		now += 250 * time.Millisecond
	}
	feed()
	rep.set("cluster.merge_round_us", median(sp.batches("cluster.merge_round", cfg.sz.stageBatches/2, 1, func(int, int) {
		clu.MergeRound(now)
	}, feed))/1e3)

	eng := dataplane.New(dataplane.Config{Shards: 2, FilterCapacity: len(t.filters), ShadowCapacity: 1,
		Evict: filter.RejectNew, Clock: dataplane.WallClock(time.Now())})
	for _, f := range t.filters {
		if err := eng.Install(f, 0, time.Hour); err != nil {
			return err
		}
	}
	entries := eng.FilterEntries()
	picks := 0
	rep.set("alloc.choose_ms", sp.stage("alloc.choose", 5, 1, func(int, int) {
		picks += len(alloc.Choose(entries, 1, alloc.Config{}).Picks)
	})/1e6)
	if picks == 0 && len(entries) > 1000 {
		return fmt.Errorf("alloc.Choose found nothing to aggregate in %d filters", len(entries))
	}
	return nil
}
