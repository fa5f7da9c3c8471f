package border

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"aitf/internal/cluster"
	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/packet"
	"aitf/internal/traceback"
)

// Control takes a control packet addressed to this router, arriving
// through neighbor (0 when locally originated).
func (e *Engine) Control(p *packet.Packet, neighbor flow.Addr) {
	e.build()
	atomic.AddUint64(&e.stats.MsgProcessed, 1)
	switch m := p.Msg.(type) {
	case *packet.FilterReq:
		e.handleFilterReq(p, m, neighbor)
	case *packet.VerifyQuery:
		e.handleVerifyQuery(p, m)
	case *packet.VerifyReply:
		e.handleVerifyReply(m)
	case *packet.Disconnect:
		// Informational: our provider cut somebody off.
	}
}

func (e *Engine) handleFilterReq(p *packet.Packet, m *packet.FilterReq, neighbor flow.Addr) {
	now := e.now()
	// Retransmission dedup comes first: a duplicate delivery of a
	// reliable send must be wholly side-effect-free — it may not eat a
	// contract-policer token, restart an escalation ladder, or touch any
	// counter other than the dup counter itself.
	if e.seenTxids.Seen(p.Src, m.Txid, now, filter.DedupWindow) {
		atomic.AddUint64(&e.stats.CtrlDupDrops, 1)
		if e.traced {
			e.env.Trace(obs.EvCtrlDupDrop, m.Flow, fmt.Sprintf("txid %d from %v", m.Txid, p.Src))
		}
		return
	}
	atomic.AddUint64(&e.stats.ReqReceived, 1)
	if e.traced {
		e.env.Trace(obs.EvRequestReceived, m.Flow, fmt.Sprintf("stage %v round %d from %v", m.Stage, m.Round, p.Src))
	}

	// Contract policing per ingress neighbor (§II-B).
	if neighbor == 0 || !e.policer(neighbor, false).Allow(now) {
		atomic.AddUint64(&e.stats.ReqPoliced, 1)
		e.env.Trace(obs.EvRequestPoliced, m.Flow, "over contract rate")
		return
	}

	switch m.Stage {
	case packet.StageToVictimGW:
		e.handleVictimSideRequest(m, neighbor)
	case packet.StageToAttackerGW:
		e.handleAttackerSideRequest(m)
	case packet.StageToAttacker:
		// A provider is ordering this gateway (as a client network) to
		// stop a flow: cooperate by filtering it ourselves and pushing
		// the order further toward the source (§II-D).
		e.handleStopOrder(p, m)
	}
}

// ── Victim-side behaviour ─────────────────────────────────────────────

// selfDetect feeds p to the detection plane. A detection is the
// gateway-side counterpart of a victim's filtering request (§II-C with
// the gateway playing both victim and victim's gateway). The evidence is the route record the offending packet
// carried, completed with this gateway's own stamp — what the client
// would have presented had it spoken AITF. Naming itself as the victim
// keeps the §II-E handshake sound: the verification query lands here,
// where the watch state answers it, not at a legacy host.
func (e *Engine) selfDetect(now time.Duration, p *packet.Packet) {
	d, ok := e.plane.Observe(now, p.Tuple(), int(p.PayloadLen))
	if !ok {
		return
	}
	label := d.Label.Canonical()
	if w, ok := e.watches[label.Key()]; ok {
		if w.TempUntil > now {
			return // already being blocked; nothing to add
		}
		_, live := e.dp.ShadowGet(label, now)
		if e.cfg.ShadowMode != ShadowOff && live {
			// An on-off reappearance of a flow we already fought:
			// re-block and move the escalation ladder onward instead of
			// restarting at round 1 (the same takeover the victim-driven
			// path performs on a re-request).
			e.dp.ShadowHit(label)
			atomic.AddUint64(&e.stats.ShadowReblocks, 1)
			e.env.Trace(obs.EvShadowHit, label, "gateway re-detection")
			e.reblockAndEscalate(w)
			return
		}
		delete(e.watches, label.Key())
	}
	atomic.AddUint64(&e.stats.Detections, 1)
	if e.traced {
		e.env.Trace(obs.EvAttackDetected, label, fmt.Sprintf("gateway sketch, est %dB for %v", d.EstBytes, d.Dst))
	}

	evidence := make(traceback.AttackPath, 0, len(p.Path)+1)
	evidence = append(evidence, p.Path...)
	evidence = append(evidence, packet.RREntry{
		Router: e.env.Addr,
		Nonce:  e.rec.Nonce(rrTuple(label.Src, label.Dst)),
	})
	e.openWatch(label, e.env.Addr, evidence)
}

// openWatch starts round 1 against a freshly accepted undesired flow
// (§II-C): the temporary filter, the shadow log, the request to the
// attacker's gateway, and the takeover and reclamation timers.
func (e *Engine) openWatch(label flow.Label, victim flow.Addr, evidence traceback.AttackPath) {
	now := e.now()
	w := e.newWatch(Watch{Label: label, Victim: victim, Evidence: evidence, Round: 1})
	e.watches[label.Key()] = w
	e.installTemp(w)
	if e.cfg.ShadowMode != ShadowOff {
		if e.dp.LogShadow(label, victim, now, now+e.cfg.Timers.T) {
			e.env.Trace(obs.EvShadowLogged, label, "")
		}
	}
	e.sendToAttackerGateway(w)
	e.scheduleTakeoverCheck(w)
	e.scheduleWatchGC(w)
}

// handleVictimSideRequest serves a filtering request from our own
// client: the victim itself, or a downstream gateway escalating.
func (e *Engine) handleVictimSideRequest(m *packet.FilterReq, neighbor flow.Addr) {
	now := e.now()
	label := m.Flow.Canonical()

	// Trivial verification (§II-E): the requester must be the node we
	// route the flow's destination through — i.e. the flow's target is
	// the requester or sits behind it.
	if hop, ok := e.env.NextHop(label.Dst); !ok || hop != neighbor {
		atomic.AddUint64(&e.stats.ReqInvalid, 1)
		e.env.Trace(obs.EvRequestInvalid, label, "requester not on path to flow destination")
		return
	}
	if _, isClient := e.cfg.client(neighbor); !isClient {
		atomic.AddUint64(&e.stats.ReqInvalid, 1)
		e.env.Trace(obs.EvRequestInvalid, label, "requester is not a client")
		return
	}

	if w, ok := e.watches[label.Key()]; ok {
		if w.TempUntil > now {
			// Duplicate while the temporary filter is still up.
			return
		}
		_, live := e.dp.ShadowGet(label, now)
		if e.cfg.ShadowMode == ShadowOff || !live {
			// No shadow memory (disabled, or the T window lapsed):
			// the request is brand new, not a caught reappearance.
			delete(e.watches, label.Key())
		} else {
			// Reappearance reported by the victim (VictimDriven mode).
			e.dp.ShadowHit(label)
			atomic.AddUint64(&e.stats.ShadowReblocks, 1)
			e.env.Trace(obs.EvShadowHit, label, "victim re-request")
			if len(m.Evidence) > 0 {
				w.Evidence = slices.Clone(traceback.AttackPath(m.Evidence))
			}
			e.reblockAndEscalate(w)
			return
		}
	}

	// The evidence must carry this gateway's own route-record stamp: a
	// genuine attack packet that reached our client necessarily crossed
	// (and was stamped by) us. This kills fabricated-evidence request
	// floods before they consume any filter.
	evidence := traceback.AttackPath(m.Evidence)
	if !e.rec.Verify(evidence, rrTuple(label.Src, label.Dst)) {
		atomic.AddUint64(&e.stats.ReqInvalid, 1)
		e.env.Trace(obs.EvRequestInvalid, label, "evidence lacks our route-record stamp")
		return
	}
	atomic.AddUint64(&e.stats.ReqAccepted, 1)
	// The watch keeps its own copy: the message's slice may be the
	// sender's (the simulator hands packets over by pointer).
	e.openWatch(label, m.Victim, slices.Clone(evidence))
}

// scheduleWatchGC arms the periodic reclamation of a watch once both
// its filter and its shadow entry have lapsed and the flow is gone.
func (e *Engine) scheduleWatchGC(w *watch) {
	e.env.Clock.Arm(e.cfg.Timers.T+e.cfg.Timers.Ttmp, w.gc)
}

func (e *Engine) watchGC(w *watch) {
	if e.halted || e.watches[w.Label.Key()] != w {
		return
	}
	now := e.now()
	_, live := e.dp.ShadowGet(w.Label, now)
	recentlySeen := w.HaveSeen && now-w.LastSeen < e.cfg.Timers.T
	if w.TempUntil > now || live || recentlySeen {
		e.scheduleWatchGC(w)
		return
	}
	delete(e.watches, w.Label.Key())
	e.dp.ExpireShadows(now)
	e.dp.Expire(now)
}

// installTemp (re)installs the temporary filter for Ttmp (§II-C i).
func (e *Engine) installTemp(w *watch) {
	if e.block(w, e.cfg.Timers.Ttmp) && e.traced {
		e.env.Trace(obs.EvTempFilterInstalled, w.Label, fmt.Sprintf("until %v", w.TempUntil))
	}
}

// block installs w's victim-side filter for d through the §IV
// aggregator, reporting whether the table took it.
func (e *Engine) block(w *watch, d time.Duration) bool {
	now := e.now()
	if err := e.agg.Install(w.Label, now, now+d); err != nil {
		e.env.Trace(obs.EvFilterRejected, w.Label, err.Error())
		return false
	}
	w.TempUntil, w.InstalledAt = now+d, now
	return true
}

// sendToAttackerGateway propagates the request to the attack-path node
// this gateway is responsible for (§II-C iii), determined by mirroring
// the gateway's own position on the recorded path.
func (e *Engine) sendToAttackerGateway(w *watch) {
	target, err := e.roundTarget(w)
	if err != nil {
		// No attacker-side node left for us; resolve locally.
		e.resolveExhausted(w)
		return
	}
	// A new round supersedes any ladder still running for the old one.
	e.ladder.Cancel(w.reqTok)
	if e.traced {
		e.env.Trace(obs.EvRequestSent, w.Label, fmt.Sprintf("to attacker-gw %v round %d", target, w.Round))
	}
	w.reqTok = e.sendReq(w, target, packet.StageToAttackerGW, w.Victim)
}

// sendReq sends w's filtering request to dst on a reliable ladder.
// Every (re)transmission carries w.Evidence itself, not a copy: a watch
// owns its evidence and replaces it whole, and no receiver writes into
// or appends to a request's evidence (border copies it when it adopts
// it; traceback.Recorder.Verify, ctrl.Ledger's kept request and the
// wire codec only read it).
func (e *Engine) sendReq(w *watch, dst flow.Addr, stage packet.Stage, victim flow.Addr) uint64 {
	round := uint8(min(w.Round, 255))
	return e.ladder.Send(w.Label, func(txid uint64) *packet.Packet {
		return packet.NewControl(e.env.Addr, dst, &packet.FilterReq{
			Stage:    stage,
			Flow:     w.Label,
			Duration: e.cfg.Timers.T,
			Round:    round,
			Victim:   victim,
			Evidence: w.Evidence,
			Txid:     txid,
		})
	})
}

// roundTarget computes the attacker-side node this gateway addresses:
// the mirror of its own position on the recorded path. The victim's
// gateway (last on the path) targets the attacker's gateway (first);
// the k-th victim-side router targets the k-th attacker-side router.
func (e *Engine) roundTarget(w *watch) (flow.Addr, error) {
	idx := w.Evidence.IndexOf(e.env.Addr)
	if idx < 0 {
		return 0, traceback.ErrNotOnPath
	}
	i := len(w.Evidence) - 1 - idx
	if i >= idx {
		return 0, traceback.ErrRoundTooHigh
	}
	return w.Evidence[i].Router, nil
}

// scheduleTakeoverCheck arms the Ttmp deadline: if the flow is still
// arriving when the temporary filter is about to lapse, the attacker's
// gateway did not take over and we escalate (§II-C iii).
func (e *Engine) scheduleTakeoverCheck(w *watch) {
	e.env.Clock.Stop(w.checkTimer)
	e.armTakeoverCheck(w, e.cfg.Timers.Ttmp)
}

// armTakeoverCheck arms w's takeover check d from now, for the
// temporary filter installed at w.InstalledAt.
func (e *Engine) armTakeoverCheck(w *watch, d time.Duration) {
	w.checkFor = w.InstalledAt
	w.checkTimer = e.env.Clock.Arm(d, w.check)
}

func (e *Engine) takeoverCheck(w *watch) {
	if e.halted {
		return
	}
	installedAt := w.checkFor
	if w.InstalledAt != installedAt {
		return // superseded by a re-install
	}
	quiet := installedAt + e.cfg.Timers.Ttmp - e.cfg.Timers.Grace
	if !w.HaveSeen || w.LastSeen <= quiet {
		// Flow went quiet: the attacker side (apparently) took over.
		// The temporary filter lapses; the shadow keeps watching — and
		// any request ladders still retransmitting have served their
		// purpose.
		e.ladder.Cancel(w.reqTok)
		e.ladder.Cancel(w.escTok)
		w.reqTok, w.escTok = 0, 0
		e.env.Trace(obs.EvTakeoverOK, w.Label, "flow stopped before Ttmp")
		return
	}
	// Still flowing through us: this round failed.
	e.reblockAndEscalate(w)
}

// reblockAndEscalate re-installs the temporary filter and moves the
// mechanism one round onward: via our provider when we have one,
// directly to the next attack-path node when we are the top gateway.
func (e *Engine) reblockAndEscalate(w *watch) {
	w.Round++
	atomic.AddUint64(&e.stats.Escalations, 1)
	if e.traced {
		e.env.Trace(obs.EvEscalated, w.Label, fmt.Sprintf("round %d", w.Round))
	}
	e.installTemp(w)
	e.scheduleTakeoverCheck(w)
	// Refresh the shadow for another T from now.
	if e.cfg.ShadowMode != ShadowOff {
		now := e.now()
		e.dp.LogShadow(w.Label, w.Victim, now, now+e.cfg.Timers.T)
	}
	if e.cfg.Provider != 0 {
		e.ladder.Cancel(w.escTok)
		if e.traced {
			e.env.Trace(obs.EvRequestSent, w.Label, fmt.Sprintf("escalate to provider %v round %d", e.cfg.Provider, w.Round))
		}
		// We now play the victim (§II-B).
		w.escTok = e.sendReq(w, e.cfg.Provider, packet.StageToVictimGW, e.env.Addr)
		return
	}
	e.resolveExhausted(w)
}

// resolveExhausted handles the end of the escalation ladder at a
// top-level gateway: disconnect the peer the flow arrives through if
// it is an AITF peer (§II-D worst case), otherwise hold a long-lived
// filter ourselves.
func (e *Engine) resolveExhausted(w *watch) {
	if !w.HaveSeen {
		// We have never observed this flow; do not spend a long-lived
		// filter (or a disconnection) on hearsay.
		return
	}
	if w.Ingress != 0 {
		if _, isPeer := e.cfg.Peers[w.Ingress]; isPeer {
			e.disconnect(w.Ingress, w.Label)
			return
		}
	}
	if e.block(w, e.cfg.Timers.T) {
		atomic.AddUint64(&e.stats.LongBlocks, 1)
		e.env.Trace(obs.EvLongBlock, w.Label, "no cooperative attacker-side gateway; filtering locally for T")
	}
}

func (e *Engine) disconnect(neighbor flow.Addr, label flow.Label) {
	e.disconnected[neighbor] = e.now() + e.cfg.Timers.Penalty
	atomic.AddUint64(&e.stats.Disconnects, 1)
	if e.traced {
		e.env.Trace(obs.EvDisconnected, label, fmt.Sprintf("neighbor %v for %v", neighbor, e.cfg.Timers.Penalty))
	}
	e.env.Send(packet.NewControl(e.env.Addr, neighbor, &packet.Disconnect{
		Client:  neighbor,
		Flow:    label,
		Penalty: e.cfg.Timers.Penalty,
	}))
}

// ── Attacker-side behaviour ───────────────────────────────────────────

// handleAttackerSideRequest serves a request claiming we are the
// attacker's gateway: verify with the 3-way handshake, then filter.
func (e *Engine) handleAttackerSideRequest(m *packet.FilterReq) {
	label := m.Flow.Canonical()
	if !e.cfg.Cooperative {
		// The non-cooperating gateway of §IV-A.1: silently ignores.
		return
	}
	// The evidence must prove the flow really crossed this router: our
	// own route-record stamp with a valid authenticator (the
	// traceback substitution).
	if !e.rec.Verify(m.Evidence, rrTuple(label.Src, label.Dst)) {
		atomic.AddUint64(&e.stats.ReqInvalid, 1)
		e.env.Trace(obs.EvRequestInvalid, label, "no valid route-record stamp for this router")
		return
	}
	e.hs.Start(label, m, e.env.Rand.Uint64())
}

// handleVerifyQuery answers handshakes addressed to this gateway when
// it is itself the (escalating) victim of the flow in question.
func (e *Engine) handleVerifyQuery(p *packet.Packet, m *packet.VerifyQuery) {
	label := m.Flow.Canonical()
	w, ok := e.watches[label.Key()]
	if !ok {
		if _, ok := e.dp.ShadowGet(label, e.now()); !ok {
			return // we never asked for this flow to be blocked
		}
	}
	if w != nil {
		// The query is implicit proof our request reached the attacker
		// side: stop retransmitting it.
		e.ladder.Cancel(w.reqTok)
		w.reqTok = 0
	}
	if e.traced {
		e.env.Trace(obs.EvHandshakeReply, label, fmt.Sprintf("to %v", p.Src))
	}
	src, mflow, nonce := p.Src, m.Flow, m.Nonce
	e.ladder.SendBlind(label, func(uint64) *packet.Packet {
		return packet.NewControl(e.env.Addr, src,
			&packet.VerifyReply{Flow: mflow, Nonce: nonce})
	})
}

// handleVerifyReply completes the handshake: install the T filter and
// order the client to stop (§II-C, attacker's gateway).
func (e *Engine) handleVerifyReply(m *packet.VerifyReply) {
	label := m.Flow.Canonical()
	if !e.hs.Reply(label, m.Nonce) {
		return // stale, duplicate, unsolicited, or forged reply
	}
	atomic.AddUint64(&e.stats.ReqAccepted, 1)
	e.env.Trace(obs.EvHandshakeOK, label, "")
	if e.installFilter(label, false) {
		e.env.Clock.Arm(e.cfg.Timers.T, e.expire)
		e.orderClientToStop(label)
	}
}

// installFilter installs the attacker-side T filter for label and logs
// it in the detection plane, reporting whether the table took it. The
// trace says whether a handshake or the provider's stop order asked
// for it.
func (e *Engine) installFilter(label flow.Label, byProvider bool) bool {
	now := e.now()
	exp := now + e.cfg.Timers.T
	if err := e.dp.Install(label, now, exp); err != nil {
		e.env.Trace(obs.EvFilterRejected, label, err.Error())
		return false
	}
	if e.traced {
		detail := "stop order from provider"
		if !byProvider {
			detail = fmt.Sprintf("for %v", e.cfg.Timers.T)
		}
		e.env.Trace(obs.EvFilterInstalled, label, detail)
	}
	e.plane.Record(cluster.OpInstall, label, exp, now)
	return true
}

// orderClientToStop propagates the request toward the attacker: to the
// attacking host when it is our client, or to the downstream client
// network it sits behind (§II-C ii, §II-D).
func (e *Engine) orderClientToStop(label flow.Label) {
	now := e.now()
	client, ok := e.env.NextHop(label.Src)
	if !ok {
		return // source unroutable (e.g. spoofed): our filter suffices
	}
	if !e.policer(client, true).Allow(now) {
		// Beyond the R2 contract rate we may not burden the client;
		// our own filter keeps blocking regardless (§IV-C).
		return
	}
	atomic.AddUint64(&e.stats.StopOrders, 1)
	if e.traced {
		e.env.Trace(obs.EvStopOrder, label, fmt.Sprintf("to %v", client))
	}

	c := &compliance{Compliance: Compliance{Label: label, Client: client, Deadline: now + e.cfg.Timers.Grace}}
	e.compliance[label.Key()] = c
	c.tok = e.ladder.Send(label, func(txid uint64) *packet.Packet {
		return packet.NewControl(e.env.Addr, client, &packet.FilterReq{
			Stage:    packet.StageToAttacker,
			Flow:     label,
			Duration: e.cfg.Timers.T,
			Victim:   e.env.Addr,
			Txid:     txid,
		})
	})
	e.armComplianceCheck(c, 2*e.cfg.Timers.Grace)
}

// armComplianceCheck arms c's one check d from now: a client still
// sending past its grace period is disconnected (§II-C).
func (e *Engine) armComplianceCheck(c *compliance, d time.Duration) {
	e.env.Clock.Arm(d, func() { e.complianceCheck(c) })
}

func (e *Engine) complianceCheck(c *compliance) {
	if e.halted || e.compliance[c.Label.Key()] != c {
		return
	}
	e.ladder.Cancel(c.tok)
	delete(e.compliance, c.Label.Key())
	if c.HaveSeen && c.LastSeen > c.Deadline {
		e.disconnect(c.Client, c.Label)
		return
	}
	if e.traced {
		e.env.Trace(obs.EvFlowStopped, c.Label, fmt.Sprintf("client %v complied", c.Client))
	}
}

// handleStopOrder handles a provider's order to stop a flow sourced in
// our network: filter it and push the order toward the source.
func (e *Engine) handleStopOrder(p *packet.Packet, m *packet.FilterReq) {
	if !e.cfg.Cooperative {
		return // non-cooperating networks ignore orders (§II-D) — and pay
	}
	// Only our own provider may order us around.
	if e.cfg.Provider == 0 || p.Src != e.cfg.Provider {
		atomic.AddUint64(&e.stats.ReqInvalid, 1)
		e.env.Trace(obs.EvRequestInvalid, m.Flow, "stop order not from provider")
		return
	}
	label := m.Flow.Canonical()
	if e.installFilter(label, true) {
		e.orderClientToStop(label)
	}
}
