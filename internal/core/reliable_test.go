package core_test

// Tests for the hostile-network machinery: the reliable control
// messenger (bounded retransmission, idempotent receive paths), the
// handshake accounting ledger, and gateway crash/restore from
// snapshot.

import (
	"testing"
	"time"

	"aitf"
	"aitf/internal/ctrl"
	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/netsim"
	"aitf/internal/packet"
)

// reliableOpts arms the reliable messenger with the scenario-harness
// shape: four attempts at RTO 120 ms, ±25% jitter.
func reliableOpts() aitf.Options {
	opt := aitf.DefaultOptions()
	opt.Control = ctrl.Config{MaxAttempts: 4, RTO: 120 * time.Millisecond, Jitter: 0.25}
	return opt
}

// stampPath lets one probe packet cross so a forged request can carry
// authentic route-record evidence. The victim's host releases what it
// is delivered, so a handler copies the probe's route record at
// delivery and then hands the packet on to the host.
func stampPath(dep *aitf.ChainDeployment) []packet.RREntry {
	attacker := dep.Attacker.Node().Addr()
	victim := dep.Victim.Node()
	host := dep.Victim
	var path []packet.RREntry
	victim.SetHandler(netsim.HandlerFunc(func(n *netsim.Node, p *packet.Packet, from *netsim.Iface) {
		if p.Src == attacker && !p.IsControl() {
			path = append([]packet.RREntry(nil), p.Path...)
		}
		host.Receive(n, p, from)
	}))
	defer victim.SetHandler(host)
	probe := packet.NewData(attacker, victim.Addr(), flow.ProtoUDP, 1, 2, 10)
	dep.Engine.ScheduleAt(0, func() { dep.Attacker.Node().Originate(probe) })
	dep.Run(time.Second)
	return path
}

// TestHandshakeLedgerBalances: every handshake started is resolved OK,
// resolved failed, or still pending — including the supersede path,
// where a newer request for the same flow replaces a pending one. The
// superseded handshake must be counted failed, not leaked.
func TestHandshakeLedgerBalances(t *testing.T) {
	opt := aitf.DefaultOptions()
	opt.Detector = nil
	dep := depth1(opt, false, false)
	agw := dep.AttackGWs[0]
	attacker := dep.Attacker.Node().Addr()
	victim := dep.Victim.Node().Addr()
	path := stampPath(dep)

	// Two requests for the same flow, 200 ms apart — well inside the
	// 1 s handshake timeout, so the second supersedes the first.
	send := func() {
		req := &packet.FilterReq{
			Stage: packet.StageToAttackerGW, Flow: flow.PairLabel(attacker, victim),
			Duration: time.Minute, Round: 1, Victim: victim,
			Evidence: append([]packet.RREntry(nil), path...),
		}
		dep.Attacker.Node().Originate(packet.NewControl(attacker, agw.Node().Addr(), req))
	}
	dep.Engine.ScheduleAt(dep.Now(), send)
	dep.Engine.ScheduleAt(dep.Now()+200*time.Millisecond, send)
	dep.Run(5 * time.Second)

	st := agw.Stats()
	if st.HandshakesStarted != 2 {
		t.Fatalf("started %d handshakes, want 2 (one superseded)", st.HandshakesStarted)
	}
	if got := st.HandshakesOK + st.HandshakesFailed + uint64(agw.PendingHandshakes()); got != st.HandshakesStarted {
		t.Fatalf("ledger out of balance: %d started vs %d ok + %d failed + %d pending",
			st.HandshakesStarted, st.HandshakesOK, st.HandshakesFailed, agw.PendingHandshakes())
	}
	// Both fail here: the first superseded, the second timed out (the
	// victim never asked for the flow).
	if st.HandshakesFailed != 2 {
		t.Fatalf("failed %d handshakes, want 2", st.HandshakesFailed)
	}
}

// TestDuplicateFilterReqIdempotent: a retransmitted filter request
// (same source, same txid) is absorbed by the dedup window — it never
// reaches the policer or the handshake path, so gateway stats move
// only in MsgProcessed and CtrlDupDrops. The window's memory is bounded:
// filter.DedupCapacity newer pairs push the oldest out, and its replay
// is then a new request rather than a map entry kept for a flooder.
func TestDuplicateFilterReqIdempotent(t *testing.T) {
	opt := aitf.DefaultOptions()
	opt.Detector = nil
	dep := depth1(opt, false, false)
	agw := dep.AttackGWs[0]
	attacker := dep.Attacker.Node().Addr()
	victim := dep.Victim.Node().Addr()
	path := stampPath(dep)

	sendTxid := func(txid uint64) {
		req := &packet.FilterReq{
			Stage: packet.StageToAttackerGW, Flow: flow.PairLabel(attacker, victim),
			Duration: time.Minute, Round: 1, Victim: victim, Txid: txid,
			Evidence: append([]packet.RREntry(nil), path...),
		}
		dep.Attacker.Node().Originate(packet.NewControl(attacker, agw.Node().Addr(), req))
	}
	send := func() { sendTxid(777) }
	dep.Engine.ScheduleAt(dep.Now(), send)
	dep.Run(100 * time.Millisecond)
	before := agw.Stats()
	dep.Engine.ScheduleAt(dep.Now(), send) // duplicate delivery
	dep.Run(100 * time.Millisecond)
	after := agw.Stats()

	if after.CtrlDupDrops != before.CtrlDupDrops+1 {
		t.Fatalf("dup drops %d → %d, want +1", before.CtrlDupDrops, after.CtrlDupDrops)
	}
	if after.ReqReceived != before.ReqReceived {
		t.Fatalf("duplicate counted as a received request: %d → %d", before.ReqReceived, after.ReqReceived)
	}
	if after.HandshakesStarted != 1 {
		t.Fatalf("duplicate started a second handshake: %d", after.HandshakesStarted)
	}
	if agw.PendingHandshakes() != 1 {
		t.Fatalf("want exactly one pending handshake, got %d", agw.PendingHandshakes())
	}

	// Still inside txid 777's window, a full capacity of distinct txids
	// arrives; the newest stays a duplicate, 777 has been forgotten.
	dep.Engine.ScheduleAt(dep.Now(), func() {
		const base = 1000 // clear of 777
		for i := uint64(1); i <= filter.DedupCapacity; i++ {
			sendTxid(base + i)
		}
		sendTxid(base + filter.DedupCapacity)
		sendTxid(777)
	})
	dep.Run(100 * time.Millisecond)
	flooded := agw.Stats()
	if got := flooded.CtrlDupDrops - after.CtrlDupDrops; got != 1 {
		t.Fatalf("flood + replay of newest and oldest pair: %d dup drops, want 1 (the newest)", got)
	}
	if got := flooded.ReqReceived - after.ReqReceived; got != filter.DedupCapacity+1 {
		t.Fatalf("flood + replay of newest and oldest pair: %d received, want %d", got, filter.DedupCapacity+1)
	}
}

// TestDuplicateReplyCompletesOnce: with the messenger armed, the
// victim-side gateway blindly duplicates its VerifyReply (no ack leg
// exists for replies). The attacker gateway must complete the
// handshake exactly once and install exactly one filter.
func TestDuplicateReplyCompletesOnce(t *testing.T) {
	dep := depth1(reliableOpts(), false, true)
	fl := dep.Flood(dep.Attacker, dep.Victim, floodBps)
	fl.Launch()
	dep.Run(3 * time.Second)

	agw := dep.AttackGWs[0]
	st := agw.Stats()
	if st.HandshakesOK != 1 {
		t.Fatalf("handshake completed %d times, want exactly 1:\n%s", st.HandshakesOK, dep.Log)
	}
	installs := 0
	for _, e := range dep.Log.OfKind(aitf.EvFilterInstalled) {
		if e.Node == "a_gw1" {
			installs++
		}
	}
	if installs != 1 {
		t.Fatalf("attacker gateway installed %d filters, want 1:\n%s", installs, dep.Log)
	}
}

// TestDuplicateStopOrderIdempotent: a host counts a retransmitted stop
// order (same gateway, same txid) once; the duplicate only bumps the
// dedup counter.
func TestDuplicateStopOrderIdempotent(t *testing.T) {
	opt := aitf.DefaultOptions()
	opt.Detector = nil
	dep := depth1(opt, false, true)
	agw := dep.AttackGWs[0]
	attacker := dep.Attacker.Node().Addr()
	victim := dep.Victim.Node().Addr()

	send := func() {
		order := &packet.FilterReq{
			Stage: packet.StageToAttacker, Flow: flow.PairLabel(attacker, victim),
			Duration: time.Minute, Victim: victim, Txid: 99,
		}
		agw.Node().Originate(packet.NewControl(agw.Node().Addr(), attacker, order))
	}
	dep.Engine.ScheduleAt(0, send)
	dep.Engine.ScheduleAt(50*time.Millisecond, send)
	dep.Run(time.Second)

	st := dep.Attacker.Stats()
	if st.StopOrders != 1 {
		t.Fatalf("host counted %d stop orders, want 1", st.StopOrders)
	}
	if st.CtrlDupDrops != 1 {
		t.Fatalf("host dedup-dropped %d, want 1", st.CtrlDupDrops)
	}
	if dep.Attacker.ActiveStopOrders() != 1 {
		t.Fatalf("host holds %d active stop orders, want 1", dep.Attacker.ActiveStopOrders())
	}
}

// TestLossyLinkHandshakeRecovers: with heavy seeded control loss on
// the inter-gateway link, single-shot sends strand protocol rounds,
// but the reliable messenger's retransmission pushes the handshake
// through — the attack still ends in a filter and a stop order.
func TestLossyLinkHandshakeRecovers(t *testing.T) {
	dep := depth1(reliableOpts(), false, true)
	dep.Net.SeedFaults(7)
	dep.Net.SetLinkLoss(dep.VictimGWs[0].Node().Addr(), dep.AttackGWs[0].Node().Addr(), 0.35, 0)

	fl := dep.Flood(dep.Attacker, dep.Victim, floodBps)
	fl.Launch()
	dep.Run(6 * time.Second)

	agw := dep.AttackGWs[0]
	if agw.Stats().HandshakesOK == 0 {
		t.Fatalf("handshake never completed across the lossy link:\n%s", dep.Log)
	}
	var retx uint64
	for _, g := range append(dep.VictimGWs, dep.AttackGWs...) {
		retx += g.Stats().CtrlRetransmits
	}
	if retx == 0 {
		t.Fatal("no retransmissions on a 35%-loss control path")
	}
	if dep.Attacker.ActiveStopOrders() == 0 {
		t.Fatalf("stop order never landed:\n%s", dep.Log)
	}
}

// TestCrashRestoreKeepsFilterDeadlines: crash the attacker-side
// gateway mid-attack and restore it from its snapshot. The restored
// filter must survive with its original absolute deadline — it neither
// expires early nor outlives the T it was granted before the crash.
func TestCrashRestoreKeepsFilterDeadlines(t *testing.T) {
	opt := aitf.DefaultOptions()
	opt.Timers.T = 4 * time.Second
	dep := depth1(opt, false, true)
	fl := dep.Flood(dep.Attacker, dep.Victim, floodBps)
	fl.Launch()
	dep.Run(2 * time.Second)

	id := dep.IDs.AttackGW[0]
	if dep.AttackGWs[0].Filters().Len() == 0 {
		t.Fatalf("no filter at the attacker gateway before the crash:\n%s", dep.Log)
	}
	wantExp := dep.AttackGWs[0].Filters().Entries()[0].ExpiresAt

	snap := dep.CrashGateway(id)
	if snap == nil || len(snap.Filters) == 0 {
		t.Fatal("snapshot lost the installed filter")
	}
	dep.Run(300 * time.Millisecond)
	g := dep.RestoreGateway(id, snap)

	ents := g.Filters().Entries()
	if len(ents) != 1 {
		t.Fatalf("restored gateway holds %d filters, want 1", len(ents))
	}
	if ents[0].ExpiresAt != wantExp {
		t.Fatalf("restored filter deadline %v, want original %v", ents[0].ExpiresAt, wantExp)
	}

	// Just before the original deadline the filter is still up...
	dep.Run(wantExp - dep.Engine.Now() - 50*time.Millisecond)
	if len(g.Snapshot().Filters) != 1 {
		t.Fatalf("restored filter expired early (now %v, deadline %v)", dep.Now(), wantExp)
	}
	// ...and just after it, it is gone.
	dep.Run(200 * time.Millisecond)
	if len(g.Snapshot().Filters) != 0 {
		t.Fatalf("restored filter outlived its original deadline %v (now %v)", wantExp, dep.Now())
	}
}

// TestCrashRestoreLedgerSurvives: a crash with a handshake in flight
// keeps the accounting balanced — the restored gateway re-issues the
// verification query with its original nonce, and whether the round
// completes or times out, started = ok + failed + pending holds.
func TestCrashRestoreLedgerSurvives(t *testing.T) {
	dep := depth1(reliableOpts(), false, true)
	fl := dep.Flood(dep.Attacker, dep.Victim, floodBps)
	fl.Launch()

	// Crash the attacker gateway the moment its handshake starts, then
	// restore 200 ms later, inside the 1 s handshake window.
	id := dep.IDs.AttackGW[0]
	crashed := false
	var step func()
	step = func() {
		if !crashed && dep.AttackGWs[0].PendingHandshakes() > 0 {
			crashed = true
			snap := dep.CrashGateway(id)
			if len(snap.Pendings) == 0 {
				t.Error("snapshot lost the in-flight handshake")
			}
			at := dep.Engine.Now()
			dep.Engine.ScheduleAt(at+200*time.Millisecond, func() {
				dep.RestoreGateway(id, snap)
			})
			return
		}
		if !crashed {
			dep.Engine.ScheduleAt(dep.Engine.Now()+20*time.Millisecond, step)
		}
	}
	dep.Engine.ScheduleAt(0, step)
	dep.Run(5 * time.Second)

	if !crashed {
		t.Fatalf("no handshake ever started:\n%s", dep.Log)
	}
	g := dep.Gateways[id]
	st := g.Stats()
	if got := st.HandshakesOK + st.HandshakesFailed + uint64(g.PendingHandshakes()); got != st.HandshakesStarted {
		t.Fatalf("ledger broken across crash: %d started vs %d ok + %d failed + %d pending\n%s",
			st.HandshakesStarted, st.HandshakesOK, st.HandshakesFailed, g.PendingHandshakes(), dep.Log)
	}
	// The re-issued query (original nonce) must have completed the
	// round: the victim still wanted the flow blocked.
	if st.HandshakesOK == 0 {
		t.Fatalf("handshake never completed after restore:\n%s", dep.Log)
	}
	if g.OutstandingReliable() != 0 {
		t.Fatalf("%d retransmission ladders still outstanding", g.OutstandingReliable())
	}
}
