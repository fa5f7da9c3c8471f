package wire

import (
	"path/filepath"
	"testing"
	"time"

	"aitf/internal/contract"
	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/packet"
	"aitf/internal/sim"
)

// testRetry arms a fast retransmission ladder for wire tests.
func testRetry() RetryConfig {
	return RetryConfig{MaxAttempts: 4, RTO: 40 * time.Millisecond, Jitter: 0.2}
}

func TestParseResilienceConfig(t *testing.T) {
	cfg, err := ParseFileConfig([]byte(`{
		"role":"gateway","addr":"1.1.1.1","gateway":{
		"ctrl_max_attempts":4,"ctrl_rto_ms":120,"ctrl_jitter":0.25,
		"snapshot_path":"/tmp/gw.snapshot.json"}}`))
	if err != nil {
		t.Fatal(err)
	}
	gcfg, err := cfg.GatewayConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := RetryConfig{MaxAttempts: 4, RTO: 120 * time.Millisecond, Jitter: 0.25}
	if gcfg.Control != want {
		t.Fatalf("Control = %+v, want %+v", gcfg.Control, want)
	}
	if !gcfg.Control.Enabled() {
		t.Fatal("configured retransmission not enabled")
	}
	if gcfg.SnapshotPath != "/tmp/gw.snapshot.json" {
		t.Fatalf("SnapshotPath = %q", gcfg.SnapshotPath)
	}

	// Attempts without an RTO get the default.
	bare, err := ParseFileConfig([]byte(
		`{"role":"gateway","addr":"1.1.1.1","gateway":{"ctrl_max_attempts":3}}`))
	if err != nil {
		t.Fatal(err)
	}
	bcfg, err := bare.GatewayConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if bcfg.Control.RTO != 250*time.Millisecond || !bcfg.Control.Enabled() {
		t.Fatalf("default RTO not applied: %+v", bcfg.Control)
	}

	// Zero-value config keeps retransmission off entirely.
	off, err := ParseFileConfig([]byte(`{"role":"gateway","addr":"1.1.1.1","gateway":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	ocfg, err := off.GatewayConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ocfg.Control.Enabled() {
		t.Fatalf("zero config armed retransmission: %+v", ocfg.Control)
	}

	for _, bad := range []string{
		`{"role":"gateway","addr":"1.1.1.1","gateway":{"ctrl_max_attempts":-1}}`,
		`{"role":"gateway","addr":"1.1.1.1","gateway":{"ctrl_rto_ms":-5}}`,
		`{"role":"gateway","addr":"1.1.1.1","gateway":{"ctrl_jitter":1.5}}`,
		`{"role":"gateway","addr":"1.1.1.1","gateway":{"ctrl_jitter":-0.1}}`,
	} {
		if _, err := ParseFileConfig([]byte(bad)); err == nil {
			t.Fatalf("accepted invalid config %s", bad)
		}
	}
}

// snapGateway boots a minimal gateway writing its drain snapshot under
// dir. The route table gives it a next hop so restored pendings can
// re-issue queries without erroring.
func snapGateway(t *testing.T, dir string) *Gateway {
	t.Helper()
	g, err := NewGateway(GatewayConfig{
		Node: NodeConfig{
			Addr:    flow.MakeAddr(10, 0, 0, 1),
			Name:    "gw",
			NextHop: map[flow.Addr]flow.Addr{},
		},
		Timers:       testTimers(),
		Default:      contract.DefaultPeer(),
		Secret:       []byte("secret"),
		Control:      testRetry(),
		SnapshotPath: filepath.Join(dir, "gw.snapshot.json"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSnapshotRestoreHonorsDeadlines is the wire half of the
// crash/restore tentpole: a filter granted until deadline D before the
// drain still expires at D after the restore — the downtime is charged
// against its remaining lifetime — and entries that lapsed while the
// daemon was down stay gone.
func TestSnapshotRestoreHonorsDeadlines(t *testing.T) {
	dir := t.TempDir()
	g := snapGateway(t, dir)

	now := wallNow()
	longLived := flow.PairLabel(flow.MakeAddr(20, 0, 0, 1), flow.MakeAddr(10, 0, 0, 2))
	shortLived := flow.PairLabel(flow.MakeAddr(20, 0, 0, 2), flow.MakeAddr(10, 0, 0, 2))
	if err := g.dp.Install(longLived, now, now+sim.Time(5*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := g.dp.Install(shortLived, now, now+sim.Time(50*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	g.dp.LogShadow(longLived, flow.MakeAddr(10, 0, 0, 2), now, now+sim.Time(5*time.Second))
	// The original absolute deadline, in wall terms.
	longDeadline := time.Now().Add(5 * time.Second)
	g.mu.Lock()
	g.HandshakesOK = 7
	g.StopOrders = 3
	g.mu.Unlock()

	if err := g.Close(); err != nil { // snapshot-on-drain
		t.Fatal(err)
	}
	if g.Stats().SnapshotSaves != 0 {
		// SnapshotSaves is itself part of the snapshot taken before the
		// increment; the restored gateway sees the save through its own
		// restore counter instead.
		t.Log("note: save counted post-snapshot by design")
	}

	time.Sleep(120 * time.Millisecond) // downtime: the 50 ms filter lapses

	g2 := snapGateway(t, dir)
	defer g2.Close()
	snap, err := g2.RestoreFromDisk()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no snapshot found on boot")
	}
	st := g2.Stats()
	if st.SnapshotRestores != 1 || st.FiltersRestored != 1 || st.ShadowsRestored != 1 {
		t.Fatalf("restore counters = %+v", st)
	}
	if st.HandshakesOK != 7 || st.StopOrders != 3 {
		t.Fatalf("counters did not survive the restart: %+v", st)
	}

	entries := g2.dp.FilterEntries()
	if len(entries) != 1 || entries[0].Label != longLived {
		t.Fatalf("restored filters = %+v, want only the long-lived one", entries)
	}
	// The restored expiry must match the original absolute deadline:
	// neither extended by the restart nor cut short.
	gotRemaining := time.Duration(entries[0].ExpiresAt - wallNow())
	wantRemaining := time.Until(longDeadline)
	if diff := gotRemaining - wantRemaining; diff < -150*time.Millisecond || diff > 150*time.Millisecond {
		t.Fatalf("restored deadline drifted %v (got %v remaining, want %v)",
			diff, gotRemaining, wantRemaining)
	}
	if _, live := g2.dp.ShadowGet(longLived, wallNow()); !live {
		t.Fatal("shadow entry did not survive the restart")
	}
}

// TestSnapshotRestoreFailsLapsedPendings: an in-flight handshake whose
// window closed during the outage resolves as failed on restore, so
// started = ok + failed + pending balances across the crash.
func TestSnapshotRestoreFailsLapsedPendings(t *testing.T) {
	dir := t.TempDir()
	g := snapGateway(t, dir)
	label := flow.PairLabel(flow.MakeAddr(20, 0, 0, 9), flow.MakeAddr(10, 0, 0, 2))
	g.mu.Lock()
	g.HandshakesStarted = 1
	g.pendings[label.Key()] = &wirePending{
		req: &packet.FilterReq{
			Stage:  packet.StageToAttackerGW,
			Flow:   label,
			Victim: flow.MakeAddr(10, 0, 0, 2),
		},
		nonce:    42,
		cancel:   func() {},
		deadline: time.Now().Add(30 * time.Millisecond),
	}
	g.mu.Unlock()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	time.Sleep(60 * time.Millisecond) // the handshake window closes while down

	g2 := snapGateway(t, dir)
	defer g2.Close()
	if _, err := g2.RestoreFromDisk(); err != nil {
		t.Fatal(err)
	}
	st := g2.Stats()
	if st.HandshakesStarted != 1 || st.HandshakesFailed != 1 {
		t.Fatalf("lapsed pending not failed: %+v", st)
	}
	if got := st.HandshakesStarted - st.HandshakesOK - st.HandshakesFailed - uint64(g2.PendingHandshakes()); got != 0 {
		t.Fatalf("handshake ledger off by %d after restore", got)
	}
}

// TestWireDuplicateFilterReqDropped: a retransmitted FilterReq (same
// source, same txid) is absorbed before any counter or side effect —
// the receive path is idempotent.
func TestWireDuplicateFilterReqDropped(t *testing.T) {
	g := snapGateway(t, t.TempDir())
	defer g.Close()
	from := flow.MakeAddr(10, 0, 0, 5)
	mk := func() *packet.Packet {
		return packet.NewControl(from, g.node.Addr(), &packet.FilterReq{
			Stage:  packet.StageToVictimGW,
			Flow:   flow.PairLabel(flow.MakeAddr(30, 0, 0, 1), from),
			Victim: from,
			Txid:   777,
		})
	}
	g.Handle(g.node, mk(), from)
	g.Handle(g.node, mk(), from)
	st := g.Stats()
	if st.ReqReceived != 1 {
		t.Fatalf("ReqReceived = %d after a duplicate, want 1", st.ReqReceived)
	}
	if st.CtrlDupDrops != 1 {
		t.Fatalf("CtrlDupDrops = %d, want 1", st.CtrlDupDrops)
	}
	// Txid 0 (no retransmission engine at the sender) must bypass dedup.
	mk0 := func() *packet.Packet {
		return packet.NewControl(from, g.node.Addr(), &packet.FilterReq{
			Stage:  packet.StageToVictimGW,
			Flow:   flow.PairLabel(flow.MakeAddr(30, 0, 0, 2), from),
			Victim: from,
		})
	}
	g.Handle(g.node, mk0(), from)
	g.Handle(g.node, mk0(), from)
	if st := g.Stats(); st.ReqReceived != 3 {
		t.Fatalf("txid-0 requests deduped: ReqReceived = %d, want 3", st.ReqReceived)
	}
}

// TestDedupBoundedUnderFlood: the dedup memory is keyed on the
// spoofable packet source and consulted before the policer, so a flood
// of distinct (source, txid) pairs must neither grow it past its cap
// nor make each insert cost more than the last. The whole flood has to
// fit inside one dedup window — which a per-insert rescan of the memory
// does not — so every forgotten pair is an eviction and is counted.
func TestDedupBoundedUnderFlood(t *testing.T) {
	g := snapGateway(t, t.TempDir())
	defer g.Close()
	from := flow.MakeAddr(10, 0, 0, 5)
	req := func(src flow.Addr, txid uint64) *packet.Packet {
		return packet.NewControl(src, g.node.Addr(), &packet.FilterReq{
			Stage:  packet.StageToVictimGW,
			Flow:   flow.PairLabel(flow.MakeAddr(30, 0, 0, 1), src),
			Victim: src,
			Txid:   txid,
		})
	}
	const flood = 100_000
	start := time.Now()
	for i := 0; i < flood; i++ {
		g.Handle(g.node, req(flow.Addr(0x0b000000+i), uint64(i+1)), from)
	}
	if took := time.Since(start); took >= dedupWindow {
		t.Fatalf("flood of %d took %v, longer than the %v dedup window", flood, took, dedupWindow)
	}
	g.mu.Lock()
	resident := g.dedup.Len()
	g.mu.Unlock()
	if resident > filter.DedupCapacity {
		t.Fatalf("%d pairs resident, cap %d", resident, filter.DedupCapacity)
	}
	st := g.Stats()
	if st.ReqReceived != flood || st.CtrlDupDrops != 0 {
		t.Fatalf("distinct pairs deduped: %+v", st)
	}
	if want := uint64(flood - filter.DedupCapacity); st.CtrlDedupEvicted != want {
		t.Fatalf("CtrlDedupEvicted = %d, want %d", st.CtrlDedupEvicted, want)
	}
	// A pair still resident is still absorbed; the oldest one is not.
	g.Handle(g.node, req(flow.Addr(0x0b000000+flood-1), flood), from)
	g.Handle(g.node, req(flow.Addr(0x0b000000), 1), from)
	st = g.Stats()
	if st.CtrlDupDrops != 1 || st.ReqReceived != flood+1 {
		t.Fatalf("after replaying a recent and an evicted pair: dup drops %d, received %d; want 1, %d",
			st.CtrlDupDrops, st.ReqReceived, flood+1)
	}
}

// TestPolicersBoundedUnderFlood: the request policers are keyed on the
// previous hop, which a spoofer forges, so a flood of requests from
// distinct forged sources must not grow them past maxPolicers — each
// key past the bound evicts one — and a configured client is still held
// to its contract afterwards.
func TestPolicersBoundedUnderFlood(t *testing.T) {
	client := flow.MakeAddr(10, 0, 0, 2)
	// A slow refill, so no token comes back during the client's burst.
	c := contract.Contract{R1: 1, R1Burst: 10, R2: 1, R2Burst: 5}
	g, err := NewGateway(GatewayConfig{
		Node:    NodeConfig{Addr: flow.MakeAddr(10, 0, 0, 1), Name: "gw"},
		Clients: map[flow.Addr]contract.Contract{client: c},
		Default: contract.DefaultPeer(),
		Secret:  []byte("secret"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	request := func(src flow.Addr) {
		p := packet.NewControl(src, g.node.Addr(), &packet.FilterReq{
			Stage:  packet.StageToVictimGW,
			Flow:   flow.PairLabel(flow.MakeAddr(30, 0, 0, 1), src),
			Victim: src,
		})
		g.Handle(g.node, p, prevHop(p))
	}
	const flood = 100_000
	for i := 0; i < flood; i++ {
		request(flow.Addr(0x0b000000 + i))
	}
	g.mu.Lock()
	resident := len(g.policers)
	g.mu.Unlock()
	if resident > maxPolicers {
		t.Fatalf("%d policers resident, cap %d", resident, maxPolicers)
	}
	st := g.Stats()
	if want := uint64(flood - maxPolicers); st.PolicerEvicted != want {
		t.Fatalf("PolicerEvicted = %d, want %d", st.PolicerEvicted, want)
	}
	if st.ReqReceived != flood || st.ReqPoliced != 0 {
		t.Fatalf("every forged source has a full bucket, yet: %+v", st)
	}
	for i := 0; i <= int(c.R1Burst); i++ {
		request(client)
	}
	if got := g.Stats().ReqPoliced; got != 1 {
		t.Fatalf("%d back-to-back requests from the client: %d policed, want 1", int(c.R1Burst)+1, got)
	}
}

// TestWireHandshakeRetransmitsUntilTimeout: with the victim silent,
// the verification query rides the backoff ladder (retransmits
// counted) and the handshake still terminates as failed at its
// deadline, leaving the ledger balanced and no ladder running.
func TestWireHandshakeRetransmitsUntilTimeout(t *testing.T) {
	victimA := flow.MakeAddr(10, 0, 0, 2)
	attackerA := flow.MakeAddr(10, 9, 0, 2)
	// A mute sink plays the victim: bound socket, no replies.
	sink, err := NewNode(NodeConfig{Addr: victimA, Name: "mute"})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	g, err := NewGateway(GatewayConfig{
		Node: NodeConfig{
			Addr:    flow.MakeAddr(10, 9, 0, 1),
			Name:    "a_gw",
			NextHop: map[flow.Addr]flow.Addr{victimA: victimA},
		},
		Timers:           testTimers(),
		Default:          contract.DefaultPeer(),
		Secret:           []byte("agw-secret"),
		Control:          RetryConfig{MaxAttempts: 3, RTO: 30 * time.Millisecond},
		HandshakeTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.node.SetBook(Book{victimA: sink.UDPAddr().String()})
	g.Run()
	sink.Run()

	// A StageToAttackerGW request bearing this gateway's own stamp.
	label := flow.PairLabel(attackerA, victimA)
	req := &packet.FilterReq{
		Stage:    packet.StageToAttackerGW,
		Flow:     label,
		Duration: time.Second,
		Round:    1,
		Victim:   victimA,
		Evidence: []packet.RREntry{{
			Router: g.node.Addr(),
			Nonce:  g.rec.Nonce(flow.Tuple{Src: attackerA, Dst: victimA}),
		}},
	}
	g.Handle(g.node, packet.NewControl(victimA, g.node.Addr(), req), victimA)

	waitUntil(t, 2*time.Second, func() bool {
		st := g.Stats()
		return st.HandshakesFailed == 1 && st.CtrlRetransmits >= 2
	}, "handshake did not retransmit and fail cleanly")
	st := g.Stats()
	if st.CtrlRetransmits > uint64(g.cfg.Control.MaxAttempts-1) {
		t.Fatalf("retransmission did not terminate: %d attempts", st.CtrlRetransmits)
	}
	if st.HandshakesStarted != 1 || g.PendingHandshakes() != 0 {
		t.Fatalf("ledger off after timeout: %+v, %d pending", st, g.PendingHandshakes())
	}
}

// TestWireReliableRoundCompletes: with retransmission armed on both
// gateways, the full AITF round still completes exactly once — the
// blind redundant relay is absorbed by txid dedup instead of
// double-driving the handshake.
func TestWireReliableRoundCompletes(t *testing.T) {
	r := buildRigCtrl(t, true, testRetry())
	victimAddr := r.victim.Node().Addr()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				r.attacker.SendData(victimAddr, flow.ProtoUDP, 4000, 80, 500)
			}
		}
	}()

	waitUntil(t, 5*time.Second, func() bool {
		return r.agw.Stats().HandshakesOK > 0
	}, "handshake never completed with retransmission armed")
	waitUntil(t, 5*time.Second, func() bool {
		r.attacker.mu.Lock()
		defer r.attacker.mu.Unlock()
		return r.attacker.SuppressedSends > 0
	}, "stop order never landed with retransmission armed")

	// The redundant relay copy arrives ~RTO later and must be absorbed.
	waitUntil(t, 2*time.Second, func() bool {
		return r.agw.Stats().CtrlDupDrops >= 1
	}, "redundant relay was never deduped at the attacker gateway")
	st := r.agw.Stats()
	if st.HandshakesOK != 1 {
		t.Fatalf("HandshakesOK = %d, want exactly 1 despite duplicates", st.HandshakesOK)
	}
	if got := st.HandshakesStarted - st.HandshakesOK - st.HandshakesFailed - uint64(r.agw.PendingHandshakes()); got != 0 {
		t.Fatalf("handshake ledger off by %d", got)
	}
	if st.CtrlReliableSends == 0 {
		t.Fatal("no send went through the reliable messenger")
	}
}
