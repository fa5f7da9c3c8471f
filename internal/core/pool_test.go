package core_test

import (
	"testing"
	"time"

	"aitf"
	"aitf/internal/flow"
	"aitf/internal/packet"
)

// TestConsumedPacketsReturnToPool: the consumer releases. Once the
// packet pool, the link queues and the event slab are warm, a burst of
// 32 data packets from a host through two gateways to a host allocates
// nothing, because the receiving host hands each shell and its
// route-record array back to the pool; and a control message that a
// gateway consumes allocates nothing either.
func TestConsumedPacketsReturnToPool(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	opt := aitf.DefaultOptions()
	opt.Detector = nil
	dep := depth1(opt, false, true)
	attacker, victim := dep.Attacker, dep.Victim
	agw := dep.AttackGWs[0]
	if len(dep.AttackGWs) != 1 || len(dep.VictimGWs) != 1 {
		t.Fatalf("chain has %d attacker and %d victim gateways, want one each", len(dep.AttackGWs), len(dep.VictimGWs))
	}
	const burst = 32
	rounds := 0
	data := func() {
		for range burst {
			p := packet.NewData(attacker.Node().Addr(), victim.Node().Addr(), flow.ProtoUDP, 1, 80, 1000)
			if !attacker.SendData(p) {
				t.Fatal("SendData refused a packet")
			}
		}
		dep.Run(100 * time.Millisecond)
		rounds++
	}
	data()
	delivered := victim.Meter.Packets
	rounds = 0
	if allocs := testing.AllocsPerRun(50, data); allocs != 0 {
		t.Errorf("%v allocs per burst of %d packets through two gateways, want 0", allocs, burst)
	}
	if got, want := victim.Meter.Packets-delivered, uint64(rounds*burst); got != want {
		t.Fatalf("victim received %d packets, want %d", got, want)
	}

	// An unsolicited handshake reply: a_gw1 consumes it and drops it as
	// stale.
	reply := &packet.VerifyReply{Flow: flow.PairLabel(attacker.Node().Addr(), victim.Node().Addr()), Nonce: 1}
	control := func() {
		attacker.Node().Originate(packet.NewControl(attacker.Node().Addr(), agw.Node().Addr(), reply))
		dep.Run(100 * time.Millisecond)
	}
	control()
	before := agw.Stats().MsgProcessed
	if allocs := testing.AllocsPerRun(50, control); allocs != 0 {
		t.Errorf("%v allocs per control message a gateway consumes, want 0", allocs)
	}
	if got := agw.Stats().MsgProcessed - before; got != 51 {
		t.Fatalf("gateway processed %d control messages, want 51", got)
	}
}
