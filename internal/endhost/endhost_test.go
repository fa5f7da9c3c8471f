package endhost

import (
	"testing"
	"time"

	"aitf/internal/contract"
	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/packet"
)

var (
	self    = flow.MakeAddr(10, 0, 0, 2)
	gateway = flow.MakeAddr(10, 0, 0, 1)
	querier = flow.MakeAddr(10, 9, 0, 1) // an attacker's gateway
)

// detectorFunc adapts a function to Detector.
type detectorFunc func(now time.Duration, p *packet.Packet) (flow.Label, bool)

func (f detectorFunc) Observe(now time.Duration, p *packet.Packet) (flow.Label, bool) {
	return f(now, p)
}

// large flags every packet of 500 payload bytes or more, and counts the
// packets it is shown.
func large(seen *int) Detector {
	return detectorFunc(func(_ time.Duration, p *packet.Packet) (flow.Label, bool) {
		*seen++
		return flow.PairLabel(p.Src, p.Dst), p.PayloadLen >= 500
	})
}

// drain releases what out holds and empties it, returning how many
// sends it held and the first one's message.
func drain(out *Out) (int, packet.Message) {
	n := len(out.Sends)
	var m packet.Message
	for i, s := range out.Sends {
		if i == 0 {
			m = s.Msg
		}
		s.Release()
	}
	out.Reset()
	return n, m
}

func data(src flow.Addr, payload int) *packet.Packet {
	p := packet.NewData(src, self, flow.ProtoUDP, 4000, 80, payload)
	p.RecordRoute(gateway, uint64(src))
	return p
}

func query(label flow.Label) *packet.Packet {
	return packet.NewControl(querier, self, &packet.VerifyQuery{Flow: label, Nonce: 7})
}

func stopOrder(from flow.Addr, label flow.Label, d time.Duration, txid uint64) *packet.Packet {
	return packet.NewControl(from, self, &packet.FilterReq{Stage: packet.StageToAttacker, Flow: label, Duration: d, Txid: txid})
}

// checkWanted fails unless the table holds at most MaxWanted entries,
// every one of them linked once, in expiry order.
func checkWanted(t *testing.T, w *wantedTable) {
	t.Helper()
	n, prev := 0, int32(-1)
	for i := w.first; i >= 0; prev, i = i, w.slots[i].next {
		if e := &w.slots[i]; e.prev != prev || prev >= 0 && w.slots[prev].until > e.until || w.index[e.label] != i {
			t.Fatalf("slot %d (%v) out of place: prev %d, want %d", i, e.label, e.prev, prev)
		}
		n++
	}
	if n != len(w.index) || prev != w.last || n > MaxWanted {
		t.Fatalf("%d entries linked (last %d), %d indexed (last %d), cap %d", n, prev, len(w.index), w.last, MaxWanted)
	}
}

// TestReRequestRule pins the one re-request rule (§IV-A.1): while a
// request is live, a packet of its flow files a re-request at most once
// per ReRequestGap and never reaches the Detector; once the request has
// lapsed, the Detector decides again.
func TestReRequestRule(t *testing.T) {
	seen := 0
	tm := contract.Timers{T: time.Second}
	e := New(Config{Gateway: gateway, Timers: tm, Detector: large(&seen)})
	var out Out
	src := flow.MakeAddr(20, 0, 0, 1)
	step := func(at time.Duration, payload int, wantSends, wantSeen int) {
		t.Helper()
		e.Data(at, data(src, payload), &out)
		if n, m := drain(&out); n != wantSends || seen != wantSeen {
			t.Fatalf("at %v: %d sends (%T), detector shown %d packets; want %d and %d", at, n, m, seen, wantSends, wantSeen)
		}
	}
	step(0, 1000, 1, 1)                                         // detected: the request
	step(DefaultReRequestGap/2, 1000, 0, 1)                     // live, inside the gap
	step(DefaultReRequestGap, 1000, 1, 1)                       // live, past the gap: a re-request
	step(DefaultReRequestGap+tm.T, 100, 0, 2)                   // lapsed: the Detector's, under threshold
	step(DefaultReRequestGap+tm.T+time.Millisecond, 1000, 1, 3) // and over it: a new request
	if st := e.Stats(); st.RequestsSent != 2 || st.ReRequestsSent != 1 || st.DataReceived != 5 {
		t.Fatalf("stats %+v, want 2 requests, 1 re-request, 5 packets", st)
	}
}

// TestWantedBoundedUnderFlood: the wanted table is keyed on labels the
// attacker chooses, so detecting a flood of distinct sources must not
// grow it past MaxWanted. Each request past the bound evicts the one
// that expires first, so the newest request still answers its
// verification query and an evicted one does not.
func TestWantedBoundedUnderFlood(t *testing.T) {
	seen := 0
	e := New(Config{Gateway: gateway, Timers: contract.DefaultTimers(), Detector: large(&seen)})
	var out Out
	const flood = 100_000
	label := func(i int) flow.Label { return flow.PairLabel(flow.Addr(0x0b000000+i), self) }
	now := time.Duration(0)
	for i := 0; i < flood; i++ {
		now += time.Microsecond // the whole flood lies well inside T
		e.Data(now, data(label(i).Src, 1000), &out)
		drain(&out)
	}
	checkWanted(t, &e.wanted)
	st := e.Stats()
	if want := uint64(flood - MaxWanted); st.WantedEvicted != want {
		t.Fatalf("WantedEvicted = %d, want %d", st.WantedEvicted, want)
	}
	if st.RequestsSent != flood {
		t.Fatalf("%d requests sent for %d detections", st.RequestsSent, flood)
	}
	answered := func(l flow.Label) bool {
		e.Control(now, query(l), &out)
		n, _ := drain(&out)
		return n == 1
	}
	if !answered(label(flood - 1)) {
		t.Fatal("the newest request did not answer its verification query")
	}
	if answered(label(0)) || answered(label(flood-MaxWanted-1)) {
		t.Fatal("an evicted request answered its verification query")
	}
	if !answered(label(flood - MaxWanted)) {
		t.Fatal("the oldest resident request did not answer its verification query")
	}
}

// FuzzHostEngine drives an engine with byte scripts of data from a few
// sources and floods of new ones, verification queries, stop orders
// (new txid, replayed txid, non-gateway sender) and clock advances,
// and checks after every step that:
//   - the wanted table holds at most MaxWanted entries;
//   - a query is answered exactly when Wants(now, label) holds;
//   - a replayed (src, txid) inside filter.DedupWindow moves only
//     CtrlDupDrops;
//   - with a contract, requests plus re-requests stay within
//     R1Burst + R1·elapsed;
//   - a compliant engine blocks a tuple under a live stop order, and
//     stops blocking it at the deadline; a non-compliant one never
//     blocks.
func FuzzHostEngine(f *testing.F) {
	f.Add([]byte{0x07, 0x13, 0, 1, 0, 9, 2, 0, 3, 5, 4, 0, 6, 3, 0, 1, 2, 0, 6, 200, 0, 1})
	f.Add([]byte{0x02, 0x00, 1, 250, 2, 8, 2, 0, 6, 255, 2, 9})
	f.Add([]byte{0x03, 0x05, 3, 1, 3, 2, 4, 0, 5, 1, 6, 2, 4, 1, 6, 255, 4, 0, 6, 10})
	f.Add([]byte{0x05, 0x00, 1, 5, 0, 4, 6, 10, 0, 4, 6, 1, 0, 4})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			return
		}
		var c *contract.Contract
		if script[0]&1 != 0 {
			c = &contract.Contract{R1: float64(1 + script[1]%50), R1Burst: float64(1 + script[1]%7)}
		}
		compliant := script[0]&2 != 0
		tm := contract.Timers{T: time.Duration(1+script[0]>>2) * 50 * time.Millisecond}
		seen := 0
		e := New(Config{Gateway: gateway, Timers: tm, Detector: large(&seen), Contract: c, Compliant: compliant})
		out := Out{Trace: script[1]&0x80 != 0}
		script = script[2:]

		var now time.Duration
		src := func(i int) flow.Addr { return flow.MakeAddr(20, 0, 0, byte(1+i)) }
		target := func(k int) flow.Addr { return flow.MakeAddr(30, 0, 0, byte(1+k)) }
		flooded := 0 // flood sources are 0x0b000000 + i, i < flooded
		var deadline [4]time.Duration
		var txids []uint64
		recorded := map[uint64]time.Duration{} // txid -> when dedup last recorded it
		order := func(k int, txid uint64, d time.Duration) {
			e.Control(now, stopOrder(gateway, flow.PairLabel(self, target(k)), d, txid), &out)
			drain(&out)
		}
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i]%7, int(script[i+1])
			switch op {
			case 0: // one packet from a regular source, under or over threshold
				e.Data(now, data(src(arg%4), 100+900*(arg>>2&1)), &out)
				drain(&out)
			case 1: // a flood of new sources, each detected
				for j := 0; j < arg*40; j++ {
					e.Data(now, data(flow.Addr(0x0b000000+flooded), 1000), &out)
					drain(&out)
					flooded++
				}
			case 2: // a verification query, for a flow asked about or not
				l := flow.PairLabel(src(arg%6), self)
				if arg&8 != 0 && flooded > 0 {
					l = flow.PairLabel(flow.Addr(0x0b000000+(arg*37)%flooded), self)
				}
				want := e.Wants(now, l)
				before := e.Stats().QueriesAnswered
				e.Control(now, query(l), &out)
				n, m := drain(&out)
				r, ok := m.(*packet.VerifyReply)
				if answered := n == 1 && ok && r.Nonce == 7 && r.Flow == l; answered != want || n > 1 {
					t.Fatalf("query for %v at %v: %d sends (%T), want answered=%v", l, now, n, m, want)
				}
				if got := e.Stats().QueriesAnswered - before; got != uint64(n) {
					t.Fatalf("query answered with %d sends, QueriesAnswered moved %d", n, got)
				}
			case 3: // a stop order under a new txid
				if len(txids) >= 1000 {
					continue // stay far below filter.DedupCapacity
				}
				txid := uint64(len(txids) + 1)
				txids = append(txids, txid)
				recorded[txid] = now
				k, d := arg%4, time.Duration(arg>>2)*20*time.Millisecond
				order(k, txid, d)
				deadline[k] = now + d
			case 4: // a replayed stop order
				if len(txids) == 0 {
					continue
				}
				txid := txids[arg%len(txids)]
				k, d := int(txid)%4, time.Duration(arg>>2)*20*time.Millisecond
				before := e.Stats()
				order(k, txid, d)
				after := e.Stats()
				if now-recorded[txid] < filter.DedupWindow {
					before.CtrlDupDrops++
					if after != before {
						t.Fatalf("replayed txid %d at %v: stats %+v, want only CtrlDupDrops moved from %+v", txid, now, after, before)
					}
					continue
				}
				recorded[txid] = now // past the window it is a new order
				deadline[k] = now + d
			case 5: // a stop order from anyone but the gateway
				before := e.Stats()
				e.Control(now, stopOrder(querier, flow.PairLabel(self, target(arg%4)), time.Hour, uint64(1_000_000+arg)), &out)
				if n, _ := drain(&out); n != 0 || e.Stats() != before {
					t.Fatalf("stop order from a non-gateway sender acted: %d sends, stats %+v", n, e.Stats())
				}
			case 6: // the clock advances; the largest steps pass the dedup window
				if arg >= 250 {
					now += filter.DedupWindow
				} else {
					now += time.Duration(arg) * 5 * time.Millisecond
				}
			}

			checkWanted(t, &e.wanted)
			st := e.Stats()
			if c != nil {
				if sent, bound := float64(st.RequestsSent+st.ReRequestsSent), c.R1Burst+c.R1*now.Seconds(); sent > bound+1e-9 {
					t.Fatalf("%v requests by %v, bound R1Burst + R1·elapsed = %v", sent, now, bound)
				}
			}
			live := 0
			for k := range deadline {
				blocked := compliant && deadline[k] > now
				if blocked {
					live++
				}
				if allowed := e.MaySend(now, flow.TupleOf(self, target(k), flow.ProtoUDP, 4000, 80)); allowed == blocked {
					t.Fatalf("send to %v at %v: allowed=%v, want %v (deadline %v, compliant %v)", target(k), now, allowed, !blocked, deadline[k], compliant)
				}
			}
			if got := e.ActiveStopOrders(now); got != live {
				t.Fatalf("%d stop orders active at %v, want %d", got, now, live)
			}
		}
	})
}
