package durable

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"aitf/internal/alloc"
	"aitf/internal/cluster"
	"aitf/internal/ctrl"
	"aitf/internal/dataplane"
	"aitf/internal/detect"
	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/packet"
	"aitf/internal/sim"
)

// fakeClock is a control-plane clock that never fires: restore only
// arms timers, and the test reads the state they guard.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration                  { return c.now }
func (c *fakeClock) Arm(time.Duration, func()) sim.Timer { return sim.Timer{} }
func (c *fakeClock) Stop(sim.Timer)                      {}

// freshParts builds an empty set of owners on clk, clustered so the
// cluster log restores too.
func freshParts(clk *fakeClock) Parts {
	trace := func(obs.EventKind, flow.Label, string) {}
	dp := dataplane.New(dataplane.Config{
		Shards: 2, FilterCapacity: 256, ShadowCapacity: 256,
		ShadowLookup: true, Clock: dataplane.ClockFunc(func() filter.Time { return clk.now }),
	})
	ladder := ctrl.NewLadder(ctrl.Config{}, clk, func() float64 { return 0 }, func(p *packet.Packet) { p.Release() }, trace)
	plane := cluster.NewPlane(detect.Config{}, nil, cluster.Config{Replicas: 2, Replicate: true}, trace)
	return Parts{
		DP:     dp,
		Ladder: ladder,
		Ledger: ctrl.NewLedger(ladder, clk, time.Second, trace),
		Agg:    alloc.NewAggregator(dp, nil, plane, trace, clk, time.Second),
		Plane:  plane,
	}
}

// randomState draws a state taken at 10 s whose deadlines straddle the
// restore instants the test uses: some lapse during the outage.
func randomState(r *rand.Rand) State {
	const takenAt = 10 * time.Second
	at := func() filter.Time { return takenAt - time.Duration(r.Int63n(int64(5*time.Second))) }
	exp := func() filter.Time { return takenAt + time.Duration(r.Int63n(int64(4*time.Second))) - time.Second }
	label := func(i int) flow.Label { return flow.PairLabel(flow.Addr(0x14000000+i), flow.MakeAddr(10, 0, 0, 2)) }
	s := State{TakenAt: takenAt, NextTxid: uint64(r.Intn(1000))}
	for i := range 1 + r.Intn(40) {
		s.Filters = append(s.Filters, filter.Entry{Label: label(i), InstalledAt: at(), ExpiresAt: exp(),
			Drops: uint64(r.Intn(1e6)), DroppedBytes: uint64(r.Intn(1e9))})
	}
	for i := range r.Intn(40) {
		s.Shadows = append(s.Shadows, filter.ShadowEntry{Label: label(i), LoggedAt: at(), ExpiresAt: exp(),
			Reappearances: r.Intn(9), Victim: flow.MakeAddr(10, 0, 0, 2)})
	}
	for i := range r.Intn(8) {
		s.Pendings = append(s.Pendings, ctrl.Pending{
			Req:      packet.FilterReq{Stage: packet.StageToAttackerGW, Flow: label(100 + i), Victim: flow.MakeAddr(10, 0, 0, 2)},
			Nonce:    r.Uint64(),
			Deadline: exp(),
		})
	}
	for i := range r.Intn(4) {
		agg := alloc.Aggregate{Label: flow.SrcPrefixLabel(flow.MakeAddr(30, byte(i), 0, 0), 24, flow.MakeAddr(10, 0, 0, 2)), Exp: exp()}
		for j := range 1 + r.Intn(4) { // children lapse independently of their cover
			agg.Children = append(agg.Children, filter.Entry{Label: flow.PairLabel(flow.MakeAddr(30, byte(i), 0, byte(j)), flow.MakeAddr(10, 0, 0, 2)),
				InstalledAt: at(), ExpiresAt: exp()})
		}
		s.Aggregates = append(s.Aggregates, agg)
	}
	cs := &cluster.State{Alive: []bool{true, true}}
	for i := range r.Intn(6) {
		cs.Ops = append(cs.Ops, cluster.Op{Seq: uint64(i + 1), Kind: cluster.OpInstall, Label: label(i), Expires: exp(), At: at(), Origin: i % 2})
	}
	cs.LastApplied = []uint64{uint64(len(cs.Ops)), uint64(len(cs.Ops))}
	s.Cluster = cs
	return s
}

// TestRestoreMovesEveryInstantByOneOffset: a state survives
// encoding/json and a restore at offsets 0, +5 s and −5 s into fresh
// parts with every surviving instant moved by exactly the offset,
// exactly the lapsed filters and shadows dropped, every counter a
// filter carries kept, and the handshake ledger balanced.
func TestRestoreMovesEveryInstantByOneOffset(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := range 60 {
		orig := randomState(r)
		raw, err := json.Marshal(orig)
		if err != nil {
			t.Fatal(err)
		}
		for _, off := range []filter.Time{0, 5 * time.Second, -5 * time.Second} {
			var decoded State
			if err := json.Unmarshal(raw, &decoded); err != nil {
				t.Fatal(err)
			}
			downtime := time.Duration(r.Int63n(int64(2 * time.Second)))
			clk := &fakeClock{now: orig.TakenAt + off + downtime}
			p := freshParts(clk)
			const ok = 3
			p.Ledger.RestoreStats(ctrl.LedgerStats{Started: uint64(len(orig.Pendings) + ok), OK: ok})

			st := decoded.Moved(off)
			filters, shadows := st.RestoreTables(p, clk.now, func(ent filter.Entry, err error) {
				if err != nil {
					t.Fatalf("adopt %v: %v", ent.Label, err)
				}
			})
			st.RestorePending(p, clk.now)

			lapsed := func(exp filter.Time) bool { return exp+off <= clk.now }
			var wantF []filter.Entry
			for _, e := range orig.Filters {
				if !lapsed(e.ExpiresAt) {
					e.InstalledAt += off
					e.ExpiresAt += off
					wantF = append(wantF, e)
				}
			}
			var wantS []filter.ShadowEntry
			for _, e := range orig.Shadows {
				if !lapsed(e.ExpiresAt) {
					e.LoggedAt += off
					e.ExpiresAt += off
					wantS = append(wantS, e)
				}
			}
			var wantA []alloc.Aggregate
			for _, a := range orig.Aggregates {
				if !lapsed(a.Exp) {
					wantA = append(wantA, alloc.Aggregate{Label: a.Label, Exp: a.Exp + off, Children: moveEntries(a.Children, off)})
				}
			}
			got := Capture(clk.now, p)
			if filters != len(wantF) || shadows != len(wantS) {
				t.Fatalf("trial %d off %v: restored %d filters, %d shadows; want %d, %d", trial, off, filters, shadows, len(wantF), len(wantS))
			}
			if !sameEntries(got.Filters, wantF) || !sameEntries(got.Shadows, wantS) || !sameEntries(got.Aggregates, wantA) {
				t.Fatalf("trial %d off %v: tables\n got %+v\n%+v\n%+v\nwant %+v\n%+v\n%+v", trial, off,
					got.Filters, got.Shadows, got.Aggregates, wantF, wantS, wantA)
			}
			live := 0
			for _, o := range orig.Pendings {
				if !lapsed(o.Deadline) {
					live++
				}
			}
			if len(got.Pendings) != live {
				t.Fatalf("trial %d off %v: %d pendings restored, want %d", trial, off, len(got.Pendings), live)
			}
			for _, pd := range got.Pendings {
				i := 0
				for orig.Pendings[i].Req.Flow != pd.Req.Flow {
					i++
				}
				if o := orig.Pendings[i]; pd.Deadline != o.Deadline+off || pd.Nonce != o.Nonce || lapsed(o.Deadline) {
					t.Fatalf("trial %d off %v: pending %+v restored from %+v", trial, off, pd, o)
				}
			}
			ls := p.Ledger.Stats()
			if ls.Started != ls.OK+ls.Failed+uint64(p.Ledger.Pending()) {
				t.Fatalf("trial %d off %v: ledger %+v with %d pending does not balance", trial, off, ls, p.Ledger.Pending())
			}
			for i, op := range got.Cluster.Ops {
				if o := orig.Cluster.Ops[i]; op.At != o.At+off || op.Expires != o.Expires+off {
					t.Fatalf("trial %d off %v: cluster op %+v restored from %+v", trial, off, op, o)
				}
			}
			if got.NextTxid < orig.NextTxid {
				t.Fatalf("trial %d: txid went back from %d to %d", trial, orig.NextTxid, got.NextTxid)
			}
			if !reflect.DeepEqual(decoded, orig) {
				t.Fatalf("trial %d: Moved changed the state it was called on", trial)
			}
		}
	}
}

// sameEntries compares two lists as sets sorted by label.
func sameEntries[E any](got, want []E) bool {
	if len(got) == 0 && len(want) == 0 {
		return true
	}
	key := func(e E) string { return reflect.ValueOf(e).FieldByName("Label").Interface().(flow.Label).String() }
	index := make(map[string]E, len(want))
	for _, w := range want {
		index[key(w)] = w
	}
	if len(got) != len(want) {
		return false
	}
	for _, g := range got {
		if w, ok := index[key(g)]; !ok || !reflect.DeepEqual(g, w) {
			return false
		}
	}
	return true
}
