// Package durable is the gateway state both runtimes carry across a
// crash (the simulator's core) or a process restart (the daemon's
// wire): the filter table, the shadow log, the handshakes in flight,
// the §IV aggregate records and the cluster log. AITF's router state
// is bounded because every filter, temporary filter and shadow record
// has a deadline, and the snapshot is what carries those deadlines
// across a restart. So one rule moves them: capture keeps every
// instant as the writer read it, and restore moves all of them by one
// offset.
package durable

import (
	"slices"
	"sort"

	"aitf/internal/alloc"
	"aitf/internal/cluster"
	"aitf/internal/ctrl"
	"aitf/internal/dataplane"
	"aitf/internal/filter"
)

// State is a gateway's durable state at one instant. Every instant in
// it is on the clock of the gateway that captured it.
type State struct {
	TakenAt filter.Time `json:"taken_at_ns"`
	// NextTxid continues the ladder's txid sequence so post-restore
	// sends cannot collide with pre-crash ones inside a receiver's
	// dedup window.
	NextTxid uint64               `json:"next_txid"`
	Filters  []filter.Entry       `json:"filters"`
	Shadows  []filter.ShadowEntry `json:"shadows"`
	Pendings []ctrl.Pending       `json:"pendings"` // attacker-side handshakes in flight
	// Aggregates keep a restored cover splitting back; the covering
	// filters themselves are among Filters.
	Aggregates []alloc.Aggregate `json:"aggregates,omitempty"`
	// Cluster is the cluster overlay's replicated log, replica liveness
	// and log positions; nil without a cluster. Detection engines are
	// volatile by design: the merged sweep re-acquires attacks from live
	// traffic.
	Cluster *cluster.State `json:"cluster,omitempty"`
}

// Parts are the owners of one gateway's durable state.
type Parts struct {
	DP     *dataplane.Engine
	Ladder *ctrl.Ladder
	Ledger *ctrl.Ledger
	Agg    *alloc.Aggregator
	Plane  *cluster.Plane
}

// Capture takes p's durable state at now. Filters, shadows and
// aggregate records already lapsed are left out; every pending
// handshake stays, so a lapsed one still resolves as failed on
// restore. Each list is sorted by label, so capturing inside a seeded
// simulation does not perturb replay fingerprints.
func Capture(now filter.Time, p Parts) State {
	s := State{
		TakenAt:    now,
		NextTxid:   p.Ladder.NextTxid(),
		Filters:    slices.DeleteFunc(p.DP.FilterEntries(), func(e filter.Entry) bool { return e.ExpiresAt <= now }),
		Shadows:    slices.DeleteFunc(p.DP.ShadowEntries(), func(e filter.ShadowEntry) bool { return e.ExpiresAt <= now }),
		Pendings:   p.Ledger.Export(),
		Aggregates: slices.DeleteFunc(p.Agg.Export(), func(a alloc.Aggregate) bool { return a.Exp <= now }),
		Cluster:    p.Plane.ExportState(),
	}
	sort.Slice(s.Filters, func(i, j int) bool { return s.Filters[i].Label.String() < s.Filters[j].Label.String() })
	sort.Slice(s.Shadows, func(i, j int) bool { return s.Shadows[i].Label.String() < s.Shadows[j].Label.String() })
	return s
}

// Moved returns s with every instant moved by d, the one clock rule of
// a restore; s itself is left as it was. The simulator restores on the
// clock it captured on, so its d is 0. A daemon restarts on a new
// monotonic epoch, so its d is now − TakenAt − downtime: each deadline
// lands at the wall instant it had before the restart, neither
// extended by the outage nor cut short.
func (s State) Moved(d filter.Time) State {
	if d == 0 {
		return s
	}
	s.TakenAt += d
	s.Filters = moveEntries(s.Filters, d)
	s.Shadows = slices.Clone(s.Shadows)
	for i := range s.Shadows {
		s.Shadows[i].LoggedAt += d
		s.Shadows[i].ExpiresAt += d
	}
	s.Pendings = slices.Clone(s.Pendings)
	for i := range s.Pendings {
		s.Pendings[i].Deadline += d
	}
	s.Aggregates = slices.Clone(s.Aggregates)
	for i := range s.Aggregates {
		s.Aggregates[i].Exp += d
		s.Aggregates[i].Children = moveEntries(s.Aggregates[i].Children, d)
	}
	if s.Cluster != nil {
		cs := *s.Cluster
		cs.Ops = slices.Clone(cs.Ops)
		for i := range cs.Ops {
			cs.Ops[i].Expires += d
			cs.Ops[i].At += d
		}
		s.Cluster = &cs
	}
	return s
}

// moveEntries returns a copy of ents with each instant moved by d.
func moveEntries(ents []filter.Entry, d filter.Time) []filter.Entry {
	ents = slices.Clone(ents)
	for i := range ents {
		ents[i].InstalledAt += d
		ents[i].ExpiresAt += d
	}
	return ents
}

// RestoreTables adopts s's txid sequence, cluster log, filters and
// shadows into p, whose tables must be fresh; entries lapsed by now
// stay gone. Each filter live at now is passed to adopted with the
// error, if any, of adopting it. It returns how many filters and
// shadows came back.
func (s *State) RestoreTables(p Parts, now filter.Time, adopted func(filter.Entry, error)) (filters, shadows int) {
	p.Ladder.RestoreTxid(s.NextTxid)
	p.Plane.ImportState(s.Cluster, now)
	for _, ent := range s.Filters {
		if ent.ExpiresAt <= now {
			continue // lapsed during the outage: stays gone
		}
		err := p.DP.AdoptFilter(ent)
		if err == nil {
			filters++
		}
		adopted(ent, err)
	}
	for _, ent := range s.Shadows {
		if ent.ExpiresAt > now && p.DP.AdoptShadow(ent) {
			shadows++
		}
	}
	return filters, shadows
}

// RestorePending re-opens s's pending handshakes and adopts its
// aggregate records live at now. Each handshake re-issues its query
// with the original nonce (the reply may have been lost during the
// outage, and a duplicate reply is harmless); one whose window lapsed
// fails, so started = ok + failed + pending still balances. Restore
// the ledger's counters first; the caller re-arms its aggregate review.
func (s *State) RestorePending(p Parts, now filter.Time) {
	p.Ledger.Adopt(s.Pendings)
	p.Agg.Adopt(s.Aggregates, now)
}
