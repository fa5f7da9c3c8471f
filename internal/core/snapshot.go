package core

// Gateway snapshot/restore: the crash-survival path. Snapshot
// serializes everything a gateway must remember — the filter table,
// the shadow cache, protocol counters, and every in-flight pending
// (handshakes, compliance checks, escalation watches) with its
// absolute deadline. Restore rebuilds that state into a freshly
// attached gateway and re-arms each timer at its original deadline,
// so a daemon restart mid-attack keeps filtering: no filter expires
// early, none lives past the deadline it was originally granted.

import (
	"sort"

	"aitf/internal/alloc"
	"aitf/internal/cluster"
	"aitf/internal/ctrl"
	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/packet"
	"aitf/internal/sim"
	"aitf/internal/traceback"
)

// WatchSnapshot is the serialized form of one victim-side watch.
type WatchSnapshot struct {
	Label       flow.Label
	Victim      flow.Addr
	Evidence    []packet.RREntry
	Ingress     flow.Addr
	Round       int
	LastSeen    sim.Time
	HaveSeen    bool
	TempUntil   sim.Time
	InstalledAt sim.Time
}

// ComplianceSnapshot is one stop order awaiting its compliance check.
type ComplianceSnapshot struct {
	Label    flow.Label
	Client   flow.Addr
	Deadline sim.Time // end of the client's grace period
	LastSeen sim.Time
	HaveSeen bool
	CheckAt  sim.Time // absolute time of the compliance check
}

// DisconnectSnapshot records one neighbor serving a penalty.
type DisconnectSnapshot struct {
	Neighbor flow.Addr
	Until    sim.Time
}

// GatewaySnapshot is a point-in-time serialization of a gateway's
// durable protocol state. All times are absolute virtual times; the
// wire runtime's on-disk form converts them to remaining durations
// (see internal/wire).
type GatewaySnapshot struct {
	TakenAt      sim.Time
	Stats        GatewayStats
	Filters      []filter.Entry
	Shadows      []filter.ShadowEntry
	Watches      []WatchSnapshot
	Pendings     []ctrl.Pending // attacker-side handshakes in flight
	Compliance   []ComplianceSnapshot
	Aggregates   []alloc.Aggregate
	Disconnected []DisconnectSnapshot
	// NextTxid continues the ladder's txid sequence so post-restore
	// sends cannot collide with pre-crash ones inside a receiver's
	// dedup window.
	NextTxid uint64
	// Cluster is the cluster overlay's durable state (replicated log,
	// replica liveness, log positions, counters); nil when clustering
	// is disabled. Detection engines are volatile by design — the
	// merged sweep re-acquires attacks from live traffic.
	Cluster *cluster.State
}

func labelLess(a, b flow.Label) bool { return a.String() < b.String() }

// Snapshot captures the gateway's durable state. Output ordering is
// deterministic (sorted by label), so snapshotting inside a seeded
// simulation does not perturb replay fingerprints.
func (g *Gateway) Snapshot() *GatewaySnapshot {
	snap := &GatewaySnapshot{
		TakenAt:  g.now(),
		Stats:    g.Stats(),
		Filters:  g.dp.FilterEntries(),
		Shadows:  g.dp.ShadowEntries(),
		Pendings: g.hs.Export(),
		NextTxid: g.ladder.NextTxid(),
		Cluster:  g.plane.ExportState(),
	}
	sort.Slice(snap.Filters, func(i, j int) bool { return labelLess(snap.Filters[i].Label, snap.Filters[j].Label) })
	sort.Slice(snap.Shadows, func(i, j int) bool { return labelLess(snap.Shadows[i].Label, snap.Shadows[j].Label) })
	for _, w := range g.watches {
		snap.Watches = append(snap.Watches, WatchSnapshot{
			Label:       w.label,
			Victim:      w.victim,
			Evidence:    append([]packet.RREntry(nil), w.evidence...),
			Ingress:     w.ingress,
			Round:       w.round,
			LastSeen:    w.lastSeen,
			HaveSeen:    w.haveSeen,
			TempUntil:   w.tempUntil,
			InstalledAt: w.installedAt,
		})
	}
	sort.Slice(snap.Watches, func(i, j int) bool { return labelLess(snap.Watches[i].Label, snap.Watches[j].Label) })
	for _, c := range g.compliance {
		snap.Compliance = append(snap.Compliance, ComplianceSnapshot{
			Label:    c.label,
			Client:   c.client,
			Deadline: c.deadline,
			LastSeen: c.lastSeen,
			HaveSeen: c.haveSeen,
			CheckAt:  c.deadline + sim.Time(g.cfg.Timers.Grace),
		})
	}
	sort.Slice(snap.Compliance, func(i, j int) bool { return labelLess(snap.Compliance[i].Label, snap.Compliance[j].Label) })
	snap.Aggregates = g.agg.Export()
	for n, until := range g.disconnected {
		snap.Disconnected = append(snap.Disconnected, DisconnectSnapshot{Neighbor: n, Until: until})
	}
	sort.Slice(snap.Disconnected, func(i, j int) bool { return snap.Disconnected[i].Neighbor < snap.Disconnected[j].Neighbor })
	return snap
}

// Halt freezes the gateway's control plane: every cancellable timer is
// cancelled, outstanding retransmission ladders stop, and scheduled
// closures that cannot be cancelled become no-ops. It models the
// protocol half of a crash — take Snapshot first if the state should
// survive, then crash the node (netsim.Node.Crash) to kill the data
// plane.
func (g *Gateway) Halt() {
	g.halted = true
	for _, w := range g.watches {
		if w.check != nil {
			w.check.Cancel()
		}
	}
	g.hs.StopAll()
	for _, c := range g.compliance {
		if c.check != nil {
			c.check.Cancel()
		}
	}
	g.ladder.StopAll()
}

// Restore rebuilds snapshotted state into this gateway, which must be
// freshly constructed and attached. Every timer re-arms at its
// original absolute deadline (ScheduleAt clamps deadlines that passed
// during the outage to "now", so overdue work runs immediately);
// entries whose deadlines lapsed while the gateway was down are not
// resurrected. Counters continue from the snapshot, so accounting
// balances (handshakes started vs resolved) survive the crash.
func (g *Gateway) Restore(snap *GatewaySnapshot) {
	now := g.now()
	eng := g.node.Engine()
	g.restoreStats(snap.Stats)
	g.ladder.RestoreTxid(snap.NextTxid)
	g.plane.ImportState(snap.Cluster, now)

	for _, ent := range snap.Filters {
		if ent.ExpiresAt <= now {
			continue // lapsed during the outage: stays gone
		}
		if err := g.dp.AdoptFilter(ent); err != nil {
			g.trace(obs.EvFilterRejected, ent.Label, "restore: "+err.Error())
			continue
		}
		exp := ent.ExpiresAt
		eng.ScheduleAt(exp, func() { g.dp.Expire(g.now()) })
	}
	for _, ent := range snap.Shadows {
		if ent.ExpiresAt <= now {
			continue
		}
		g.dp.AdoptShadow(ent)
	}

	for _, ws := range snap.Watches {
		w := &vwatch{
			label:       ws.Label,
			victim:      ws.Victim,
			evidence:    traceback.AttackPath(ws.Evidence),
			ingress:     ws.Ingress,
			round:       ws.Round,
			lastSeen:    ws.LastSeen,
			haveSeen:    ws.HaveSeen,
			tempUntil:   ws.TempUntil,
			installedAt: ws.InstalledAt,
		}
		g.watches[w.label.Key()] = w
		if w.tempUntil > now {
			// The temporary filter is still up: re-arm the takeover
			// check at its original Ttmp deadline.
			installedAt := w.installedAt
			w.check = eng.ScheduleAt(installedAt+sim.Time(g.cfg.Timers.Ttmp), func() {
				g.takeoverCheck(w, installedAt)
			})
		}
		g.scheduleWatchGC(w)
	}

	// Pending handshakes re-issue their queries with the original
	// nonces; those whose window closed while we were down fail.
	g.hs.Adopt(snap.Pendings)

	for _, cs := range snap.Compliance {
		comp := &compliance{
			label:    cs.Label,
			client:   cs.Client,
			deadline: cs.Deadline,
			lastSeen: cs.LastSeen,
			haveSeen: cs.HaveSeen,
		}
		g.compliance[cs.Label.Key()] = comp
		comp.check = eng.ScheduleAt(cs.CheckAt, func() { g.complianceCheck(comp) })
	}

	g.agg.Adopt(snap.Aggregates, now)
	if g.agg.Len() > 0 {
		g.armAggregateReview()
	}

	for _, ds := range snap.Disconnected {
		if ds.Until > now {
			g.disconnected[ds.Neighbor] = ds.Until
		}
	}
	g.trace(obs.EvGatewayRestored, flow.Label{}, "state restored from snapshot")
}
