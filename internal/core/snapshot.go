package core

// Gateway snapshot/restore: the crash-survival path. Snapshot
// serializes everything a gateway must remember — the state the daemon
// shares (internal/durable: filters, shadows, handshakes, aggregates,
// the cluster log), protocol counters, and the simulator's own
// compliance checks and escalation watches — with absolute deadlines.
// Restore rebuilds that state into a freshly attached gateway on the
// clock it was captured on (durable's offset is 0 here) and re-arms
// each timer at its original deadline: no filter expires early, none
// lives past the deadline it was originally granted.

import (
	"sort"

	"aitf/internal/durable"
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
// durable protocol state: the state the daemon shares (durable.State,
// all times absolute virtual times) plus the simulator's own watches,
// compliance checks and disconnections.
type GatewaySnapshot struct {
	durable.State
	Stats        GatewayStats
	Watches      []WatchSnapshot
	Compliance   []ComplianceSnapshot
	Disconnected []DisconnectSnapshot
}

func labelLess(a, b flow.Label) bool { return a.String() < b.String() }

// parts are the owners of the gateway's shared durable state.
func (g *Gateway) parts() durable.Parts {
	return durable.Parts{DP: g.dp, Ladder: g.ladder, Ledger: g.hs, Agg: g.agg, Plane: g.plane}
}

// Snapshot captures the gateway's durable state. Output ordering is
// deterministic (sorted by label), so snapshotting inside a seeded
// simulation does not perturb replay fingerprints.
func (g *Gateway) Snapshot() *GatewaySnapshot {
	snap := &GatewaySnapshot{State: durable.Capture(g.now(), g.parts()), Stats: g.Stats()}
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
	snap.RestoreTables(g.parts(), now, func(ent filter.Entry, err error) {
		if err != nil {
			g.trace(obs.EvFilterRejected, ent.Label, "restore: "+err.Error())
			return
		}
		eng.ScheduleAt(ent.ExpiresAt, func() { g.dp.Expire(g.now()) })
	})

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

	snap.RestorePending(g.parts(), now)

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
