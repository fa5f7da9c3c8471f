package wire

// Gateway snapshot/restore, wire form. The simulator gateway
// (internal/core) snapshots absolute virtual times; a daemon restart
// has no shared clock with its predecessor, so the on-disk form stores
// remaining durations plus the wall-clock instant the snapshot was
// taken. Restore subtracts the downtime, so a filter granted until
// deadline D before the crash still expires at D after it — no early
// expiry, no immortal filters.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"aitf/internal/cluster"
	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/packet"
	"aitf/internal/sim"
)

// diskSnapshotVersion guards the on-disk schema.
const diskSnapshotVersion = 1

// DiskFilter is one filter-table entry with its remaining lifetime.
type DiskFilter struct {
	Label     flow.Label    `json:"label"`
	Age       time.Duration `json:"age_ns"`
	Remaining time.Duration `json:"remaining_ns"`
}

// DiskShadow is one shadow-cache entry with its remaining lifetime.
type DiskShadow struct {
	Label         flow.Label    `json:"label"`
	Victim        flow.Addr     `json:"victim"`
	Age           time.Duration `json:"age_ns"`
	Remaining     time.Duration `json:"remaining_ns"`
	Reappearances int           `json:"reappearances"`
	Round         int           `json:"round"`
}

// DiskPending is one in-flight attacker-side handshake; restore
// re-issues the verification query with the original nonce and re-arms
// the timeout at its remaining window.
type DiskPending struct {
	Req       packet.FilterReq `json:"req"`
	Nonce     uint64           `json:"nonce"`
	Remaining time.Duration    `json:"remaining_ns"`
}

// DiskSnapshot is the wire gateway's durable state as written to
// SnapshotPath on drain and restored on boot.
type DiskSnapshot struct {
	Version int    `json:"version"`
	Node    string `json:"node"`
	// TakenAtUnixNs dates the snapshot so restore can charge the
	// downtime against every remaining duration.
	TakenAtUnixNs int64 `json:"taken_at_unix_ns"`
	// TakenAtMono is the writer's monotonic clock (wallNow) at snapshot
	// time; restore uses it to rebase the cluster log's absolute
	// timestamps onto the successor's epoch.
	TakenAtMono time.Duration `json:"taken_at_mono_ns"`
	Stats       GatewayStats  `json:"stats"`
	NextTxid    uint64        `json:"next_txid"`
	Filters     []DiskFilter  `json:"filters"`
	Shadows     []DiskShadow  `json:"shadows"`
	Pendings    []DiskPending `json:"pendings"`
	// Cluster carries the replicated filter log and per-replica
	// liveness/log positions when the gateway runs clustered; detection
	// engines are volatile and re-acquire from live traffic.
	Cluster *cluster.State `json:"cluster,omitempty"`
}

// Snapshot captures the gateway's durable state with remaining
// durations relative to now. Output ordering is deterministic (sorted
// by label). Safe to call on a running gateway; Close calls it after
// the socket has drained.
func (g *Gateway) Snapshot() *DiskSnapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := wallNow()
	snap := &DiskSnapshot{
		Version:       diskSnapshotVersion,
		Node:          g.node.Name(),
		TakenAtUnixNs: time.Now().UnixNano(),
		TakenAtMono:   time.Duration(now),
		Stats:         g.statsLocked(),
		NextTxid:      g.nextTxid,
	}
	if g.clu != nil {
		snap.Cluster = g.clu.ExportState()
	}
	for _, ent := range g.dp.FilterEntries() {
		if ent.ExpiresAt <= now {
			continue
		}
		snap.Filters = append(snap.Filters, DiskFilter{
			Label:     ent.Label,
			Age:       time.Duration(now - ent.InstalledAt),
			Remaining: time.Duration(ent.ExpiresAt - now),
		})
	}
	sort.Slice(snap.Filters, func(i, j int) bool {
		return snap.Filters[i].Label.String() < snap.Filters[j].Label.String()
	})
	for _, ent := range g.dp.ShadowEntries() {
		if ent.ExpiresAt <= now {
			continue
		}
		snap.Shadows = append(snap.Shadows, DiskShadow{
			Label:         ent.Label,
			Victim:        ent.Victim,
			Age:           time.Duration(now - ent.LoggedAt),
			Remaining:     time.Duration(ent.ExpiresAt - now),
			Reappearances: ent.Reappearances,
			Round:         ent.Round,
		})
	}
	sort.Slice(snap.Shadows, func(i, j int) bool {
		return snap.Shadows[i].Label.String() < snap.Shadows[j].Label.String()
	})
	for _, pend := range g.pendings {
		snap.Pendings = append(snap.Pendings, DiskPending{
			Req:       *pend.req,
			Nonce:     pend.nonce,
			Remaining: time.Until(pend.deadline),
		})
	}
	sort.Slice(snap.Pendings, func(i, j int) bool {
		return snap.Pendings[i].Req.Flow.String() < snap.Pendings[j].Req.Flow.String()
	})
	return snap
}

// Restore rebuilds snapshotted state into this gateway, charging the
// downtime since the snapshot was taken against every remaining
// duration; entries whose lifetimes lapsed while the daemon was down
// stay gone, and lapsed pending handshakes resolve as failed so the
// accounting ledger still balances. Call before Run.
func (g *Gateway) Restore(snap *DiskSnapshot) error {
	if snap.Version != diskSnapshotVersion {
		return fmt.Errorf("wire: snapshot version %d, want %d", snap.Version, diskSnapshotVersion)
	}
	downtime := time.Since(time.Unix(0, snap.TakenAtUnixNs))
	if downtime < 0 {
		downtime = 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	now := wallNow()

	g.ReqReceived = snap.Stats.ReqReceived
	g.ReqPoliced = snap.Stats.ReqPoliced
	g.ReqInvalid = snap.Stats.ReqInvalid
	g.HandshakesStarted = snap.Stats.HandshakesStarted
	g.HandshakesOK = snap.Stats.HandshakesOK
	g.HandshakesFailed = snap.Stats.HandshakesFailed
	g.StopOrders = snap.Stats.StopOrders
	g.Aggregations = snap.Stats.Aggregations
	g.CollateralBytes = snap.Stats.CollateralBytes
	g.Detections = snap.Stats.Detections
	g.CtrlReliableSends = snap.Stats.CtrlReliableSends
	g.CtrlRetransmits = snap.Stats.CtrlRetransmits
	g.CtrlDupDrops = snap.Stats.CtrlDupDrops
	g.dedup.Evicted = snap.Stats.CtrlDedupEvicted
	g.PolicerEvicted = snap.Stats.PolicerEvicted
	g.SnapshotSaves = snap.Stats.SnapshotSaves
	g.FilterDrops.Store(snap.Stats.FilterDrops)
	g.ShadowHits.Store(snap.Stats.ShadowHits)
	if snap.NextTxid > g.nextTxid {
		// Continue the txid sequence: post-restore sends must not collide
		// with pre-crash ones inside a receiver's dedup window.
		g.nextTxid = snap.NextTxid
	}

	for _, df := range snap.Filters {
		remaining := df.Remaining - downtime
		if remaining <= 0 {
			continue // lapsed during the outage: stays gone
		}
		ent := filter.Entry{
			Label:       df.Label,
			InstalledAt: now - sim.Time(df.Age+downtime),
			ExpiresAt:   now + sim.Time(remaining),
		}
		if err := g.dp.AdoptFilter(ent); err != nil {
			g.logf("restore filter %v: %v", df.Label, err)
			continue
		}
		g.FiltersRestored++
	}
	for _, ds := range snap.Shadows {
		remaining := ds.Remaining - downtime
		if remaining <= 0 {
			continue
		}
		if g.dp.AdoptShadow(filter.ShadowEntry{
			Label:         ds.Label,
			Victim:        ds.Victim,
			LoggedAt:      now - sim.Time(ds.Age+downtime),
			ExpiresAt:     now + sim.Time(remaining),
			Reappearances: ds.Reappearances,
			Round:         ds.Round,
		}) {
			g.ShadowsRestored++
		}
	}
	for _, dp := range snap.Pendings {
		remaining := dp.Remaining - downtime
		label := dp.Req.Flow.Canonical()
		if remaining <= 0 {
			// The handshake window closed while we were down.
			g.HandshakesFailed++
			g.event("handshake-failed", label, "window lapsed during outage")
			continue
		}
		req := dp.Req
		pend := &wirePending{req: &req, nonce: dp.Nonce,
			deadline: time.Now().Add(remaining)}
		g.pendings[label.Key()] = pend
		// Re-issue the verification query with the original nonce: the
		// reply may have been lost while we were down, and a duplicate
		// reply is harmless.
		gw, victim, mflow, nonce := g.node.Addr(), req.Victim, req.Flow, dp.Nonce
		pend.retx = g.reliableSend(g.cfg.Control.MaxAttempts, func(uint64) *packet.Packet {
			return packet.NewControl(gw, victim,
				&packet.VerifyQuery{Flow: mflow, Nonce: nonce})
		})
		pend.cancel = g.timers.after(remaining, func() {
			g.mu.Lock()
			defer g.mu.Unlock()
			if g.pendings[label.Key()] == pend {
				delete(g.pendings, label.Key())
				if pend.retx != nil {
					pend.retx()
				}
				g.HandshakesFailed++
				g.event("handshake-failed", label, "timeout")
			}
		})
	}
	if g.clu != nil && snap.Cluster != nil {
		// The cluster log stores absolute instants on the writer's
		// monotonic clock; rebase each op onto this process's epoch and
		// charge the downtime, mirroring the filter-table treatment: an
		// op's deadline D before the crash still means D after it.
		shift := sim.Time(time.Duration(now) - snap.TakenAtMono - downtime)
		st := *snap.Cluster
		st.Ops = append([]cluster.Op(nil), snap.Cluster.Ops...)
		for i := range st.Ops {
			st.Ops[i].Expires += shift
			st.Ops[i].At += shift
		}
		g.clu.ImportState(&st, now)
	}
	g.SnapshotRestores++
	g.event("snapshot-restored", flow.Label{},
		fmt.Sprintf("%d filters, %d shadows, %d pendings after %v down",
			g.FiltersRestored, g.ShadowsRestored, len(snap.Pendings), downtime.Round(time.Millisecond)))
	return nil
}

// SaveToDisk writes the snapshot to the configured SnapshotPath
// atomically (temp file + rename), so a crash mid-write never corrupts
// the previous snapshot.
func (g *Gateway) SaveToDisk() error {
	path := g.cfg.SnapshotPath
	if path == "" {
		return nil
	}
	snap := g.Snapshot()
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("wire: marshal snapshot: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("wire: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wire: write snapshot: %w", err)
	}
	g.mu.Lock()
	g.SnapshotSaves++
	g.mu.Unlock()
	return nil
}

// RestoreFromDisk restores the gateway from the configured
// SnapshotPath if the file exists, reporting the loaded snapshot (nil
// when there was none). Call before Run.
func (g *Gateway) RestoreFromDisk() (*DiskSnapshot, error) {
	path := g.cfg.SnapshotPath
	if path == "" {
		return nil, nil
	}
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wire: read snapshot: %w", err)
	}
	var snap DiskSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("wire: parse snapshot %s: %w", path, err)
	}
	if err := g.Restore(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// PendingHandshakes returns the number of in-flight attacker-side
// handshakes (for the started = ok + failed + pending ledger).
func (g *Gateway) PendingHandshakes() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.pendings)
}
