package wire

// Gateway snapshot/restore, wire form. The durable state is the one
// both runtimes share (internal/durable), with every instant on this
// process's monotonic clock; the disk form adds the wall-clock instant
// it was taken at. A successor process has a new epoch, so restore moves
// every instant by one offset, now − TakenAt − downtime: a filter
// granted until deadline D before the restart still expires at D after
// it — no early expiry, no immortal filters.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"aitf/internal/alloc"
	"aitf/internal/ctrl"
	"aitf/internal/durable"
	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/obs"
)

// diskSnapshotVersion guards the on-disk schema. Version 1 stored
// remaining durations per record and is refused; from version 2 on the
// schema only grows by added fields.
const diskSnapshotVersion = 2

// DiskSnapshot is the wire gateway's durable state as written to
// SnapshotPath on drain and restored on boot.
type DiskSnapshot struct {
	Version int    `json:"version"`
	Node    string `json:"node"`
	// TakenAtUnixNs dates the snapshot so restore can charge the
	// downtime against every deadline.
	TakenAtUnixNs int64        `json:"taken_at_unix_ns"`
	Stats         GatewayStats `json:"stats"`
	durable.State
}

// parts are the owners of the gateway's durable state.
func (g *Gateway) parts() durable.Parts {
	return durable.Parts{DP: g.dp, Ladder: g.ladder, Ledger: g.hs, Agg: g.agg, Plane: g.plane}
}

// Snapshot captures the gateway's durable state. Output ordering is
// deterministic (sorted by label). Safe to call on a running gateway;
// Close calls it after the socket has drained.
func (g *Gateway) Snapshot() *DiskSnapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	return &DiskSnapshot{
		Version:       diskSnapshotVersion,
		Node:          g.node.Name(),
		TakenAtUnixNs: time.Now().UnixNano(),
		Stats:         g.statsLocked(),
		State:         durable.Capture(wallNow(), g.parts()),
	}
}

// Restore rebuilds snapshotted state into this gateway, charging the
// downtime since the snapshot was taken against every deadline;
// entries whose lifetimes lapsed while the daemon was down stay gone,
// and lapsed pending handshakes resolve as failed so the accounting
// ledger still balances. Call before Run.
func (g *Gateway) Restore(snap *DiskSnapshot) error {
	if snap.Version != diskSnapshotVersion {
		return fmt.Errorf("wire: snapshot version %d, want %d", snap.Version, diskSnapshotVersion)
	}
	downtime := max(time.Since(time.Unix(0, snap.TakenAtUnixNs)), 0)
	g.mu.Lock()
	defer g.mu.Unlock()
	now := wallNow()

	// Every counter carries across the restart, the restore counters
	// included; the event below reports this restore's own counts.
	st := snap.Stats
	g.stats = st
	g.agg.RestoreStats(alloc.AggregateStats{Aggregations: st.Aggregations, CollateralBytes: st.CollateralBytes})
	g.ladder.RestoreStats(ctrl.Stats{ReliableSends: st.CtrlReliableSends, Retransmits: st.CtrlRetransmits})
	g.hs.RestoreStats(ctrl.LedgerStats{Started: st.HandshakesStarted, OK: st.HandshakesOK, Failed: st.HandshakesFailed})
	g.dedup.Evicted = st.CtrlDedupEvicted
	g.filterDrops.Store(st.FilterDrops)
	g.shadowHits.Store(st.ShadowHits)

	state := snap.Moved(now - snap.TakenAt - downtime)
	filters, shadows := state.RestoreTables(g.parts(), now, func(ent filter.Entry, err error) {
		if err != nil {
			g.logf("restore filter %v: %v", ent.Label, err)
		}
	})
	state.RestorePending(g.parts(), now)
	g.agg.ArmReview()
	g.stats.SnapshotRestores++
	g.stats.FiltersRestored += uint64(filters)
	g.stats.ShadowsRestored += uint64(shadows)
	g.event(obs.EvGatewayRestored, flow.Label{}, fmt.Sprintf("%d filters, %d shadows, %d pendings after %v down",
		filters, shadows, len(snap.Pendings), downtime.Round(time.Millisecond)))
	return nil
}

// SaveToDisk writes the snapshot to the configured SnapshotPath
// atomically, so a crash mid-write never corrupts the previous
// snapshot: the bytes go to a temp file beside it, which is synced and
// closed before it is renamed over the old one. The file is readable
// by its owner only: its pending handshakes hold live nonces, and a
// reader who has one can forge the reply that completes a §II-E
// handshake. On any error the temp file is removed.
func (g *Gateway) SaveToDisk() error {
	path := g.cfg.SnapshotPath
	if path == "" {
		return nil
	}
	snap := g.Snapshot()
	// The snapshot counts the save that writes it; the live counter
	// follows once the write has succeeded.
	snap.Stats.SnapshotSaves++
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("wire: marshal snapshot: %w", err)
	}
	if err := writeSynced(path, append(buf, '\n')); err != nil {
		return fmt.Errorf("wire: write snapshot: %w", err)
	}
	g.mu.Lock()
	g.stats.SnapshotSaves++
	g.mu.Unlock()
	return nil
}

// writeSynced replaces path with data through a synced, owner-only temp
// file in the same directory, removing the temp file on any error.
func writeSynced(path string, data []byte) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*") // mode 0o600
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(f.Name())
		}
	}()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
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
