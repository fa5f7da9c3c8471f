package wire

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aitf/internal/cluster"
	"aitf/internal/contract"
	"aitf/internal/ctrl"
	"aitf/internal/durable"
	"aitf/internal/filter"
	"aitf/internal/flow"
	"aitf/internal/packet"
	"aitf/internal/sim"
)

// TestSnapshotFileIsOwnerOnly: the snapshot holds live handshake
// nonces, and whoever reads one can forge the reply that completes that
// handshake, so the file is written readable by its owner only.
func TestSnapshotFileIsOwnerOnly(t *testing.T) {
	dir := t.TempDir()
	g := snapGateway(t, dir)
	defer g.Close()
	if err := g.SaveToDisk(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(g.cfg.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	if perm := fi.Mode().Perm(); perm != 0o600 {
		t.Fatalf("snapshot mode = %v, want 0600", perm)
	}
}

// TestSaveToDiskFailureLeavesNoTempFile: when the final rename fails
// (the snapshot path names a directory, which fails as root too),
// SaveToDisk reports it, counts no save, and leaves no temp file.
func TestSaveToDiskFailureLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	g := snapGateway(t, dir)
	if err := os.Mkdir(g.cfg.SnapshotPath, 0o700); err != nil {
		t.Fatal(err)
	}
	if err := g.SaveToDisk(); err == nil {
		t.Fatal("SaveToDisk over a directory succeeded")
	}
	if n := g.Stats().SnapshotSaves; n != 0 {
		t.Fatalf("SnapshotSaves = %d after a failed save", n)
	}
	if err := g.Close(); err == nil { // the drain save fails the same way
		t.Fatal("Close did not report the failed drain save")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != filepath.Base(g.cfg.SnapshotPath) {
		t.Fatalf("directory holds %v, want only the snapshot path", ents)
	}
}

// TestV1SnapshotRefused: a snapshot in the version 1 format (remaining
// durations per record, written by an earlier build and kept under
// testdata) is refused with the version error, restoring nothing.
func TestV1SnapshotRefused(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "v1.snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	g := snapGateway(t, dir)
	defer g.Close()
	if err := os.WriteFile(g.cfg.SnapshotPath, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	_, err = g.RestoreFromDisk()
	if err == nil || !strings.Contains(err.Error(), "snapshot version 1, want 2") {
		t.Fatalf("RestoreFromDisk(v1) = %v, want the version error", err)
	}
	if st := g.Stats(); st.SnapshotRestores != 0 || g.dp.Len() != 0 || g.pendingHandshakes() != 0 {
		t.Fatalf("refused snapshot restored state: %+v", st)
	}
}

// TestSnapshotRestoresPriorLabelOrder: a version 2 snapshot written
// while flow.Label still declared its fields in 5-tuple order (Src,
// Dst, Proto, SrcPort, DstPort, ...; kept under testdata) restores the
// same labels into the filter table, the shadow log and the pending
// handshakes. JSON names every field, so the declaration order a file
// was written in does not matter on read.
func TestSnapshotRestoresPriorLabelOrder(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "v2-5tuple-order.snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if proto, sport := strings.Index(string(raw), `"Proto"`), strings.Index(string(raw), `"SrcPort"`); proto < 0 || proto > sport {
		t.Fatal("fixture does not list Proto before SrcPort; it no longer tests the prior field order")
	}
	var snap DiskSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	// The fixture's deadlines are an hour past its TakenAt; restore
	// charges the downtime since TakenAtUnixNs, so date it now.
	snap.TakenAtUnixNs = time.Now().UnixNano()
	g := snapGateway(t, t.TempDir())
	defer g.Close()
	if err := g.Restore(&snap); err != nil {
		t.Fatal(err)
	}

	v := flow.MakeAddr(10, 0, 0, 2)
	pair := flow.PairLabel(flow.MakeAddr(20, 0, 0, 1), v)
	exact := flow.Exact(flow.MakeAddr(20, 0, 0, 5), v, flow.ProtoUDP, 1234, 80)
	wantFilters := map[flow.Label]bool{
		pair:  true,
		exact: true,
		flow.SrcPrefixLabel(flow.MakeAddr(30, 0, 0, 0), 24, v): true,
		{Src: flow.MakeAddr(20, 0, 0, 9), Dst: flow.MakeAddr(10, 0, 0, 0), Proto: flow.ProtoTCP,
			Wildcards: flow.WildSrcPort | flow.WildDstPort, DstPrefixLen: 16}: true,
	}
	got := map[flow.Label]bool{}
	for _, ent := range g.dp.FilterEntries() {
		got[ent.Label] = true
	}
	if !maps.Equal(got, wantFilters) {
		t.Fatalf("restored filters %v, want %v", got, wantFilters)
	}
	got = map[flow.Label]bool{}
	for _, ent := range g.dp.ShadowEntries() {
		got[ent.Label] = true
	}
	if want := map[flow.Label]bool{pair: true, exact: true}; !maps.Equal(got, want) {
		t.Fatalf("restored shadows %v, want %v", got, want)
	}
	if ps := g.Snapshot().Pendings; len(ps) != 1 || ps[0].Req.Flow != exact {
		t.Fatalf("restored pending handshakes %+v, want one for %v", ps, exact)
	}
}

// FuzzDiskSnapshot: arbitrary bytes decoded as a disk snapshot and
// restored into a fresh clustered gateway never panic, and the tables
// stay within their capacities.
func FuzzDiskSnapshot(f *testing.F) {
	if raw, err := os.ReadFile(filepath.Join("testdata", "v1.snapshot.json")); err == nil {
		f.Add(raw)
	}
	now := wallNow()
	label := flow.PairLabel(flow.MakeAddr(20, 0, 0, 1), flow.MakeAddr(10, 0, 0, 2))
	seed := DiskSnapshot{
		Version: diskSnapshotVersion, Node: "gw", TakenAtUnixNs: time.Now().UnixNano(),
		State: durable.State{
			TakenAt:  now,
			NextTxid: 9,
			Filters: []filter.Entry{{Label: label, InstalledAt: now, ExpiresAt: now + sim.Time(time.Minute), Drops: 2, DroppedBytes: 80},
				{Label: flow.SrcPrefixLabel(flow.MakeAddr(30, 0, 0, 0), 24, flow.MakeAddr(10, 0, 0, 2)), ExpiresAt: now + sim.Time(time.Minute)}},
			Shadows: []filter.ShadowEntry{{Label: label, LoggedAt: now, ExpiresAt: now + sim.Time(time.Minute), Reappearances: 1, Victim: label.Dst}},
			Pendings: []ctrl.Pending{{Req: packet.FilterReq{Stage: packet.StageToAttackerGW, Flow: label, Victim: label.Dst},
				Nonce: 42, Deadline: now + sim.Time(time.Second)}},
			Cluster: &cluster.State{Ops: []cluster.Op{{Seq: 1, Kind: cluster.OpInstall, Label: label, Expires: now + sim.Time(time.Minute), At: now}},
				Alive: []bool{true, false}, LastApplied: []uint64{1, 0}},
		},
	}
	raw, err := json.Marshal(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte(`{"version":2,"filters":[{"Label":{"SrcPrefixLen":200,"DstPrefixLen":99,"Wildcards":255},"ExpiresAt":9223372036854775807}]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var snap DiskSnapshot
		if json.Unmarshal(raw, &snap) != nil {
			return
		}
		g, err := NewGateway(GatewayConfig{
			Node:           NodeConfig{Addr: flow.MakeAddr(10, 0, 0, 1), Name: "gw"},
			Timers:         testTimers(),
			Default:        contract.DefaultPeer(),
			Secret:         []byte("s"),
			FilterCapacity: 4, ShadowCapacity: 4, DataplaneShards: 2,
			Cluster: cluster.Config{Replicas: 2, Replicate: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		if err := g.Restore(&snap); err != nil {
			return
		}
		if g.dp.Len() > g.dp.FilterCapacity() || g.dp.ShadowLen() > g.dp.ShadowCapacity() {
			t.Fatalf("restore overfilled the tables: %d/%d filters, %d/%d shadows",
				g.dp.Len(), g.dp.FilterCapacity(), g.dp.ShadowLen(), g.dp.ShadowCapacity())
		}
	})
}
