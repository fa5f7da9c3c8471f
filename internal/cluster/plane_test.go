package cluster

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"aitf/internal/detect"
	"aitf/internal/flow"
	"aitf/internal/obs"
	"aitf/internal/sim"
)

// traceLog records a plane's trace calls.
type traceLog []obs.Record

func (l *traceLog) trace(k obs.EventKind, f flow.Label, detail string) {
	*l = append(*l, obs.Record{Kind: k, Flow: f, Detail: detail})
}

// TestPlaneForms: the four shapes NewPlane builds, and what each
// reports to its callers.
func TestPlaneForms(t *testing.T) {
	protected := []flow.Addr{9}
	for _, c := range []struct {
		name             string
		det              detect.Config
		cfg              Config
		defends, engine  bool
		cluster          bool
		window, mergeDue sim.Time
	}{
		{name: "unarmed", det: detect.Config{}},
		{name: "engine", det: testDetCfg(), defends: true, engine: true, window: 250 * time.Millisecond},
		{name: "cluster", det: testDetCfg(), cfg: Config{Replicas: 3, Replicate: true},
			defends: true, cluster: true, window: 250 * time.Millisecond, mergeDue: 250 * time.Millisecond},
		{name: "cluster-without-detection", det: detect.Config{}, cfg: Config{Replicas: 2, MergeEvery: 100 * time.Millisecond},
			cluster: true, mergeDue: 100 * time.Millisecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := NewPlane(c.det, protected, c.cfg, nil)
			if p.Defends() != c.defends || p.Protects(9) != c.defends {
				t.Fatalf("Defends = %v, Protects(9) = %v, want %v", p.Defends(), p.Protects(9), c.defends)
			}
			if p.Protects(8) {
				t.Fatal("Protects(8): an unlisted destination feeds detection")
			}
			if (p.Engine() != nil) != c.engine || (p.Cluster() != nil) != c.cluster {
				t.Fatalf("Engine = %v, Cluster = %v, want engine %v, cluster %v", p.Engine(), p.Cluster(), c.engine, c.cluster)
			}
			if p.Window() != c.window || p.MergeEvery() != c.mergeDue {
				t.Fatalf("Window = %v, MergeEvery = %v, want %v, %v", p.Window(), p.MergeEvery(), c.window, c.mergeDue)
			}
			if (p.ExportState() != nil) != c.cluster {
				t.Fatalf("ExportState = %v, want one only with a cluster", p.ExportState())
			}
		})
	}
	// Protected destinations without an armed config leave detection off.
	if p := NewPlane(testDetCfg(), nil, Config{}, nil); p.Defends() || p.Engine() != nil {
		t.Fatal("a plane with nothing to protect armed detection")
	}
}

// planeStream feeds a fixed multi-source stream toward dst 9 through
// observe, with merge rounds every 50ms through merge, and returns what
// observe reported for every packet.
func planeStream(observe func(sim.Time, flow.Tuple, int) (detect.Detection, bool), merge func(sim.Time)) []detect.Detection {
	var out []detect.Detection
	for i := 0; i < 400; i++ {
		now := sim.Time(i) * time.Millisecond
		src := flow.Addr(1 + i%7)
		if d, ok := observe(now, flow.TupleOf(src, 9, flow.ProtoUDP, 1, 2), 100*int(src)); ok {
			out = append(out, d)
		}
		if i%50 == 49 {
			merge(now)
		}
	}
	return out
}

// pairsOf collects a Traffic view's pairs in a canonical order.
func pairsOf(visit func(func(src, dst flow.Addr, bytes uint64, flagged bool))) []detect.HeavyHitter {
	var out []detect.HeavyHitter
	visit(func(src, dst flow.Addr, bytes uint64, flagged bool) {
		out = append(out, detect.HeavyHitter{Src: src, Dst: dst, Bytes: bytes, Flagged: flagged})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Src < out[j].Src })
	return out
}

// TestPlaneMatchesBareEngine: the plane observes and prices exactly as
// the detect.Engine it wraps would on the same stream.
func TestPlaneMatchesBareEngine(t *testing.T) {
	p := NewPlane(testDetCfg(), []flow.Addr{9}, Config{}, nil)
	bare := detect.New(testDetCfg())
	got := planeStream(p.Observe, func(sim.Time) {})
	want := planeStream(bare.ObserveTuple, func(sim.Time) {})
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("plane detections %+v, bare engine %+v", got, want)
	}
	enginePairs := func(visit func(src, dst flow.Addr, bytes uint64, flagged bool)) {
		for _, h := range bare.TopK() {
			visit(h.Src, h.Dst, h.Bytes, h.Flagged)
		}
	}
	if g, w := pairsOf(p.Pairs), pairsOf(enginePairs); len(w) == 0 || !reflect.DeepEqual(g, w) {
		t.Fatalf("plane pairs %+v, engine TopK %+v", g, w)
	}
	if g, w := p.BaselineBps(9), bare.Baseline(9); g != w {
		t.Fatalf("plane baseline %v, engine %v", g, w)
	}
}

// TestPlaneMatchesBareCluster: the same for a cluster, merge rounds
// included.
func TestPlaneMatchesBareCluster(t *testing.T) {
	cfg := Config{Replicas: 3, HashSeed: 42, Replicate: true}
	var log traceLog
	p := NewPlane(testDetCfg(), []flow.Addr{9}, cfg, log.trace)
	bare := New(cfg, testDetCfg())
	got := planeStream(p.Observe, func(now sim.Time) { p.MergeRound(now) })
	want := planeStream(bare.Observe, func(now sim.Time) { bare.MergeRound(now) })
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("plane detections %+v, bare cluster %+v", got, want)
	}
	if g, w := pairsOf(p.Pairs), pairsOf(bare.Pairs); len(w) == 0 || !reflect.DeepEqual(g, w) {
		t.Fatalf("plane pairs %+v, cluster pairs %+v", g, w)
	}
	if g, w := p.BaselineBps(9), bare.BaselineBps(9); g != w {
		t.Fatalf("plane baseline %v, cluster %v", g, w)
	}
	if g, w := p.Cluster().Stats(), bare.Stats(); g != w {
		t.Fatalf("plane cluster stats %+v, bare %+v", g, w)
	}
}

// TestPlaneRecordNeedsCluster: filter ops reach the replicated log only
// when there is one; elsewhere Record is a no-op.
func TestPlaneRecordNeedsCluster(t *testing.T) {
	label := flow.PairLabel(7, 9)
	for _, p := range []*Plane{
		NewPlane(detect.Config{}, nil, Config{}, nil),
		NewPlane(testDetCfg(), []flow.Addr{9}, Config{}, nil),
	} {
		p.Record(OpInstall, label, time.Second, 0)
		p.ImportState(&State{Ops: []Op{{Seq: 1, Label: label}}}, 0)
		if p.ExportState() != nil || p.Cluster() != nil {
			t.Fatal("a plane without a cluster kept filter state")
		}
	}
	p := NewPlane(testDetCfg(), []flow.Addr{9}, Config{Replicas: 2, Replicate: true}, nil)
	p.Record(OpInstall, label, time.Second, 0)
	if n := p.Cluster().LogLen(); n != 1 {
		t.Fatalf("LogLen = %d after one Record, want 1", n)
	}
	p.ImportState(nil, 0)
	if n := len(p.ExportState().Ops); n != 1 {
		t.Fatalf("a nil ImportState changed the log: %d ops", n)
	}
}

// TestPlaneTraces: MergeRound traces only a round that parked fresh
// detections, and KillReplica only a kill that happened.
func TestPlaneTraces(t *testing.T) {
	var log traceLog
	p := NewPlane(testDetCfg(), []flow.Addr{9}, Config{Replicas: 3, HashSeed: 42, Replicate: true}, log.trace)
	feed := func(now sim.Time, n int) {
		for i := 0; i < n; i++ {
			if _, ok := p.Observe(now, flow.TupleOf(7, 9, flow.ProtoUDP, 1, 2), 1000); ok {
				t.Fatal("under-threshold flow detected inline")
			}
		}
	}
	feed(0, 6)
	if fresh := p.MergeRound(10 * time.Millisecond); fresh != 0 || len(log) != 0 {
		t.Fatalf("quiet round: fresh = %d, traced %+v", fresh, log)
	}
	if _, _, ok := p.KillReplica(99, 10*time.Millisecond); ok || len(log) != 0 {
		t.Fatalf("KillReplica(99) = %v, traced %+v", ok, log)
	}
	owner := p.Cluster().Owner(7, 9)
	if _, _, ok := p.KillReplica(owner, 10*time.Millisecond); !ok {
		t.Fatalf("KillReplica(%d) refused", owner)
	}
	feed(20*time.Millisecond, 6)
	if fresh := p.MergeRound(30 * time.Millisecond); fresh != 1 {
		t.Fatalf("boosted round: fresh = %d, want 1", fresh)
	}
	if len(log) != 2 || log[0].Kind != obs.EvReplicaKilled || log[1].Kind != obs.EvClusterMerge ||
		log[1].Detail != "1 merged detections pending" {
		t.Fatalf("trace = %+v, want one replica-killed then one cluster-merge", log)
	}

	// Without a cluster there is nothing to merge or kill.
	e := NewPlane(testDetCfg(), []flow.Addr{9}, Config{}, log.trace)
	if fresh := e.MergeRound(0); fresh != 0 {
		t.Fatalf("engine plane merged %d", fresh)
	}
	if _, _, ok := e.KillReplica(0, 0); ok || len(log) != 2 {
		t.Fatalf("engine plane KillReplica = %v, traced %+v", ok, log[2:])
	}
}
