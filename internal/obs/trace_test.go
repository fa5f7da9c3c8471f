package obs

import (
	"bytes"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"aitf/internal/flow"
)

func TestRingBasics(t *testing.T) {
	r := NewRing(4)
	if len(r.slots) != 16 {
		t.Fatalf("cap = %d, want minimum 16", len(r.slots))
	}
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("empty ring snapshot = %v", got)
	}
	for i := 0; i < 3; i++ {
		r.Record(Record{Node: "gw", Kind: EvFilterInstalled, At: time.Duration(i)})
	}
	got := r.Snapshot()
	if len(got) != 3 || len(r.Snapshot()) != 3 {
		t.Fatalf("len = %d/%d, want 3", len(got), len(r.Snapshot()))
	}
	for i, e := range got {
		if e.At != time.Duration(i) {
			t.Fatalf("snapshot out of order: %v", got)
		}
	}
}

func TestRingWrap(t *testing.T) {
	r := NewRing(16)
	for i := 0; i < 40; i++ {
		r.Record(Record{At: time.Duration(i)})
	}
	got := r.Snapshot()
	if len(got) != 16 || len(r.Snapshot()) != 16 {
		t.Fatalf("wrapped len = %d, want 16", len(got))
	}
	// Oldest retained record is #24, newest #39.
	if got[0].At != 24 || got[15].At != 39 {
		t.Fatalf("wrapped window = [%v, %v], want [24, 39]", got[0].At, got[15].At)
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(Record{Node: "n", At: time.Duration(w*1000 + i)})
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		for _, e := range r.Snapshot() {
			if e.Node != "n" {
				t.Errorf("torn record: %+v", e)
			}
		}
	}
	wg.Wait()
	if len(r.Snapshot()) != 64 {
		t.Fatalf("len = %d, want 64", len(r.Snapshot()))
	}
}

func TestTraceLogsAndRecords(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	tr := NewTrace(NewRing(16), logger)

	label := flow.PairLabel(flow.MakeAddr(1, 2, 3, 4), flow.MakeAddr(5, 6, 7, 8))
	tr.Info(Record{Node: "gwA", Kind: EvFilterInstalled, Flow: label, At: time.Second})
	tr.Event(slog.LevelDebug, Record{Node: "gwA", Kind: EvShadowHit}) // below level: ring only

	out := buf.String()
	if !strings.Contains(out, "filter-installed") || !strings.Contains(out, "node=gwA") ||
		!strings.Contains(out, `flow="`+label.String()+`"`) {
		t.Errorf("slog line missing fields: %q", out)
	}
	if strings.Contains(out, "shadow-hit") {
		t.Errorf("debug event logged at info level: %q", out)
	}
	got := tr.Ring().Snapshot()
	if len(got) != 2 {
		t.Fatalf("ring has %d events, want 2 (both levels recorded)", len(got))
	}
	// Snapshot renders at read time: kind names, the label's text form,
	// and no flow at all for a zero label.
	want := []Event{
		{At: time.Second, Node: "gwA", Kind: "filter-installed", Flow: label.String()},
		{Node: "gwA", Kind: "shadow-hit"},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("snapshot[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestEventKindContract pins what the scenario trace fingerprint hashes:
// each kind's number (written as a decimal) and a distinct name per
// kind. Renumbering a kind changes every golden fingerprint.
func TestEventKindContract(t *testing.T) {
	if EvAttackDetected != 1 || EvReplicaKilled != 28 {
		t.Fatalf("EvAttackDetected = %d, EvReplicaKilled = %d; want 1, 28", EvAttackDetected, EvReplicaKilled)
	}
	seen := map[string]EventKind{}
	for k := EvAttackDetected; k <= EvReplicaKilled; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "event-") {
			t.Errorf("kind %d has no name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
	if EventKind(200).String() != "event-200" {
		t.Errorf("unknown kind renders %q", EventKind(200).String())
	}
}

func TestNilTraceIsNoop(t *testing.T) {
	var tr *Trace
	tr.Info(Record{Kind: EvRequestSent}) // must not panic
	if tr.Ring() != nil {
		t.Fatal("nil trace ring should be nil")
	}
	if tr.Logger() == nil {
		t.Fatal("nil trace logger should fall back to default")
	}
}
