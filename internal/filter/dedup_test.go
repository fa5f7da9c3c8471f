package filter

import (
	"testing"
	"time"

	"aitf/internal/flow"
)

// TestDedupRerecordKeepsNewestSlot: a pair seen again after its window
// lapsed is recorded afresh, and the stale ring slot it left behind
// must not take the fresh record with it when it is overwritten.
func TestDedupRerecordKeepsNewestSlot(t *testing.T) {
	const window = time.Second
	src := flow.MakeAddr(10, 0, 0, 1)
	var d Dedup
	if d.Seen(src, 7, 0, window) || !d.Seen(src, 7, window-1, window) {
		t.Fatal("first sighting is new, the second inside the window a duplicate")
	}
	if d.Seen(src, 0, 0, window) || d.Seen(src, 0, 0, window) || d.Len() != 1 {
		t.Fatal("txid 0 must bypass and leave no record")
	}
	// Lapsed: recorded again at 2s, now owning two ring slots.
	now := 2 * window
	if d.Seen(src, 7, now, window) {
		t.Fatal("sighting after the window reported as duplicate")
	}
	// Fill the ring and overwrite the stale first slot, but not the
	// fresh one.
	for i := uint64(0); i < DedupCapacity-1; i++ {
		d.Seen(src, 100+i, now, window)
	}
	if !d.Seen(src, 7, now, window) {
		t.Fatal("overwriting the stale slot forgot the fresh record")
	}
	if d.Evicted != 0 || d.Len() != DedupCapacity {
		t.Fatalf("Evicted = %d, Len = %d; want 0, %d", d.Evicted, d.Len(), DedupCapacity)
	}
	// The next new pair overwrites the fresh slot: that is an eviction.
	d.Seen(src, 99, now, window)
	if d.Seen(src, 7, now, window) || d.Evicted != 2 {
		// Re-recording 7 just now evicted txid 100 in turn.
		t.Fatalf("fresh record not evicted in FIFO order: Evicted = %d", d.Evicted)
	}
	if d.Len() != DedupCapacity {
		t.Fatalf("Len = %d, want the capacity %d", d.Len(), DedupCapacity)
	}
}
