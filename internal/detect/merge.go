package detect

// Engine merge: the distributed half of detection. A gateway cluster
// shards the flow space across k replicas by consistent hash; each
// replica's engine sees only its slice. Merging the replicas'
// summaries yields a cluster-wide view any replica can act on, with
// both detection guarantees surviving the merge:
//
//   - Count-min rows merge by element-wise addition. Conservative
//     update keeps every row cell ≥ the cell's keys' true in-window
//     bytes, so cellA + cellB ≥ truthA + truthB and the merged
//     estimate (min over rows) stays one-sided: never below the key's
//     combined true count. This needs identical geometry AND identical
//     hash seeds — cells must mean the same key sets — which Merge
//     enforces (ErrIncompatible otherwise).
//
//   - Space-saving summaries merge by the standard summary merge:
//     union the keys, sum counts and errors, keep the top k by count.
//     The no-false-positive lower bound composes unconditionally:
//     countX − errX ≤ truthX for each input, so the merged
//     (cA+cB) − (eA+eB) ≤ truthA + truthB — a merged detection still
//     proves the flow really carried that much. The overestimate side
//     (count ≥ truth) holds for keys held by both inputs and for keys
//     observed by only one input — exactly the cluster's disjoint-
//     shard case, where every flow has one owner; adversarially
//     overlapping inputs where a key was evicted from one side can
//     undercount it (its mass was absorbed into that side's minimum),
//     which is why the cluster never routes one flow to two replicas.
//     Keys dropped at the top-k truncation stay sound on reappearance:
//     every kept count ≥ every dropped count ≥ that key's truth, so a
//     later space-saving takeover inherits a safe err.
//
// One merge discipline is load-bearing: merging the SAME source into
// the SAME accumulator twice within one window doubles count faster
// than err and would break the lower bound. Callers must merge each
// source engine at most once per accumulator per window — the cluster
// resets its merged view (Engine.Reset) every merge round before
// refilling it, so each replica contributes exactly once per round.
// Merge also rotates both engines to now first, so a crashed replica's
// frozen summary self-erases one window after its death: it
// contributes exactly its truthful lifetime, then reads zero.
//
// Per-destination EWMA baselines are intentionally NOT merged: they
// smooth across windows, so element-wise combination has no sound
// composition rule. A merged view therefore applies the absolute
// threshold only (Sweep); relative-baseline checks stay per-replica.
//
// A caveat the cluster documents rather than fights: each engine
// anchors its window at its own first observation, so two replicas'
// windows are skewed by up to one window length and the merged
// count − err lower-bounds bytes within the covering interval (< 2
// windows). A legit sender must hold under threshold/2 per window for
// the merged bound to be uncrossable in the worst-case skew; the
// scenario generator keeps legit flows far below that.

import (
	"errors"
	"fmt"

	"aitf/internal/flow"
	"aitf/internal/sim"
)

// ErrIncompatible reports a merge between engines whose sketches do
// not describe the same key space (different geometry or hash seeds).
var ErrIncompatible = errors.New("detect: engines incompatible for merge")

// compatible reports whether two configurations produce mergeable
// summaries: same sketch geometry, same summary budget, same window,
// and — critically — the same seed, so cell i means the same keys in
// both engines.
func compatible(a, b Config) bool {
	return a.Width == b.Width && a.Depth == b.Depth &&
		a.TopK == b.TopK && a.Window == b.Window && a.Seed == b.Seed
}

// Merge folds o's current-window state into e. Both engines rotate to
// now first, so only in-window state transfers. e's detection flags
// absorb o's (flagged-in-either stays flagged); baselines are not
// merged (see the package comment). Callers must serialize: Merge
// locks both engines, so no other engine pair may be mid-merge in the
// opposite order (the cluster serializes all merges under one lock).
func (e *Engine) Merge(now sim.Time, o *Engine) error {
	if e == o {
		return ErrIncompatible
	}
	if !compatible(e.cfg, o.cfg) {
		return fmt.Errorf("%w: %dx%d/%d seed %d vs %dx%d/%d seed %d",
			ErrIncompatible, e.cfg.Width, e.cfg.Depth, e.cfg.TopK, e.cfg.Seed,
			o.cfg.Width, o.cfg.Depth, o.cfg.TopK, o.cfg.Seed)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	o.mu.Lock()
	defer o.mu.Unlock()
	e.rotate(now)
	o.rotate(now)

	// Count-min: element-wise add of o's current-window cells. Identical
	// seeds mean index i maps the same keys in both sketches.
	for i, v := range o.cms.cells {
		e.cms.cells[i] += v
	}

	e.mergeTopK(o.hh)
	return nil
}

// mergeTopK is the space-saving summary merge: union keys, sum
// (count, err), keep the k largest by count. Caller holds both locks.
func (e *Engine) mergeTopK(o *topk) {
	t := e.hh
	k := cap(t.entries)
	merged := append(e.mergeBuf[:0], t.entries...)
	if e.mergeIdx == nil {
		e.mergeIdx = make(map[uint64]int, len(merged)+len(o.entries))
	}
	byKey := e.mergeIdx
	clear(byKey)
	for i := range merged {
		byKey[merged[i].key] = i
	}
	for i := range o.entries {
		oe := &o.entries[i]
		if j, ok := byKey[oe.key]; ok {
			m := &merged[j]
			m.count += oe.count
			m.err += oe.err
			if oe.firstSeen < m.firstSeen {
				m.firstSeen = oe.firstSeen
			}
			if oe.lastSeen > m.lastSeen {
				m.lastSeen = oe.lastSeen
			}
			if oe.flagged && (!m.flagged || oe.flaggedAt < m.flaggedAt) {
				m.flaggedAt = oe.flaggedAt
			}
			m.flagged = m.flagged || oe.flagged
			continue
		}
		byKey[oe.key] = len(merged)
		merged = append(merged, *oe)
	}
	e.mergeBuf = merged
	// Deterministic top-k: count descending, key ascending on ties.
	sortEntries(merged)
	if len(merged) > k {
		t.evictions += uint64(len(merged) - k)
		merged = merged[:k]
	}
	// Rebuild the summary around the merged slab: fresh index, fresh
	// heap (heapify bottom-up).
	t.entries = append(t.entries[:0], merged...)
	for i := range t.slots {
		t.slots[i] = -1
	}
	t.heap = t.heap[:0]
	for i := range t.entries {
		t.entries[i].heapIdx = int32(i)
		t.heap = append(t.heap, int32(i))
		t.indexInsert(t.entries[i].key, int32(i))
	}
	for i := len(t.heap)/2 - 1; i >= 0; i-- {
		t.siftDown(i)
	}
}

// sortEntries orders by count descending, key ascending (insertion
// sort: merged summaries are small, ≤ 2k entries).
func sortEntries(es []hhEntry) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0; j-- {
			a, b := &es[j-1], &es[j]
			if a.count > b.count || (a.count == b.count && a.key <= b.key) {
				break
			}
			es[j-1], es[j] = es[j], es[j-1]
		}
	}
}

// Sweep scans the current window for unflagged threshold crossings —
// the merged-view counterpart of the per-packet detection decision.
// Both stages apply: the one-sided sketch estimate must cross AND the
// space-saving count − err lower bound must prove the volume, so a
// sweep detection is as sound as an inline one. The relative-baseline
// stage is skipped (merged views carry no baselines; see the package
// comment). Crossings are flagged and appended to out in summary slot
// order, which is deterministic for deterministic input sequences.
func (e *Engine) Sweep(now sim.Time, out []Detection) []Detection {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.cfg.Enabled() {
		return out
	}
	e.rotate(now)
	for i := range e.hh.entries {
		ent := &e.hh.entries[i]
		if ent.flagged {
			continue
		}
		est := e.cms.estimate(ent.key)
		if float64(est) <= e.thresholdB {
			continue
		}
		low := ent.count - ent.err
		if float64(low) <= e.thresholdB {
			continue
		}
		ent.flagged = true
		ent.flaggedAt = now
		e.stats.Detections++
		src := flow.Addr(ent.key >> 32)
		dst := flow.Addr(ent.key & 0xffffffff)
		out = append(out, Detection{
			Label:    flow.PairLabel(src, dst),
			Src:      src,
			Dst:      dst,
			At:       now,
			EstBytes: est,
			LowBytes: low,
		})
	}
	return out
}

// Flag marks the (src, dst) pair's summary entry as already-detected,
// reporting whether the pair was tracked. A cluster uses it to push a
// merged-view detection back into the owning replica's engine, so the
// owner's quiet-window re-arm governs re-detection exactly as it does
// for inline detections.
func (e *Engine) Flag(now sim.Time, src, dst flow.Addr) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	ent := e.hh.get(pairKey(src, dst))
	if ent == nil {
		return false
	}
	if !ent.flagged {
		ent.flagged = true
		ent.flaggedAt = now
	}
	return true
}

// MergeSize estimates the wire bytes one merge exchange of this
// engine's current window would cost: 12 bytes per live sketch cell
// (cell index + count) plus 34 per live summary entry (key, count,
// err, times, flags) — the replication-overhead figure E17 reports.
// Entries with no bytes this window cost nothing: a quiet engine's
// exchange is free.
func (e *Engine) MergeSize() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, v := range e.cms.cells {
		if v != 0 {
			n++
		}
	}
	live := 0
	for i := range e.hh.entries {
		if e.hh.entries[i].count > 0 {
			live++
		}
	}
	return 12*n + 34*live
}
