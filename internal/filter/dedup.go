package filter

import "aitf/internal/flow"

// DedupCapacity bounds how many (source, txid) pairs a Dedup remembers.
// It is far above what honest retransmission keeps live inside a
// window; only a flood of distinct keys reaches it.
const DedupCapacity = 4096

// dedupKey identifies one logical control send: retransmissions carry
// the sender's stable txid.
type dedupKey struct {
	src  flow.Addr
	txid uint64
}

type dedupSlot struct {
	key dedupKey
	at  Time
}

// Dedup is the duplicate-suppression window of a reliable control
// receiver: it remembers recently seen (source, txid) pairs so that a
// retransmitted copy is absorbed before any side effect. The source is
// spoofable and the check runs before the policer, so the memory is
// bounded: at DedupCapacity the oldest pair is forgotten, in O(1), and
// a forgotten pair's retransmission is then processed as new — which
// every receive path tolerates, since each is idempotent past dedup.
//
// The zero value is ready to use. Not safe for concurrent use.
type Dedup struct {
	seen map[dedupKey]Time
	// ring holds the recorded pairs in arrival order; once it is full,
	// head is the oldest slot and the next one overwritten.
	ring []dedupSlot
	head int

	// Evicted counts pairs forgotten while still inside their window.
	Evicted uint64
}

// Seen records (src, txid) at now and reports whether the pair was
// already recorded less than window ago. Txid 0 (a sender without a
// retransmission engine) is never recorded and never a duplicate: its
// repeats are genuine re-requests. Calls must pass nondecreasing times.
func (d *Dedup) Seen(src flow.Addr, txid uint64, now, window Time) bool {
	if txid == 0 {
		return false
	}
	k := dedupKey{src, txid}
	if at, ok := d.seen[k]; ok && now-at < window {
		return true
	}
	if d.seen == nil {
		d.seen = make(map[dedupKey]Time)
	}
	if len(d.ring) < DedupCapacity {
		d.ring = append(d.ring, dedupSlot{k, now})
	} else {
		old := &d.ring[d.head]
		// A pair recorded again after its window lapsed owns a newer
		// slot; only the slot holding its current time may forget it.
		if at, ok := d.seen[old.key]; ok && at == old.at {
			delete(d.seen, old.key)
			if now-at < window {
				d.Evicted++
			}
		}
		*old = dedupSlot{k, now}
		d.head = (d.head + 1) % DedupCapacity
	}
	d.seen[k] = now
	return false
}

// Len returns the number of pairs currently remembered.
func (d *Dedup) Len() int { return len(d.seen) }
