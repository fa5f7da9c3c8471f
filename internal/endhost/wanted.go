package endhost

import (
	"time"

	"aitf/internal/flow"
)

// MaxWanted bounds the wanted table, whose keys attackers choose (one
// per spoofed source). It is above R1·T + R1Burst of the default
// end-host contract and timers (6,010), so a host policed to that
// contract never reaches it with live requests. At the bound the
// request that expires first is forgotten: the oldest, whose handshake
// is long done; its flow, if it returns, meets the Detector again.
const MaxWanted = 8192

// wanted is a flow the host has asked to have blocked.
type wanted struct {
	label      flow.Label
	until      time.Duration
	lastReq    time.Duration
	slot       int32 // index in wantedTable.slots
	prev, next int32 // neighbours in expiry order, -1 at either end
}

// wantedTable holds the host's requests by label in one slab, so a
// resident request costs no allocation of its own. Each request lives T
// from its last (re)send, so moving each one extended to the back of a
// list keeps the slots in expiry order.
type wantedTable struct {
	index       map[flow.Label]int32
	slots       []wanted
	first, last int32  // earliest and latest expiry, -1 when empty
	evicted     uint64 // live requests forgotten at MaxWanted
}

// get returns label's entry, or nil. The pointer is valid until the
// next add.
func (t *wantedTable) get(label flow.Label) *wanted {
	if i, ok := t.index[label]; ok {
		return &t.slots[i]
	}
	return nil
}

// live returns label's entry if its request is live at now.
func (t *wantedTable) live(label flow.Label, now time.Duration) *wanted {
	if w := t.get(label); w != nil && w.until > now {
		return w
	}
	return nil
}

// add enters label with no expiry yet. At MaxWanted it takes the slot
// of the request that expires first, counting it if still live at now.
func (t *wantedTable) add(label flow.Label, now time.Duration) *wanted {
	if t.index == nil {
		t.index = make(map[flow.Label]int32)
	}
	i := int32(len(t.slots))
	if i < MaxWanted {
		t.slots = append(t.slots, wanted{})
	} else {
		i = t.first
		old := &t.slots[i]
		if old.until > now {
			t.evicted++
		}
		t.unlink(old)
		delete(t.index, old.label)
	}
	w := &t.slots[i]
	*w = wanted{label: label, slot: i, prev: -1, next: -1}
	t.index[label] = i
	t.pushBack(w)
	return w
}

// extend moves w's expiry to until, the latest of the table.
func (t *wantedTable) extend(w *wanted, until time.Duration) {
	w.until = until
	t.unlink(w)
	t.pushBack(w)
}

func (t *wantedTable) unlink(w *wanted) {
	if w.prev >= 0 {
		t.slots[w.prev].next = w.next
	} else {
		t.first = w.next
	}
	if w.next >= 0 {
		t.slots[w.next].prev = w.prev
	} else {
		t.last = w.prev
	}
	w.prev, w.next = -1, -1
}

func (t *wantedTable) pushBack(w *wanted) {
	w.prev = t.last
	if t.last >= 0 {
		t.slots[t.last].next = w.slot
	} else {
		t.first = w.slot
	}
	t.last = w.slot
}
