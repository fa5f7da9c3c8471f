package obs

import (
	"context"
	"log/slog"
	"sync/atomic"
	"time"
)

// Event is a trace record rendered for readers: what Ring.Snapshot
// returns and /trace serves. Records are formatted into Events only at
// read time, so writers pay no string building.
type Event struct {
	// At is the event time (wall clock for the wire runtime, virtual
	// time rendered to a duration-since-epoch for the simulator).
	At time.Duration `json:"at"`
	// Node names the gateway or host that emitted the event.
	Node string `json:"node"`
	// Kind is the event kind name, e.g. "filter-installed".
	Kind string `json:"kind"`
	// Flow is the flow label the event concerns ("" when none).
	Flow string `json:"flow,omitempty"`
	// Detail carries free-form context.
	Detail string `json:"detail,omitempty"`
}

// Ring is a bounded lock-free ring buffer of trace records. Writers
// claim a slot with one atomic add and publish the record with one
// atomic pointer store; when the ring wraps, the oldest records are
// overwritten. Readers snapshot without blocking writers.
type Ring struct {
	slots []atomic.Pointer[Record] // aitf:atomic
	mask  uint64
	next  atomic.Uint64 // aitf:atomic
}

// NewRing creates a ring holding at least n events (n is rounded up to
// a power of two, minimum 16).
func NewRing(n int) *Ring {
	size := 16
	for size < n {
		size <<= 1
	}
	return &Ring{slots: make([]atomic.Pointer[Record], size), mask: uint64(size - 1)}
}

// Record appends a record, overwriting the oldest once full. The Record
// is heap-allocated per call — tracing marks protocol milestones
// (handshakes, installs, escalations), not per-packet work, so this is
// off the classification hot path by construction.
func (r *Ring) Record(e Record) {
	i := r.next.Add(1) - 1
	r.slots[i&r.mask].Store(&e)
}

// Snapshot renders the retained records, oldest first. Records being
// overwritten mid-snapshot may be skipped; the result is always a
// consistent set of fully published records.
func (r *Ring) Snapshot() []Event {
	end := r.next.Load()
	start := uint64(0)
	if end > uint64(len(r.slots)) {
		start = end - uint64(len(r.slots))
	}
	out := make([]Event, 0, end-start)
	for i := start; i < end; i++ {
		if e := r.slots[i&r.mask].Load(); e != nil {
			out = append(out, e.Event())
		}
	}
	return out
}

// Trace couples the ring with a leveled slog logger: every recorded
// protocol event lands in the ring (for /trace and post-mortem
// snapshots) and, at or above the logger's level, as a structured log
// line. A nil *Trace is a valid no-op receiver, so call sites need no
// nil checks.
type Trace struct {
	ring *Ring
	log  *slog.Logger
}

// NewTrace builds a Trace over ring (nil: a fresh 1024-slot ring) and
// logger (nil: slog.Default()).
func NewTrace(ring *Ring, logger *slog.Logger) *Trace {
	if ring == nil {
		ring = NewRing(1024)
	}
	if logger == nil {
		logger = slog.Default()
	}
	return &Trace{ring: ring, log: logger}
}

// Ring exposes the underlying ring (nil for a nil Trace).
func (t *Trace) Ring() *Ring {
	if t == nil {
		return nil
	}
	return t.ring
}

// Logger exposes the underlying logger (slog.Default for a nil Trace so
// callers can always log).
func (t *Trace) Logger() *slog.Logger {
	if t == nil {
		return slog.Default()
	}
	return t.log
}

// Event records a protocol event at the given level. The slog line,
// flow label included, is formatted only when the level is enabled.
func (t *Trace) Event(level slog.Level, r Record) {
	if t == nil {
		return
	}
	t.ring.Record(r)
	if !t.log.Enabled(context.Background(), level) {
		return
	}
	e := r.Event()
	attrs := make([]any, 0, 8)
	attrs = append(attrs, "node", e.Node, "at", e.At)
	if e.Flow != "" {
		attrs = append(attrs, "flow", e.Flow)
	}
	if e.Detail != "" {
		attrs = append(attrs, "detail", e.Detail)
	}
	t.log.Log(context.Background(), level, e.Kind, attrs...)
}

// Info records at slog.LevelInfo.
func (t *Trace) Info(r Record) { t.Event(slog.LevelInfo, r) }
