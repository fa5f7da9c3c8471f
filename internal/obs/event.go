package obs

import (
	"fmt"
	"iter"
	"strings"
	"time"

	"aitf/internal/flow"
)

// EventKind labels protocol trace events. The simulator (internal/core)
// and the wire runtime (internal/wire) narrate the paper's §II steps in
// this one vocabulary. The numbering is part of the scenario trace
// fingerprint, so kinds are only ever appended.
type EventKind uint8

// Protocol events, in rough lifecycle order.
const (
	EvAttackDetected EventKind = iota + 1
	EvRequestSent
	EvRequestReceived
	EvRequestPoliced
	EvRequestInvalid
	EvTempFilterInstalled
	EvFilterInstalled
	EvFilterRejected
	EvShadowLogged
	EvShadowHit
	EvHandshakeQuery
	EvHandshakeReply
	EvHandshakeOK
	EvHandshakeFailed
	EvStopOrder
	EvFlowStopped
	EvTakeoverOK
	EvEscalated
	EvDisconnected
	EvLongBlock
	EvAggregated
	EvDeaggregated
	// Fault-tolerance events: the reliable control messenger and
	// gateway crash/restore.
	EvCtrlRetransmit
	EvCtrlDupDrop
	EvGatewayCrashed
	EvGatewayRestored
	// Cluster events: merge rounds that surfaced new detections, and
	// logical replica death (failover).
	EvClusterMerge
	EvReplicaKilled
)

var eventNames = map[EventKind]string{
	EvAttackDetected:      "attack-detected",
	EvRequestSent:         "request-sent",
	EvRequestReceived:     "request-received",
	EvRequestPoliced:      "request-policed",
	EvRequestInvalid:      "request-invalid",
	EvTempFilterInstalled: "temp-filter-installed",
	EvFilterInstalled:     "filter-installed",
	EvFilterRejected:      "filter-rejected",
	EvShadowLogged:        "shadow-logged",
	EvShadowHit:           "shadow-hit",
	EvHandshakeQuery:      "handshake-query",
	EvHandshakeReply:      "handshake-reply",
	EvHandshakeOK:         "handshake-ok",
	EvHandshakeFailed:     "handshake-failed",
	EvStopOrder:           "stop-order",
	EvFlowStopped:         "flow-stopped",
	EvTakeoverOK:          "takeover-ok",
	EvEscalated:           "escalated",
	EvDisconnected:        "disconnected",
	EvLongBlock:           "long-block",
	EvAggregated:          "aggregated",
	EvDeaggregated:        "deaggregated",
	EvCtrlRetransmit:      "ctrl-retransmit",
	EvCtrlDupDrop:         "ctrl-dup-drop",
	EvGatewayCrashed:      "gateway-crashed",
	EvGatewayRestored:     "gateway-restored",
	EvClusterMerge:        "cluster-merge",
	EvReplicaKilled:       "replica-killed",
}

func (k EventKind) String() string {
	if s, ok := eventNames[k]; ok {
		return s
	}
	return fmt.Sprintf("event-%d", uint8(k))
}

// Record is one protocol trace record as both runtimes write it: typed
// and unformatted, so recording costs no string building. At is virtual
// time in the simulator and time since process start in the wire
// runtime; a zero Flow means the event concerns no flow.
type Record struct {
	At     time.Duration
	Node   string
	Kind   EventKind
	Flow   flow.Label
	Detail string
}

func (r Record) String() string {
	s := fmt.Sprintf("%-12v %-10s %-22s %s", r.At, r.Node, r.Kind, r.Flow)
	if r.Detail != "" {
		s += " (" + r.Detail + ")"
	}
	return s
}

// Event renders the record for readers: the /trace JSON and Ring
// snapshots. A zero flow renders as an omitted "flow".
func (r Record) Event() Event {
	e := Event{At: r.At, Node: r.Node, Kind: r.Kind.String(), Detail: r.Detail}
	if r.Flow != (flow.Label{}) {
		e.Flow = r.Flow.String()
	}
	return e
}

// Log is the simulator's unbounded trace sink: it retains every record
// for replay and inspection. Records go into fixed chunks of chunkLen
// and stay where they were written, so a growing log never copies one.
// The zero Log is empty and ready to use.
type Log struct {
	chunks []*[chunkLen]Record
	n      int
}

// chunkLen is the records per chunk: 127 × 64 B plus the allocator's
// 8-byte header fills the 8 KB size class exactly (128 would spill into
// the next class, 9,472 B).
const chunkLen = 127

// Record appends a record; pass log.Record as the core.Tracer.
func (l *Log) Record(e Record) {
	i := l.n % chunkLen
	if i == 0 {
		l.chunks = append(l.chunks, new([chunkLen]Record))
	}
	l.chunks[len(l.chunks)-1][i] = e
	l.n++
}

// Len returns how many records were retained.
func (l *Log) Len() int { return l.n }

// All yields the retained records in the order they were recorded.
func (l *Log) All() iter.Seq[Record] {
	return func(yield func(Record) bool) {
		for c, left := 0, l.n; left > 0; c, left = c+1, left-chunkLen {
			for _, e := range l.chunks[c][:min(left, chunkLen)] {
				if !yield(e) {
					return
				}
			}
		}
	}
}

// OfKind returns the retained records of the given kind, in order.
func (l *Log) OfKind(k EventKind) []Record {
	var out []Record
	for e := range l.All() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// Count returns how many records of kind k were retained.
func (l *Log) Count(k EventKind) int {
	n := 0
	for e := range l.All() {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// First returns the first record of kind k, if any.
func (l *Log) First(k EventKind) (Record, bool) {
	for e := range l.All() {
		if e.Kind == k {
			return e, true
		}
	}
	return Record{}, false
}

// String renders the whole timeline, one record per line.
func (l *Log) String() string {
	var b strings.Builder
	for e := range l.All() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
