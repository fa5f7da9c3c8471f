// Package core runs AITF on the simulator: it is the netsim adapter
// over the protocol engines. Gateway feeds a border.Engine (§II-B–E:
// request policing and verification, the three-way handshake,
// escalation, disconnection) from its node and keeps the data half —
// ingress filtering, classification and forwarding with a route
// record. Host feeds an endhost.Engine (§II-C, §IV-D: requests,
// handshake replies, stop orders). Both engines run on the simulator's
// virtual clock and seeded source, so the same code is exercised
// identically across experiments.
//
// A node costs what it uses. A Gateway's engine builds its filter
// tables and control state on the first control message addressed to
// it, and until then the gateway forwards without classifying. A
// Host's receive meters start empty (PerSource nil, no buckets) and
// grow on its first delivery. Reads of what is not built yet report
// what an empty one would: zero counters, empty tables, nothing
// pending. An army's idle zombie gateways thus hold no tables at all.
package core

import "aitf/internal/obs"

// Tracer consumes protocol trace records in the vocabulary both
// runtimes share (obs.EventKind); nil tracers are allowed everywhere.
// obs.Log.Record retains them for replay.
type Tracer func(obs.Record)
