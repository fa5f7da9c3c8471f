// Package detect is a streaming DDoS detection engine: the measurement
// half the AITF paper assumes exists ("we start from the point where
// the node has identified the undesired flows", §V) made real, so
// detection latency Td, false positives, and false negatives become
// measurable system outputs instead of model inputs.
//
// The engine keeps three bounded summaries over the packet stream, all
// updated on one pass per packet. Each holds memory for the cells and
// keys the stream has touched and grows, up to its configured bound,
// only as new ones arrive:
//
//   - a count-min sketch with conservative update estimates each
//     (src, dst) pair's byte volume within the current measurement
//     window — the estimate is one-sided (never below truth), so a
//     failed threshold test proves the flow is small: the sketch is
//     the prefilter that can never screen out a real heavy hitter;
//   - a space-saving top-k summary pins down the heavy-hitter
//     candidates in O(k) memory under source churn and carries the
//     per-key detection state (flagged, first/last seen) that
//     suppresses duplicate detections and re-arms after quiet gaps.
//     Its windowed (count, err) pair bounds a key's true bytes from
//     below, which makes the second detection stage *sound*: a flow is
//     flagged only when it provably carried more than the threshold
//     within the window, so sketch collisions can never frame an
//     under-threshold flow — the property the scenario harness's
//     "legit flow never detected" invariant leans on;
//   - a per-destination EWMA baseline tracks each victim's normal
//     aggregate bandwidth across windows, enabling relative ("N× the
//     usual") thresholds alongside the absolute bytes/second one.
//
// The batch Observe API is shaped like the data plane's ClassifyInto —
// caller-owned output slice, zero steady-state allocations — so a
// gateway can run detection at classification speed on behalf of
// legacy (non-AITF) hosts behind it. HostDetector adapts the engine to
// the per-packet endhost.Detector interface of both runtimes' hosts.
//
// Every hash is seeded from Config.Seed, every structure iterates in
// slot order, and the clock is the caller's: equal seeds and equal
// packet sequences produce byte-identical detection sequences, which
// the scenario harness's determinism fingerprint relies on.
package detect

import (
	"sync"
	"time"

	"aitf/internal/flow"
	"aitf/internal/packet"
	"aitf/internal/sim"
)

// Config parameterizes an Engine. The zero value is not armed: a
// positive ThresholdBps is what switches detection on.
type Config struct {
	// Width and Depth set the count-min sketch geometry: Width counters
	// (rounded up to a power of two) in each of Depth hash rows.
	// Defaults: 1024 × 4; at most MaxWidth × MaxDepth.
	Width, Depth int
	// TopK bounds the heavy-hitter summary (default 128 keys, at most
	// MaxTopK).
	TopK int
	// Window is the measurement window the sketch rotates on and the
	// threshold is expressed over (default 250ms).
	Window sim.Time
	// ThresholdBps flags a (src, dst) pair whose estimated rate within
	// one window exceeds this many bytes/second. <= 0 disables the
	// engine entirely.
	ThresholdBps float64
	// QuietWindows is how many silent windows re-arm a flagged key so
	// an on-off flow is re-detected when it resumes. 0 picks the
	// default of 2 (matching the oracle RateDetector's reset); a
	// negative value disables re-arming, keeping flags forever.
	QuietWindows int
	// Seed keys every hash in the engine; equal seeds replay
	// identically.
	Seed uint64
}

// Enabled reports whether the configuration arms detection.
func (c Config) Enabled() bool { return c.ThresholdBps > 0 }

// Upper bounds on the sketch geometry and the heavy-hitter budget, far
// above any useful setting: the sketch and the summary round width and
// top-k up to a power of two in 32 bits, which a larger value would
// overflow, and more rows than MaxDepth only cost time. withDefaults
// clamps to them.
const (
	MaxWidth = 1 << 20
	MaxDepth = 16
	MaxTopK  = 1 << 16
)

// SketchBytes bounds the memory the engine's count-min sketch holds
// under c, computed without allocating it. The sketch grows with the
// cells its keys touch; filled to every cell it holds the width
// (rounded up to a power of two) times depth rows of 8-byte cells, in
// pages of eight, plus 8 bytes of bookkeeping per page (its directory
// entry and its slab owner).
func (c Config) SketchBytes() int64 {
	c = c.withDefaults()
	return int64(sketchPages(sketchWidth(c.Width), c.Depth)) * (pageCells*8 + 8)
}

// withDefaults fills unset fields and clamps the sizes to their bounds.
func (c Config) withDefaults() Config {
	if c.Width <= 0 {
		c.Width = 1024
	}
	if c.Depth <= 0 {
		c.Depth = 4
	}
	if c.TopK <= 0 {
		c.TopK = 128
	}
	c.Width, c.Depth, c.TopK = min(c.Width, MaxWidth), min(c.Depth, MaxDepth), min(c.TopK, MaxTopK)
	if c.Window <= 0 {
		c.Window = 250 * time.Millisecond
	}
	if c.QuietWindows == 0 {
		c.QuietWindows = 2
	} else if c.QuietWindows < 0 {
		c.QuietWindows = 0 // quiet horizon 0 = never re-arm
	}
	return c
}

// Detection is one heavy-hitter verdict: the flow the engine wants
// blocked, at the moment its window estimate crossed the threshold.
type Detection struct {
	// Label is the canonical AITF pair label for the offending flow.
	Label flow.Label
	// Src and Dst are the flow endpoints (Label's concrete pair).
	Src, Dst flow.Addr
	// At is the observation time of the crossing packet.
	At sim.Time
	// EstBytes is the sketch's window byte estimate at the crossing
	// (one-sided: at least the flow's true bytes within the window).
	EstBytes uint64
	// LowBytes is the space-saving lower bound that confirmed the
	// detection: the flow provably carried at least this many bytes
	// within the window, so a detection is sound by construction.
	LowBytes uint64
}

// Stats aggregates engine counters.
type Stats struct {
	// Packets and Bytes count every observed packet.
	Packets, Bytes uint64
	// Detections counts threshold crossings reported.
	Detections uint64
	// Rotations counts window boundaries crossed.
	Rotations uint64
	// Evictions counts space-saving displacements — a proxy for how
	// hard source churn is pressing on the TopK budget.
	Evictions uint64
}

// Engine is the streaming detector. All methods are safe for
// concurrent use (one internal lock; the wire runtime observes from its
// receive goroutine while the control path reads it under the gateway
// lock). Observation is allocation-free at steady state.
type Engine struct {
	mu  sync.Mutex
	cfg Config

	cms  *sketch
	hh   *topk
	base *baselines // nil until the first observation

	winStart   sim.Time
	winStarted bool
	quiet      sim.Time // QuietWindows × Window, precomputed
	thresholdB float64  // ThresholdBps × Window seconds, precomputed

	stats Stats

	// Scratch of mergeTopK, kept so that an engine merged into every
	// round (a cluster's published summaries and merged view) stops
	// allocating once it has seen its largest union.
	mergeBuf []hhEntry
	mergeIdx map[uint64]int
}

// New builds an engine from cfg (defaults applied). A disabled config
// (ThresholdBps <= 0) still yields a working engine that measures but
// never flags. Only the sketch's page directory is allocated up front:
// the cells, the summary and the baselines grow with what the engine
// observes or merges in.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:        cfg,
		cms:        newSketch(cfg.Width, cfg.Depth, splitmix64(cfg.Seed)),
		hh:         newTopK(cfg.TopK, splitmix64(cfg.Seed+1)),
		quiet:      sim.Time(cfg.QuietWindows) * cfg.Window,
		thresholdB: cfg.ThresholdBps * cfg.Window.Seconds(),
	}
	return e
}

// Reset returns the engine to the state New left it in, in place: the
// sketch's held cells are cleared (as at a window boundary), the
// heavy-hitter summary and the baselines are emptied (keeping the
// memory they have grown to), the window is unanchored (the next
// observation or merge anchors it, as on a fresh engine) and the
// counters are zeroed. Configuration, hash seeds and
// any Instrument registration are kept. An accumulator that is Reset
// and refilled behaves exactly like a freshly built one, which is what
// lets a cluster keep the one-contribution-per-round merge discipline
// (see merge.go) without building new engines every round.
func (e *Engine) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cms.rotate()
	e.hh.reset()
	e.base.reset()
	e.winStart, e.winStarted = 0, false
	e.stats = Stats{}
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.Evictions = e.hh.evictions
	return s
}

// pairKey folds a (src, dst) pair into the 64-bit key every summary
// indexes on.
func pairKey(src, dst flow.Addr) uint64 {
	return uint64(src)<<32 | uint64(dst)
}

// rotate advances the window state to cover now.
func (e *Engine) rotate(now sim.Time) {
	if !e.winStarted {
		e.winStarted = true
		e.winStart = now
		return
	}
	if now < e.winStart+e.cfg.Window {
		return
	}
	elapsed := int((now - e.winStart) / e.cfg.Window)
	e.winStart += sim.Time(elapsed) * e.cfg.Window
	e.cms.rotate()
	e.hh.rotate()
	e.base.rotate(elapsed, e.cfg.Window.Seconds())
	e.stats.Rotations += uint64(elapsed)
}

// observeOne is the per-packet pipeline; the caller holds e.mu.
func (e *Engine) observeOne(now sim.Time, tup flow.Tuple, payload int) (Detection, bool) {
	e.rotate(now)
	e.stats.Packets++
	e.stats.Bytes += uint64(payload)
	key := pairKey(tup.Src, tup.Dst)
	est := e.cms.add(key, uint64(payload))
	ent := e.hh.touch(key, uint64(payload), now, e.quiet)
	if e.base == nil {
		e.base = newBaselines(splitmix64(e.cfg.Seed + 2))
	}
	e.base.add(tup.Dst, payload)

	if !e.cfg.Enabled() || ent.flagged {
		return Detection{}, false
	}
	// Two-stage decision. The sketch estimate is one-sided (≥ truth),
	// so failing this test proves the flow is under threshold: no true
	// heavy hitter is ever screened out here.
	if float64(est) <= e.thresholdB {
		return Detection{}, false
	}
	// The space-saving pair (count, err) bounds the key's bytes within
	// the current window from below: count − err is bytes actually
	// charged to this key since it (re)entered the summary this window.
	// Requiring the lower bound to cross makes a detection *sound* — a
	// flow whose true window volume is under threshold can never be
	// flagged, no matter how the sketch collides. The price is a small
	// extra latency (err ≤ the summary's min count at takeover).
	low := ent.count - ent.err
	if float64(low) <= e.thresholdB {
		return Detection{}, false
	}
	ent.flagged = true
	ent.flaggedAt = now
	e.stats.Detections++
	return Detection{
		Label:    flow.PairLabel(tup.Src, tup.Dst),
		Src:      tup.Src,
		Dst:      tup.Dst,
		At:       now,
		EstBytes: est,
		LowBytes: low,
	}, true
}

// Observe runs the whole batch through the detector at time now,
// appending any detections to out and returning it — the same
// caller-owned-buffer shape as dataplane.ClassifyInto, and likewise
// allocation-free at steady state (when out has capacity and nothing
// new is flagged).
func (e *Engine) Observe(now sim.Time, pkts []*packet.Packet, out []Detection) []Detection {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, p := range pkts {
		if d, ok := e.observeOne(now, p.Tuple(), int(p.PayloadLen)); ok {
			out = append(out, d)
		}
	}
	return out
}

// ObserveTuple observes a single concrete tuple of payload bytes — the
// per-packet variant used by hosts and by the wire runtime's inline
// data path.
func (e *Engine) ObserveTuple(now sim.Time, tup flow.Tuple, payload int) (Detection, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.observeOne(now, tup, payload)
}

// Baseline returns the destination's EWMA bandwidth in bytes/second.
func (e *Engine) Baseline(dst flow.Addr) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.base.bps(dst)
}

// HeavyHitter is a snapshot of one tracked candidate.
type HeavyHitter struct {
	Src, Dst flow.Addr
	// Bytes is the space-saving count (an overestimate by at most Err).
	Bytes uint64
	// Err is the count inherited when the key displaced another.
	Err     uint64
	Flagged bool
}

// TopK returns a snapshot of the tracked heavy-hitter candidates in
// slot order (allocates; inspection only).
func (e *Engine) TopK() []HeavyHitter {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]HeavyHitter, 0, e.hh.len())
	for i := range e.hh.entries {
		en := &e.hh.entries[i]
		out = append(out, HeavyHitter{
			Src:     flow.Addr(en.key >> 32),
			Dst:     flow.Addr(en.key & 0xffffffff),
			Bytes:   en.count,
			Err:     en.err,
			Flagged: en.flagged,
		})
	}
	return out
}

// ── endhost.Detector adapter ─────────────────────────────────────────

// HostDetector adapts the engine to the per-packet end-host detector
// interface both runtimes' hosts use (endhost.Detector, satisfied
// structurally).
type HostDetector struct {
	// Engine is the underlying sketch engine, exposed for inspection.
	Engine *Engine
}

// NewHostDetector builds a host-side detector from cfg.
func NewHostDetector(cfg Config) *HostDetector {
	return &HostDetector{Engine: New(cfg)}
}

// Observe implements endhost.Detector.
func (d *HostDetector) Observe(now sim.Time, p *packet.Packet) (flow.Label, bool) {
	det, ok := d.Engine.ObserveTuple(now, p.Tuple(), int(p.PayloadLen))
	return det.Label, ok
}
