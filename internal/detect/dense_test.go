package detect

import (
	"reflect"
	"testing"

	"aitf/internal/flow"
	"aitf/internal/sim"
)

// denseSketch is the count-min sketch with every cell held from the
// start, in one row-major array: the representation the paged sketch
// replaced, kept as the oracle the fuzzers hold it to. Its seeding,
// hashing and conservative update are the paged sketch's, so the two
// must agree cell for cell.
type denseSketch struct {
	mask  uint32
	depth int
	seeds []uint64
	cells []uint64
}

func newDenseSketch(width, depth int, seed uint64) *denseSketch {
	w := sketchWidth(width)
	s := &denseSketch{mask: w - 1, depth: depth, seeds: make([]uint64, depth)}
	rng := seed
	for i := range s.seeds {
		rng = splitmix64(rng)
		s.seeds[i] = rng
	}
	s.cells = make([]uint64, int(w)*depth)
	return s
}

func (s *denseSketch) cellFor(i int, key uint64) *uint64 {
	h := splitmix64(key ^ s.seeds[i])
	return &s.cells[i*int(s.mask+1)+int(uint32(h)&s.mask)]
}

func (s *denseSketch) add(key, n uint64) uint64 {
	est := s.estimate(key) + n
	for i := 0; i < s.depth; i++ {
		if c := s.cellFor(i, key); *c < est {
			*c = est
		}
	}
	return est
}

func (s *denseSketch) estimate(key uint64) uint64 {
	est := ^uint64(0)
	for i := 0; i < s.depth; i++ {
		est = min(est, *s.cellFor(i, key))
	}
	return est
}

func (s *denseSketch) rotate() { clear(s.cells) }

func (s *denseSketch) merge(o *denseSketch) {
	for i, v := range o.cells {
		s.cells[i] += v
	}
}

func (s *denseSketch) live() int {
	n := 0
	for _, v := range s.cells {
		if v != 0 {
			n++
		}
	}
	return n
}

// twin drives an engine beside two models of its sketch: the dense
// oracle, fed the same updates, and the exact bytes of every key within
// the engine's current window. It mirrors the engine's window, which is
// anchored at the first reading and steps a whole number of windows at
// a time, clearing both models at each boundary the engine crosses.
type twin struct {
	e     *Engine
	dense *denseSketch
	truth map[uint64]uint64

	winStart sim.Time
	started  bool
}

func newTwin(cfg Config) *twin {
	e := New(cfg)
	c := e.Config()
	return &twin{e: e, dense: newDenseSketch(c.Width, c.Depth, splitmix64(c.Seed)), truth: map[uint64]uint64{}}
}

// advance brings the models to now, as every engine reading brings the
// engine, and reports whether a window boundary passed.
func (w *twin) advance(now sim.Time) bool {
	if !w.started {
		w.started, w.winStart = true, now
		return false
	}
	win := w.e.Config().Window
	if now-w.winStart < win {
		return false
	}
	w.winStart += win * ((now - w.winStart) / win)
	w.dense.rotate()
	clear(w.truth)
	return true
}

// observe feeds one packet of size bytes from src to dst to the engine
// and the models, and fails t if a detection reports an estimate other
// than the oracle's.
func (w *twin) observe(t *testing.T, now sim.Time, src, dst flow.Addr, size int) {
	t.Helper()
	w.advance(now)
	key := pairKey(src, dst)
	d, ok := w.e.ObserveTuple(now, flow.TupleOf(src, dst, flow.ProtoUDP, 1, 2), size)
	est := w.dense.add(key, uint64(size))
	w.truth[key] += uint64(size)
	if ok && d.EstBytes != est {
		t.Fatalf("detection of %v->%v estimates %d, dense sketch %d", src, dst, d.EstBytes, est)
	}
}

// reset empties the engine and the models; the window is unanchored.
func (w *twin) reset() {
	w.e.Reset()
	w.dense.rotate()
	clear(w.truth)
	w.started = false
}

// merge folds o into w at now, models included.
func (w *twin) merge(now sim.Time, o *twin) error {
	if err := w.e.Merge(now, o.e); err != nil {
		return err
	}
	w.advance(now)
	o.advance(now)
	w.dense.merge(o.dense)
	for k, v := range o.truth {
		w.truth[k] += v
	}
	return nil
}

// check fails t unless the engine, brought to now, reads as its models
// say: every key's estimate equals the dense oracle's and is at least
// the key's true window bytes, MergeSize counts the oracle's live
// cells, and a sweep flags exactly what the summary and the oracle's
// estimates decide.
func (w *twin) check(t *testing.T, now sim.Time, keys []uint64) {
	t.Helper()
	w.advance(now)
	for _, k := range keys {
		src, dst := flow.Addr(k>>32), flow.Addr(k&0xffffffff)
		est, want := w.e.Estimate(now, src, dst), w.dense.estimate(k)
		if est != want {
			t.Fatalf("estimate %d for %v->%v, dense sketch %d", est, src, dst, want)
		}
		if est < w.truth[k] {
			t.Fatalf("estimate %d < true %d for %v->%v", est, w.truth[k], src, dst)
		}
	}

	w.e.mu.Lock()
	w.e.rotate(now)
	live := 0
	var swept []Detection
	for i := range w.e.hh.entries {
		ent := &w.e.hh.entries[i]
		if ent.count > 0 {
			live++
		}
		est, low := w.dense.estimate(ent.key), ent.count-ent.err
		if !w.e.cfg.Enabled() || ent.flagged || float64(est) <= w.e.thresholdB || float64(low) <= w.e.thresholdB {
			continue
		}
		src, dst := flow.Addr(ent.key>>32), flow.Addr(ent.key&0xffffffff)
		swept = append(swept, Detection{Label: flow.PairLabel(src, dst), Src: src, Dst: dst, At: now, EstBytes: est, LowBytes: low})
	}
	w.e.mu.Unlock()

	if got, want := w.e.MergeSize(), 12*w.dense.live()+34*live; got != want {
		t.Fatalf("MergeSize %d, dense sketch %d", got, want)
	}
	if got := w.e.Sweep(now, nil); !reflect.DeepEqual(got, swept) {
		t.Fatalf("sweep found\n%+v\ndense sketch\n%+v", got, swept)
	}
}
