package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval recorded by the benchmark around its calls
// into a layer. Count is the operations the interval covered; Parent is
// the ID of the span that caused it (-1 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Count   int    `json:"count"`
}

// spans keeps a traced run's spans in memory until the run ends. A nil
// *spans records nothing, so untraced runs share the traced code paths.
// It is used from the generator goroutine only.
type spans struct {
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now(), list: make([]span, 0, 1<<16)} }

// begin opens a span now; end closes it.
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	s.list = append(s.list, span{ID: len(s.list), Parent: parent, Name: name, StartNs: int64(time.Since(s.t0))})
	return len(s.list) - 1
}

func (s *spans) end(id, count int) {
	if s == nil {
		return
	}
	s.list[id].EndNs, s.list[id].Count = int64(time.Since(s.t0)), count
}

// add records a span whose endpoints were observed elsewhere (protocol
// trace events, the attacker node's receive loop).
func (s *spans) add(name string, parent int, start, end time.Time, count int) int {
	if s == nil {
		return -1
	}
	s.list = append(s.list, span{ID: len(s.list), Parent: parent, Name: name,
		StartNs: int64(start.Sub(s.t0)), EndNs: int64(end.Sub(s.t0)), Count: count})
	return len(s.list) - 1
}

// stage times one layer in isolation and returns the median ns/op over
// its batches, which is what the per-layer metric reports.
func (s *spans) stage(name string, batches, per int, op func(lo, hi int)) float64 {
	return median(s.batches(name, batches, per, op, nil))
}

// batches runs a stage: batches spans of per operations each, all
// children of one stage span. op runs operations [lo, hi); between, when
// non-nil, runs untimed after every batch (draining a socket the batch
// wrote to). It returns each batch's ns/op.
func (s *spans) batches(name string, batches, per int, op func(lo, hi int), between func()) []float64 {
	root := s.begin(name, -1)
	perOp := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		id := s.begin(name, root)
		t0 := time.Now()
		op(b*per, (b+1)*per)
		perOp = append(perOp, float64(time.Since(t0))/float64(per))
		s.end(id, per)
		if between != nil {
			between()
		}
	}
	s.end(root, batches*per)
	return perOp
}

// write stores the spans as JSON; the traced run calls it once, at exit.
func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(s.list)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
