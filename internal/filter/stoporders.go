package filter

import "aitf/internal/flow"

// StopOrders is the filter set a compliant client holds (§IV-D): the
// stop orders its provider sent it, each live until its deadline, that
// its own sends must honour. Both runtimes' hosts match stop orders
// through it, so they share one rule.
//
// Orders on the two label shapes a tuple names directly — its exact
// 5-tuple and its (src, dst) pair — are found by lookup. Only the rest
// (prefixes, wildcard endpoints, partial wildcards) are scanned with
// Matches, and the scan drops the expired ones it passes. Times must be
// nondecreasing from call to call.
//
// The zero value is ready to use. Not safe for concurrent use.
type StopOrders struct {
	direct map[flow.Label]Time
	rest   []stopOrder
}

type stopOrder struct {
	label flow.Label
	until Time
}

// isDirect reports whether a canonical label is one Blocks finds by
// lookup: an exact 5-tuple or a (src, dst) pair.
func isDirect(l flow.Label) bool {
	exact := l.Wildcards == 0 && l.SrcPrefixLen == 0 && l.DstPrefixLen == 0
	return exact || l == flow.PairLabel(l.Src, l.Dst)
}

// Add records a stop order on label until the given time, replacing any
// order already held on the same label.
func (s *StopOrders) Add(label flow.Label, until Time) {
	label = label.Canonical()
	if isDirect(label) {
		if s.direct == nil {
			s.direct = make(map[flow.Label]Time)
		}
		s.direct[label] = until
		return
	}
	for i := range s.rest {
		if s.rest[i].label == label {
			s.rest[i].until = until
			return
		}
	}
	s.rest = append(s.rest, stopOrder{label, until})
}

// Blocks reports whether an order live at now covers t.
func (s *StopOrders) Blocks(t flow.Tuple, now Time) bool {
	if len(s.direct) > 0 {
		// An exact tuple and a pair label are canonical as built.
		if until, ok := s.direct[t.ExactLabel()]; ok && until > now {
			return true
		}
		if until, ok := s.direct[flow.PairLabel(t.Src, t.Dst)]; ok && until > now {
			return true
		}
	}
	for i := 0; i < len(s.rest); {
		o := &s.rest[i]
		if o.until <= now {
			last := len(s.rest) - 1
			*o = s.rest[last]
			s.rest = s.rest[:last]
			continue
		}
		if o.label.Matches(t) {
			return true
		}
		i++
	}
	return false
}

// Active counts the orders live at now.
func (s *StopOrders) Active(now Time) int {
	n := 0
	for _, until := range s.direct {
		if until > now {
			n++
		}
	}
	for _, o := range s.rest {
		if o.until > now {
			n++
		}
	}
	return n
}
