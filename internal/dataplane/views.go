package dataplane

import (
	"aitf/internal/filter"
	"aitf/internal/flow"
)

// TableView is the read surface of the engine's filter bank that
// Gateway.Filters() hands to experiments, examples and tests: one
// table, however many shards hold it. The zero TableView reads as an
// empty table.
type TableView struct{ e *Engine }

// Table returns the filter-bank view.
func (e *Engine) Table() TableView { return TableView{e} }

// Len returns the number of installed filters summed across shards.
func (v TableView) Len() int {
	if v.e == nil {
		return 0
	}
	return v.e.Len()
}

// Stats returns aggregated counters in filter.Stats form.
func (v TableView) Stats() filter.Stats {
	if v.e == nil {
		return filter.Stats{}
	}
	return v.e.FilterStats()
}

// Entries returns a merged snapshot sorted by expiry.
func (v TableView) Entries() []filter.Entry {
	if v.e == nil {
		return nil
	}
	return v.e.FilterEntries()
}

// Expire garbage-collects filters past their deadline.
func (v TableView) Expire(now filter.Time) int {
	if v.e == nil {
		return 0
	}
	return v.e.Expire(now)
}

// Lookup returns a snapshot of the live entry for the exact label.
func (v TableView) Lookup(label flow.Label, now filter.Time) (filter.Entry, bool) {
	if v.e == nil {
		return filter.Entry{}, false
	}
	return v.e.Get(label, now)
}

// ShadowView is the same read surface for the shadow log; the zero
// ShadowView reads as an empty log.
type ShadowView struct{ e *Engine }

// Shadow returns the shadow-cache view.
func (e *Engine) Shadow() ShadowView { return ShadowView{e} }

// Len returns the number of logged shadow records.
func (v ShadowView) Len() int {
	if v.e == nil {
		return 0
	}
	return v.e.ShadowLen()
}

// Stats returns aggregated counters in filter.ShadowStats form.
func (v ShadowView) Stats() filter.ShadowStats {
	if v.e == nil {
		return filter.ShadowStats{}
	}
	return v.e.ShadowStats()
}

// Entries returns a merged snapshot sorted by expiry.
func (v ShadowView) Entries() []filter.ShadowEntry {
	if v.e == nil {
		return nil
	}
	return v.e.ShadowEntries()
}

// ExpireOld garbage-collects records past their deadline.
func (v ShadowView) ExpireOld(now filter.Time) int {
	if v.e == nil {
		return 0
	}
	return v.e.ExpireShadows(now)
}

// Get returns a snapshot of the live record for the exact label.
func (v ShadowView) Get(label flow.Label, now filter.Time) (filter.ShadowEntry, bool) {
	if v.e == nil {
		return filter.ShadowEntry{}, false
	}
	return v.e.ShadowGet(label, now)
}
