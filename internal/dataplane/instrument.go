package dataplane

import (
	"aitf/internal/obs"
)

// Classified returns the number of packets classified since engine
// creation (ClassifyTuple calls plus the summed sizes of all
// ClassifyInto batches).
func (e *Engine) Classified() uint64 { return e.classified.Load() }

// Instrument registers the engine's counters into r under the
// aitf_dataplane_* namespace and turns on batch-size histogram
// recording. All scalar metrics are func instruments reading the
// atomics the engine already maintains, so instrumenting adds nothing
// to the classification hot path beyond the histogram's three
// uncontended atomic adds per batch; the path stays 0 allocs/op
// (pinned by TestClassifySteadyStateZeroAlloc; the cost is measured by
// BenchmarkDataplaneInstrumented). Call at most once per registry.
func (e *Engine) Instrument(r *obs.Registry) {
	r.CounterFunc("aitf_dataplane_classified_total",
		"Packets classified by the data plane.",
		e.Classified)
	r.CounterFunc("aitf_dataplane_filter_drops_total",
		"Packets dropped by wire-speed filters.",
		func() uint64 { return e.FilterStats().Drops })
	r.CounterFunc("aitf_dataplane_filter_dropped_bytes_total",
		"Payload bytes dropped by wire-speed filters.",
		func() uint64 { return e.FilterStats().DroppedBytes })
	r.CounterFunc("aitf_dataplane_filters_installed_total",
		"Filters installed (excluding aggregates).",
		func() uint64 { return e.filters.added.Load() })
	r.CounterFunc("aitf_dataplane_filters_rejected_total",
		"Filter installs rejected by the capacity budget.",
		func() uint64 { return e.filters.rejected.Load() })
	r.CounterFunc("aitf_dataplane_filters_evicted_total",
		"Filters displaced by the eviction policy.",
		func() uint64 { return e.filters.evicted.Load() })
	r.CounterFunc("aitf_dataplane_filters_expired_total",
		"Filters garbage-collected at their deadline.",
		func() uint64 { return e.filters.expired.Load() })
	r.CounterFunc("aitf_dataplane_filters_removed_total",
		"Filters removed explicitly (handshake failures, slot recovery).",
		func() uint64 { return e.removed.Load() })
	r.CounterFunc("aitf_dataplane_aggregates_total",
		"Aggregate (prefix/wildcard) filters installed.",
		func() uint64 { return e.aggregates.Load() })
	r.CounterFunc("aitf_dataplane_aggregated_children_total",
		"Child filters folded into aggregates.",
		func() uint64 { return e.aggregated.Load() })
	r.GaugeFunc("aitf_dataplane_filters",
		"Live wire-speed filter-table occupancy.",
		func() float64 { return float64(e.filters.used.Load()) })
	r.GaugeFunc("aitf_dataplane_filters_peak",
		"Peak wire-speed filter-table occupancy.",
		func() float64 { return float64(e.filters.peak.Load()) })
	r.GaugeFunc("aitf_dataplane_filter_capacity",
		"Configured wire-speed filter budget.",
		func() float64 { return float64(e.cfg.FilterCapacity) })
	r.CounterFunc("aitf_dataplane_shadow_logged_total",
		"Filtering requests logged in the shadow cache.",
		func() uint64 { return e.shadows.added.Load() })
	r.CounterFunc("aitf_dataplane_shadow_hits_total",
		"On-off flow reappearances caught by the shadow cache.",
		func() uint64 { return e.ShadowStats().Hits })
	r.CounterFunc("aitf_dataplane_shadow_expired_total",
		"Shadow records garbage-collected at their deadline.",
		func() uint64 { return e.shadows.expired.Load() })
	r.CounterFunc("aitf_dataplane_shadow_rejected_total",
		"Shadow logs rejected by the capacity budget.",
		func() uint64 { return e.shadows.rejected.Load() })
	r.GaugeFunc("aitf_dataplane_shadow_entries",
		"Live shadow-cache occupancy.",
		func() float64 { return float64(e.shadows.used.Load()) })
	r.GaugeFunc("aitf_dataplane_shadow_capacity",
		"Configured shadow-cache budget.",
		func() float64 { return float64(e.cfg.ShadowCapacity) })
	e.batchHist.Store(r.Histogram("aitf_dataplane_batch_size",
		"Classification batch sizes (packets per ClassifyInto call)."))
}
