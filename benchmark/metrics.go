package main

// metricDef names one metric of the benchmark. BENCHMARK.json lists the
// same names, units, directions and bounds; bench_test.go keeps the two
// in step. README.md says what each one counts.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the baseline it may worsen by
	Exact  bool    // a count that repeats exactly: two runs of one commit agree to the digit
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; "op" is the workload's unit of work:
//
//	fwd_clean, fwd_attack  a datagram (delivered to the sink or filtered)
//	filter_round           a §II-C round, data datagram to stop order
//	sim_army               a simulator event; latency is per 10 ms slice of virtual time
//	sim_scenarios          a generated scenario, built, run and checked
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "mem_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are measured in the traced run, one layer (module) at a
// time, by timing calls into its public functions or reading its public
// counters. A layer a workload never enters reports 0.
var perLayer = []metricDef{
	{Name: "bench.op_p99_us", Unit: "us", Better: "lower"},
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "higher"},

	{Name: "packet.unmarshal_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.marshal_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.allocs_per_op", Unit: "count", Better: "lower"},

	{Name: "dataplane.classify_ns", Unit: "ns", Better: "lower"},
	{Name: "dataplane.classify_batch_ns", Unit: "ns", Better: "lower"},
	{Name: "dataplane.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dataplane.install_ns", Unit: "ns", Better: "lower"},
	{Name: "dataplane.shadow_log_ns", Unit: "ns", Better: "lower"},
	{Name: "dataplane.filters", Unit: "count", Better: "lower", Exact: true},
	{Name: "dataplane.heap_bytes_per_filter", Unit: "B", Better: "lower"},

	{Name: "detect.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "detect.detections", Unit: "count", Better: "lower"},

	{Name: "traceback.nonce_ns", Unit: "ns", Better: "lower"},
	{Name: "traceback.nonce_allocs", Unit: "count", Better: "lower"},
	{Name: "traceback.verify_ns", Unit: "ns", Better: "lower"},

	{Name: "wire.resolve_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.sendto_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.handle_data_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.handle_self_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.udp_floor_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.relay_floor_pps", Unit: "1/s", Better: "higher"},
	{Name: "wire.user_share", Unit: "ratio", Better: "lower"},
	{Name: "wire.allocs_per_pkt", Unit: "count", Better: "lower"},
	{Name: "wire.filter_drops", Unit: "count", Better: "higher"},
	{Name: "wire.ctrl_msgs_per_round", Unit: "count", Better: "lower", Exact: true},
	{Name: "wire.retransmits", Unit: "count", Better: "lower"},
	{Name: "wire.req_policed", Unit: "count", Better: "lower"},
	{Name: "wire.handshakes_failed", Unit: "count", Better: "lower"},
	{Name: "wire.round_detect_us", Unit: "us", Better: "lower"},
	{Name: "wire.round_tempfilter_us", Unit: "us", Better: "lower"},
	{Name: "wire.round_relay_us", Unit: "us", Better: "lower"},
	{Name: "wire.round_handshake_us", Unit: "us", Better: "lower"},
	{Name: "wire.round_stop_us", Unit: "us", Better: "lower"},

	{Name: "sim.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.event_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.hop_ns", Unit: "ns", Better: "lower"},
	{Name: "core.victim_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "core.filters_installed", Unit: "count", Better: "higher", Exact: true},

	{Name: "scenario.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "scenario.run_ms_max", Unit: "ms", Better: "lower"},
	{Name: "scenario.log_events", Unit: "count", Better: "lower", Exact: true},
	{Name: "scenario.violations", Unit: "count", Better: "lower", Exact: true},
	{Name: "scenario.fingerprint32", Unit: "count", Better: "lower", Exact: true},
	{Name: "cluster.merge_round_us", Unit: "us", Better: "lower"},
	{Name: "alloc.choose_ms", Unit: "ms", Better: "lower"},
}

// complete returns the defs' metrics from got, in order, with zeros for
// the ones the workload never entered.
func complete(defs []metricDef, got map[string]Value) map[string]Value {
	out := make(map[string]Value, len(defs))
	for _, d := range defs {
		v := got[d.Name]
		v.Unit = d.Unit
		out[d.Name] = v
	}
	return out
}
