package wire

import "aitf/internal/obs"

// GatewayStats is a point-in-time snapshot of the wire gateway's
// protocol counters, safe to take from any goroutine (an admin
// scraper, a test) while the gateway runs.
type GatewayStats struct {
	ReqReceived, ReqPoliced, ReqInvalid uint64
	HandshakesStarted                   uint64
	HandshakesOK, HandshakesFailed      uint64
	StopOrders                          uint64
	Aggregations                        uint64
	CollateralBytes                     uint64
	Detections                          uint64
	// Reliable control-plane counters: logical sends that carried a
	// txid, backoff retransmissions, received duplicates absorbed, and
	// (source, txid) pairs the bounded dedup memory forgot early.
	CtrlReliableSends, CtrlRetransmits, CtrlDupDrops uint64
	CtrlDedupEvicted                                 uint64
	// Snapshot/restore counters.
	SnapshotSaves, SnapshotRestores  uint64
	FiltersRestored, ShadowsRestored uint64
	// PolicerEvicted counts request policers dropped to hold their
	// size bound against spoofed previous hops.
	PolicerEvicted          uint64
	FilterDrops, ShadowHits uint64
}

// Stats snapshots the control-plane counters under the gateway lock
// (they are mutated there) and the data-plane counters atomically.
func (g *Gateway) Stats() GatewayStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.statsLocked()
}

// statsLocked is Stats for callers already holding g.mu.
func (g *Gateway) statsLocked() GatewayStats {
	return GatewayStats{
		ReqReceived:       g.ReqReceived,
		ReqPoliced:        g.ReqPoliced,
		ReqInvalid:        g.ReqInvalid,
		HandshakesStarted: g.HandshakesStarted,
		HandshakesOK:      g.HandshakesOK,
		HandshakesFailed:  g.HandshakesFailed,
		StopOrders:        g.StopOrders,
		Aggregations:      g.Aggregations,
		CollateralBytes:   g.CollateralBytes,
		Detections:        g.Detections,
		CtrlReliableSends: g.CtrlReliableSends,
		CtrlRetransmits:   g.CtrlRetransmits,
		CtrlDupDrops:      g.CtrlDupDrops,
		CtrlDedupEvicted:  g.dedup.Evicted,
		SnapshotSaves:     g.SnapshotSaves,
		SnapshotRestores:  g.SnapshotRestores,
		FiltersRestored:   g.FiltersRestored,
		ShadowsRestored:   g.ShadowsRestored,
		PolicerEvicted:    g.PolicerEvicted,
		FilterDrops:       g.FilterDrops.Load(),
		ShadowHits:        g.ShadowHits.Load(),
	}
}

// RegisterMetrics registers the gateway's full observability surface
// into r: control-plane counters under aitf_gateway_*, transport
// counters under aitf_node_*, and the data-plane and detection engines
// under their own namespaces. All instruments are read at scrape time;
// nothing is added to the packet paths beyond the engines' own
// instrumentation. Call at most once per registry.
func (g *Gateway) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("aitf_gateway_requests_received_total",
		"Filtering requests received.",
		func() uint64 { return g.Stats().ReqReceived })
	r.CounterFunc("aitf_gateway_requests_policed_total",
		"Filtering requests dropped by the contract policer.",
		func() uint64 { return g.Stats().ReqPoliced })
	r.CounterFunc("aitf_gateway_requests_invalid_total",
		"Filtering requests rejected for bad route-record evidence.",
		func() uint64 { return g.Stats().ReqInvalid })
	r.CounterFunc("aitf_gateway_handshakes_started_total",
		"Three-way handshakes started.",
		func() uint64 { return g.Stats().HandshakesStarted })
	r.CounterFunc("aitf_gateway_handshakes_ok_total",
		"Three-way handshakes completed.",
		func() uint64 { return g.Stats().HandshakesOK })
	r.CounterFunc("aitf_gateway_handshakes_failed_total",
		"Three-way handshakes timed out or superseded.",
		func() uint64 { return g.Stats().HandshakesFailed })
	r.CounterFunc("aitf_gateway_ctrl_reliable_sends_total",
		"Logical control sends handled by the retransmission engine.",
		func() uint64 { return g.Stats().CtrlReliableSends })
	r.CounterFunc("aitf_gateway_ctrl_retransmits_total",
		"Control-plane retransmission attempts.",
		func() uint64 { return g.Stats().CtrlRetransmits })
	r.CounterFunc("aitf_gateway_ctrl_dup_drops_total",
		"Duplicate control deliveries absorbed by txid dedup.",
		func() uint64 { return g.Stats().CtrlDupDrops })
	r.CounterFunc("aitf_gateway_ctrl_dedup_evicted_total",
		"Control (source, txid) pairs forgotten inside the dedup window to hold its size bound.",
		func() uint64 { return g.Stats().CtrlDedupEvicted })
	r.CounterFunc("aitf_gateway_req_policer_evicted_total",
		"Request policers dropped to hold their size bound against spoofed previous hops.",
		func() uint64 { return g.Stats().PolicerEvicted })
	r.CounterFunc("aitf_gateway_snapshot_saves_total",
		"Drain snapshots written to disk.",
		func() uint64 { return g.Stats().SnapshotSaves })
	r.CounterFunc("aitf_gateway_snapshot_restores_total",
		"Boots that restored state from a drain snapshot.",
		func() uint64 { return g.Stats().SnapshotRestores })
	r.CounterFunc("aitf_gateway_filters_restored_total",
		"Filters re-adopted from a snapshot with their original deadlines.",
		func() uint64 { return g.Stats().FiltersRestored })
	r.CounterFunc("aitf_gateway_stop_orders_total",
		"Stop orders sent to attacking clients.",
		func() uint64 { return g.Stats().StopOrders })
	r.CounterFunc("aitf_gateway_aggregations_total",
		"Sibling-filter groups coalesced under table pressure.",
		func() uint64 { return g.Stats().Aggregations })
	r.CounterFunc("aitf_gateway_aggregate_collateral_bytes_total",
		"Estimated collateral legit bytes priced into installed aggregates.",
		func() uint64 { return g.Stats().CollateralBytes })
	r.CounterFunc("aitf_gateway_detections_total",
		"Attacks detected on behalf of protected legacy clients.",
		func() uint64 { return g.Stats().Detections })
	if clu := g.clu; clu != nil {
		r.GaugeFunc("aitf_cluster_log_length",
			"Replicated filter-log length (ops retained).",
			func() float64 { return float64(clu.LogLen()) })
		r.CounterFunc("aitf_cluster_merge_rounds_total",
			"Cluster merge rounds run (sketch exchange + log shipping).",
			func() uint64 { return clu.Stats().MergeRounds })
		r.CounterFunc("aitf_cluster_merge_bytes_total",
			"Estimated replication traffic exchanged by merge rounds.",
			func() uint64 { return clu.Stats().MergeBytes })
		r.CounterFunc("aitf_cluster_failovers_total",
			"Replica deaths absorbed by consistent-hash reassignment.",
			func() uint64 { return clu.Stats().Failovers })
		r.CounterFunc("aitf_cluster_catchup_ops_total",
			"Log ops replayed into survivors during failover catch-up.",
			func() uint64 { return clu.Stats().CatchupOps })
		r.CounterFunc("aitf_cluster_catchup_ns_total",
			"Wall-clock nanoseconds spent in failover catch-up.",
			func() uint64 { return clu.Stats().CatchupNanos })
	}
	g.node.registerMetrics(r)
	g.dp.Instrument(r)
	if g.det != nil {
		g.det.Instrument(r)
	}
}

// HostStats is a point-in-time snapshot of a wire host's counters.
type HostStats struct {
	BytesReceived      uint64
	RequestsSent       uint64
	StopOrdersReceived uint64
	SuppressedSends    uint64
}

// Stats snapshots the host counters under the host lock.
func (h *Host) Stats() HostStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HostStats{
		BytesReceived:      h.BytesReceived,
		RequestsSent:       h.RequestsSent,
		StopOrdersReceived: h.StopOrdersReceived,
		SuppressedSends:    h.SuppressedSends,
	}
}

// RegisterMetrics registers the host's counters into r under the
// aitf_host_* namespace plus the transport's aitf_node_* counters.
// Call at most once per registry.
func (h *Host) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("aitf_host_bytes_received_total",
		"Payload bytes of delivered data packets.",
		func() uint64 { return h.Stats().BytesReceived })
	r.CounterFunc("aitf_host_requests_sent_total",
		"Filtering requests issued.",
		func() uint64 { return h.Stats().RequestsSent })
	r.CounterFunc("aitf_host_stop_orders_received_total",
		"Provider stop orders received.",
		func() uint64 { return h.Stats().StopOrdersReceived })
	r.CounterFunc("aitf_host_suppressed_sends_total",
		"Packets withheld for stop-order compliance.",
		func() uint64 { return h.Stats().SuppressedSends })
	h.node.registerMetrics(r)
}

// Counts returns the node's total packets sent and received.
func (n *Node) Counts() (sent, received uint64) {
	return n.Sent.Load(), n.Received.Load()
}

// classCounts snapshots the per-class transport counters.
func (n *Node) classCounts() (cs, ds, cr, dr uint64) {
	return n.CtrlSent.Load(), n.DataSent.Load(), n.CtrlReceived.Load(), n.DataRecv.Load()
}

// registerMetrics registers the transport counters, including the
// control-vs-data class split so dashboards can separate protocol
// signaling from (attack) payload.
func (n *Node) registerMetrics(r *obs.Registry) {
	r.CounterFunc("aitf_node_packets_sent_total",
		"Datagrams sent by the node's UDP transport.",
		func() uint64 { s, _ := n.Counts(); return s })
	r.CounterFunc("aitf_node_packets_received_total",
		"Datagrams received by the node's UDP transport.",
		func() uint64 { _, rcv := n.Counts(); return rcv })
	r.CounterFunc("aitf_node_control_packets_sent_total",
		"Control-plane datagrams sent.",
		func() uint64 { cs, _, _, _ := n.classCounts(); return cs })
	r.CounterFunc("aitf_node_data_packets_sent_total",
		"Data datagrams sent.",
		func() uint64 { _, ds, _, _ := n.classCounts(); return ds })
	r.CounterFunc("aitf_node_control_packets_received_total",
		"Control-plane datagrams received.",
		func() uint64 { _, _, cr, _ := n.classCounts(); return cr })
	r.CounterFunc("aitf_node_data_packets_received_total",
		"Data datagrams received.",
		func() uint64 { _, _, _, dr := n.classCounts(); return dr })
	r.CounterFunc("aitf_node_undecodable_total",
		"Datagrams dropped by the read loop: not decodable as a packet, or longer than any packet.",
		n.Undecodable.Load)
}
