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
	// CollateralBytes sums the allocator's estimated collateral legit
	// bytes over installed aggregates; Detections counts sketch
	// detections made on behalf of protected legacy clients.
	CollateralBytes uint64
	Detections      uint64
	// Reliable control-plane counters: logical sends that carried a
	// txid, backoff retransmissions, received duplicates absorbed, and
	// (source, txid) pairs the bounded dedup memory forgot early.
	CtrlReliableSends, CtrlRetransmits, CtrlDupDrops uint64
	CtrlDedupEvicted                                 uint64
	// Snapshot/restore counters; like every counter here they carry
	// across a restart, so SnapshotRestores counts restoring boots.
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
	st := g.stats
	a, l, h := g.agg.Stats(), g.ladder.Stats(), g.hs.Stats()
	st.Aggregations, st.CollateralBytes = a.Aggregations, a.CollateralBytes
	st.CtrlReliableSends, st.CtrlRetransmits = l.ReliableSends, l.Retransmits
	st.HandshakesStarted, st.HandshakesOK, st.HandshakesFailed = h.Started, h.OK, h.Failed
	st.CtrlDedupEvicted = g.dedup.Evicted
	st.FilterDrops = g.filterDrops.Load()
	st.ShadowHits = g.shadowHits.Load()
	return st
}

// RegisterMetrics registers the gateway's full observability surface
// into r: control-plane counters under aitf_gateway_*, transport
// counters under aitf_node_*, and the data plane and the detection
// plane (engine or cluster) under their own namespaces. All instruments
// are read at scrape time; nothing is added to the packet paths beyond
// the engines' own instrumentation. Call at most once per registry.
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
	g.node.registerMetrics(r)
	g.dp.Instrument(r)
	g.plane.Instrument(r)
}

// HostStats is a point-in-time snapshot of a wire host's counters.
type HostStats struct {
	BytesReceived      uint64
	RequestsSent       uint64
	StopOrdersReceived uint64
	SuppressedSends    uint64
	CtrlDupDrops       uint64 // redundant stop-order copies absorbed by txid dedup
}

// Stats snapshots the host counters under the host lock.
func (h *Host) Stats() HostStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
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
	r.CounterFunc("aitf_host_ctrl_dup_drops_total",
		"Duplicate stop-order deliveries absorbed by txid dedup.",
		func() uint64 { return h.Stats().CtrlDupDrops })
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
	r.CounterFunc("aitf_node_send_messages_total",
		"Messages the node's UDP socket took: one per datagram, or one per run the kernel segments (UDP GSO).",
		n.SendMsgs.Load)
	r.CounterFunc("aitf_node_recv_messages_total",
		"Messages the node's UDP socket handed the read loop: one per datagram, or one per run a peer coalesced (UDP GRO).",
		n.RecvMsgs.Load)
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
