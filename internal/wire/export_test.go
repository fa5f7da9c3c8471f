package wire

// pendingHandshakes returns the number of in-flight attacker-side
// handshakes (for the started = ok + failed + pending ledger).
func (g *Gateway) pendingHandshakes() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.hs.Pending()
}

// outstandingReliable returns how many reliable sends still await an
// ack or their final attempt; every ladder drains to zero.
func (g *Gateway) outstandingReliable() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ladder.Outstanding()
}
