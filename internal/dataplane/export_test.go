package dataplane

// ShardLen returns the occupancy of one hash shard (excluding the wild
// segment), for accounting tests.
func (e *Engine) ShardLen(i int) int {
	s := &e.filters.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}
