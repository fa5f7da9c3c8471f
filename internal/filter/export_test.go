package filter

// Tokens reports the tokens available at time now without consuming.
func (p *Policer) Tokens(now Time) float64 {
	t := p.tokens
	if now > p.last {
		t += p.rate * (now - p.last).Seconds()
		if t > p.burst {
			t = p.burst
		}
	}
	return t
}
