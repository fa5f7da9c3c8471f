package filter

// Policer is a token bucket enforcing a filtering contract's request
// rate (§II-A): "the limited rates allow the receiving router to police
// the requests ... and indiscriminately drop requests when the rate is
// in excess of the agreed rate."
//
// Tokens accrue continuously at Rate per second up to Burst; each
// admitted request consumes one token (AllowN charges an arbitrary
// cost, e.g. a packet's bytes for a byte-rate limiter).
type Policer struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   Time

	// Admitted and Dropped count policing decisions. Every Allow call
	// is a decision: a zero-rate policer (no contracted rate, e.g. a
	// neighbor with a zero Default contract) denies every request and
	// charges each denial to Dropped, so the policer's own accounting
	// always agrees with the caller's over-contract counters.
	Admitted uint64
	Dropped  uint64
}

// NewPolicer builds a policer admitting ratePerSec requests per second
// with the given burst. A non-positive rate admits nothing; a
// non-positive burst is raised to 1 so a conforming slow sender is
// never starved.
func NewPolicer(ratePerSec float64, burst float64) *Policer {
	if ratePerSec < 0 {
		ratePerSec = 0
	}
	if burst < 1 {
		burst = 1
	}
	return &Policer{rate: ratePerSec, burst: burst, tokens: burst}
}

// Allow consumes a token if available, advancing the bucket to now.
// Calls must pass nondecreasing times; regressions are clamped.
//
// The refill must be computed from the elapsed delta, rate·(now−last),
// never as rate·now − rate·last: at large absolute sim times both
// products are huge and their float64 difference cancels
// catastrophically, so the refill drifts (under-admitting a conforming
// sender). TestPolicerLargeTimestampPrecision pins this down.
func (p *Policer) Allow(now Time) bool { return p.AllowN(now, 1) }

// AllowN is Allow for a request costing n tokens; a denial consumes
// nothing.
func (p *Policer) AllowN(now Time, n float64) bool {
	if now > p.last {
		p.tokens += p.rate * (now - p.last).Seconds()
		if p.tokens > p.burst {
			p.tokens = p.burst
		}
		p.last = now
	}
	// A zero-rate policer holds its initial burst but may never spend
	// it: no contracted rate means nothing is admitted, and the denial
	// still counts as a policing decision (see the Dropped doc).
	if p.rate <= 0 || p.tokens < n {
		p.Dropped++
		return false
	}
	p.tokens -= n
	p.Admitted++
	return true
}
