package filter

import (
	"testing"
	"testing/quick"
	"time"
)

func TestPolicerSteadyRate(t *testing.T) {
	p := NewPolicer(10, 1) // 10/s, burst 1
	admitted := 0
	// Offer 100 requests over 5 seconds (20/s): expect ~50 admitted.
	for i := 0; i < 100; i++ {
		now := Time(i) * 50 * time.Millisecond
		if p.Allow(now) {
			admitted++
		}
	}
	if admitted < 45 || admitted > 55 {
		t.Fatalf("admitted = %d, want ≈50", admitted)
	}
}

func TestPolicerBurst(t *testing.T) {
	p := NewPolicer(1, 5)
	admitted := 0
	for i := 0; i < 10; i++ {
		if p.Allow(0) { // all at t=0: only the burst passes
			admitted++
		}
	}
	if admitted != 5 {
		t.Fatalf("burst admitted = %d, want 5", admitted)
	}
}

func TestPolicerRefill(t *testing.T) {
	p := NewPolicer(2, 2)
	p.Allow(0)
	p.Allow(0) // bucket empty
	if p.Allow(0) {
		t.Fatal("empty bucket admitted")
	}
	if !p.Allow(time.Second) { // 2 tokens accrued
		t.Fatal("refilled bucket rejected")
	}
	if got := p.Tokens(time.Second); got < 0.9 || got > 1.1 {
		t.Fatalf("Tokens = %v, want ≈1", got)
	}
}

func TestPolicerZeroRate(t *testing.T) {
	p := NewPolicer(0, 10)
	// Initial burst tokens exist but rate 0 admits nothing.
	if p.Allow(time.Hour) {
		t.Fatal("zero-rate policer admitted")
	}
	if p.Dropped != 1 {
		t.Fatalf("Dropped = %d", p.Dropped)
	}
}

func TestPolicerClockRegression(t *testing.T) {
	p := NewPolicer(1, 1)
	p.Allow(10 * time.Second)
	// Regressed clock must not mint tokens or panic.
	before := p.Tokens(10 * time.Second)
	p.Allow(5 * time.Second)
	if p.Tokens(10*time.Second) > before {
		t.Fatal("clock regression minted tokens")
	}
}

// Property: over any horizon, admissions never exceed burst + rate·time.
func TestPropertyPolicerNeverExceedsContract(t *testing.T) {
	f := func(gaps []uint8, rateRaw, burstRaw uint8) bool {
		rate := float64(rateRaw%50) + 1
		burst := float64(burstRaw%20) + 1
		p := NewPolicer(rate, burst)
		now := Time(0)
		admitted := 0
		for _, g := range gaps {
			now += Time(g) * time.Millisecond
			if p.Allow(now) {
				admitted++
			}
		}
		bound := burst + rate*now.Seconds() + 1e-6
		return float64(admitted) <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPolicerAllow(b *testing.B) {
	p := NewPolicer(1000, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Allow(Time(i) * time.Microsecond)
	}
}

// TestPolicerLargeTimestampPrecision: token accrual must use the
// rate·(now−last) delta form. The pre-fix code computed
// rate·now − rate·last as two separate float64 products; at large
// absolute sim times (a long-running simulation or a wall-clock
// runtime that has been up for months) both products are huge, the
// difference cancels catastrophically, and a conforming steady sender
// is spuriously denied even though Tokens — which always used the
// delta form — predicts admission.
func TestPolicerLargeTimestampPrecision(t *testing.T) {
	// ~285 years into the run, near the top of the Duration range:
	// rate·now.Seconds() ≈ 9e11, where one float64 ulp is ~1.2e-4
	// tokens — large enough that the old two-product form visibly
	// corrupts a burst-1 bucket.
	base := Time(9_000_000_000) * time.Second
	p := NewPolicer(100, 1) // 100/s, burst 1: zero headroom for drift
	const steps = 5000
	admitted := 0
	for i := 0; i <= steps; i++ {
		now := base + Time(i)*10*time.Millisecond // exactly one token per step
		avail := p.Tokens(now)
		ok := p.Allow(now)
		// Allow and Tokens must agree on the same accrual arithmetic:
		// if the non-consuming preview says a token is there, the
		// consuming call must admit.
		if avail >= 1 && !ok {
			t.Fatalf("step %d: Tokens(now) = %v but Allow denied", i, avail)
		}
		if ok {
			admitted++
		}
	}
	// A conforming sender offering exactly the contracted rate is
	// admitted every single time — no drift allowance.
	if admitted != steps+1 {
		t.Fatalf("steady conforming sender admitted %d of %d at large timestamps", admitted, steps+1)
	}
}

// TestPolicerAllowTokensAgree: after any Allow, the internal bucket
// matches what Tokens reports for the same instant (one token less
// when the call admitted).
func TestPolicerAllowTokensAgree(t *testing.T) {
	base := Time(8_000_000_000) * time.Second
	p := NewPolicer(3, 4)
	ref := NewPolicer(3, 4)
	for i := 0; i < 1000; i++ {
		now := base + Time(i)*137*time.Millisecond
		before := ref.Tokens(now)
		ok := p.Allow(now)
		want := before
		if ok {
			want--
		}
		if got := p.Tokens(now); got < want-1e-9 || got > want+1e-9 {
			t.Fatalf("step %d: Tokens = %v, want %v (admitted=%v)", i, got, want, ok)
		}
		ref.Allow(now)
	}
}

// TestPolicerZeroRateAccounting pins the zero-rate semantics: a
// policer with no contracted rate denies every request, counts each
// denial in Dropped (every Allow call is a policing decision), and
// never admits — even though the constructor-granted burst tokens are
// formally present.
func TestPolicerZeroRateAccounting(t *testing.T) {
	p := NewPolicer(0, 10)
	for i := 0; i < 7; i++ {
		if p.Allow(Time(i) * time.Hour) {
			t.Fatal("zero-rate policer admitted")
		}
	}
	if p.Admitted != 0 || p.Dropped != 7 {
		t.Fatalf("Admitted = %d, Dropped = %d; want 0, 7", p.Admitted, p.Dropped)
	}
	// Negative contracted rates clamp to zero-rate behaviour.
	n := NewPolicer(-5, 1)
	if n.Allow(time.Second) || n.Dropped != 1 {
		t.Fatalf("negative-rate policer: Admitted on first call or Dropped = %d", n.Dropped)
	}
}
