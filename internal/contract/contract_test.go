package contract

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// TestPaperWorkedExamples pins the exact numbers the paper computes in
// Section IV; these are the ground truth for experiments E2-E5.
func TestPaperWorkedExamples(t *testing.T) {
	// §IV-A.2: R1 = 100/s, T = 1 min → Nv = 6000 flows.
	if got := ProtectedFlows(100, time.Minute); got != 6000 {
		t.Errorf("Nv = %d, want 6000", got)
	}
	// §IV-B: R1 = 100/s, Ttmp = 600 ms → nv = 60 filters.
	if got := victimGatewayFilters(100, 600*time.Millisecond); got != 60 {
		t.Errorf("nv = %d, want 60", got)
	}
	// §IV-B: mv = R1·T = 6000 shadow entries.
	if got := victimGatewayShadows(100, time.Minute); got != 6000 {
		t.Errorf("mv = %d, want 6000", got)
	}
	// §IV-C: R2 = 1/s, T = 1 min → na = 60 filters.
	if got := attackerGatewayFilters(1, time.Minute); got != 60 {
		t.Errorf("na = %d, want 60", got)
	}
	// §IV-A.1: n=1, Td+Tr = 50 ms, T = 1 min → r ≈ 0.00083.
	r := BandwidthReduction(1, 0, 50*time.Millisecond, time.Minute)
	if math.Abs(r-0.000833) > 0.00001 {
		t.Errorf("r = %v, want ≈0.00083", r)
	}
}

func TestProvisionMatchesIndividualFormulas(t *testing.T) {
	c := DefaultEndHost()
	tm := DefaultTimers()
	p := Provision(c, tm)
	if p.ProtectedFlows != ProtectedFlows(c.R1, tm.T) {
		t.Error("ProtectedFlows mismatch")
	}
	if p.VictimGatewayFilters != victimGatewayFilters(c.R1, tm.Ttmp) {
		t.Error("VictimGatewayFilters mismatch")
	}
	if p.VictimGatewayShadows != victimGatewayShadows(c.R1, tm.T) {
		t.Error("VictimGatewayShadows mismatch")
	}
	if p.AttackerGatewayFilters != attackerGatewayFilters(c.R2, tm.T) {
		t.Error("AttackerGatewayFilters mismatch")
	}
	if p.AttackerFilters != p.AttackerGatewayFilters {
		t.Error("client and provider filter budgets must match (§IV-D)")
	}
	if p.String() == "" {
		t.Error("empty String()")
	}
}

func TestVictimGatewayFiltersCeil(t *testing.T) {
	// 3 req/s × 500 ms = 1.5 → a provider must provision 2 filters.
	if got := victimGatewayFilters(3, 500*time.Millisecond); got != 2 {
		t.Errorf("ceil(1.5) = %d, want 2", got)
	}
	if got := victimGatewayFilters(2, 500*time.Millisecond); got != 1 {
		t.Errorf("exact 1.0 = %d, want 1", got)
	}
}

func TestBandwidthReductionClamps(t *testing.T) {
	if r := BandwidthReduction(1000, time.Hour, time.Hour, time.Second); r != 1 {
		t.Errorf("huge leak should clamp to 1, got %v", r)
	}
	if r := BandwidthReduction(0, time.Second, time.Second, time.Minute); r != 0 {
		t.Errorf("n=0 should give r=0 (full cooperation), got %v", r)
	}
	if r := BandwidthReduction(1, time.Second, 0, 0); r != 1 {
		t.Errorf("T=0 should degrade to r=1, got %v", r)
	}
}

func TestEffectiveBandwidth(t *testing.T) {
	// 10 MB/s attack, n=1, Td=1s, Tr=50ms, T=60s → 10e6 × 1.05/60.
	got := EffectiveBandwidth(10e6, 1, time.Second, 50*time.Millisecond, time.Minute)
	want := 10e6 * 1.05 / 60
	if math.Abs(got-want) > 1 {
		t.Errorf("EffectiveBandwidth = %v, want %v", got, want)
	}
}

func TestTimersValidate(t *testing.T) {
	if err := DefaultTimers().Validate(); err != nil {
		t.Fatalf("default timers invalid: %v", err)
	}
	bad := []Timers{
		{T: 0, Ttmp: time.Second},
		{T: time.Minute, Ttmp: 0},
		{T: time.Second, Ttmp: time.Second},            // Ttmp == T
		{T: time.Second, Ttmp: 2 * time.Second},        // Ttmp > T
		{T: time.Minute, Ttmp: time.Second, Grace: -1}, // negative grace
		{T: time.Minute, Ttmp: time.Second, Penalty: -1},
	}
	for i, tm := range bad {
		if err := tm.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, tm)
		}
	}
}

func TestDefaultContracts(t *testing.T) {
	eh := DefaultEndHost()
	if eh.R1 != 100 || eh.R2 != 1 {
		t.Fatalf("end-host contract = %+v, want paper's R1=100 R2=1", eh)
	}
	p := DefaultPeer()
	if p.R1 != p.R2 {
		t.Fatalf("peer contract should be symmetric, got %+v", p)
	}
}

// Property: all provisioning quantities scale linearly in their rate.
func TestPropertyLinearScaling(t *testing.T) {
	f := func(rRaw uint16, k uint8) bool {
		r := float64(rRaw%1000) + 1
		mult := float64(k%10) + 1
		T := time.Minute
		return ProtectedFlows(r*mult, T) == int(mult)*ProtectedFlows(r, T) &&
			attackerGatewayFilters(r*mult, T) == int(mult)*attackerGatewayFilters(r, T)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: r is monotone in n and antitone in T, and always in [0,1].
func TestPropertyReductionMonotone(t *testing.T) {
	f := func(n uint8, tdMs, trMs uint16, tSec uint8) bool {
		td := time.Duration(tdMs) * time.Millisecond
		tr := time.Duration(trMs) * time.Millisecond
		T := time.Duration(int(tSec)+1) * time.Second
		r1 := BandwidthReduction(int(n), td, tr, T)
		r2 := BandwidthReduction(int(n)+1, td, tr, T)
		r3 := BandwidthReduction(int(n), td, tr, 2*T)
		return r1 >= 0 && r1 <= 1 && r2 >= r1 && r3 <= r1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
