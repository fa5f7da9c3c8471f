package core_test

import (
	"testing"
	"time"

	"aitf/internal/core"
)

func TestMeterBasics(t *testing.T) {
	m := core.NewMeter(time.Second)
	if !m.Idle() {
		t.Fatal("fresh meter not idle")
	}
	m.Add(100*time.Millisecond, 500)
	m.Add(200*time.Millisecond, 500)
	m.Add(2500*time.Millisecond, 1000)
	if m.Idle() {
		t.Fatal("meter idle after Add")
	}
	if m.Bytes != 2000 || m.Packets != 3 {
		t.Fatalf("Bytes=%d Packets=%d", m.Bytes, m.Packets)
	}
	if m.Last() != 2500*time.Millisecond {
		t.Fatalf("Last=%v", m.Last())
	}
	// 2000 bytes over a 10s horizon = 200 B/s.
	if bw := m.BandwidthOver(10 * time.Second); bw != 200 {
		t.Fatalf("BandwidthOver = %v", bw)
	}
	if m.BandwidthOver(0) != 0 {
		t.Fatal("zero horizon should give 0")
	}
}

func TestMeterBuckets(t *testing.T) {
	m := core.NewMeter(time.Second)
	m.Add(100*time.Millisecond, 10) // window 0
	m.Add(900*time.Millisecond, 10) // window 0
	m.Add(2500*time.Millisecond, 7) // window 2
	bs := m.Buckets()
	if len(bs) != 2 {
		t.Fatalf("buckets = %v", bs)
	}
	if bs[0].Index != 0 || bs[0].Bytes != 20 {
		t.Fatalf("bucket0 = %+v", bs[0])
	}
	if bs[1].Index != 2 || bs[1].Bytes != 7 {
		t.Fatalf("bucket1 = %+v", bs[1])
	}
	if m.ActiveWindows() != 2 {
		t.Fatalf("ActiveWindows = %d", m.ActiveWindows())
	}
}

func TestMeterNoWindow(t *testing.T) {
	m := core.NewMeter(0)
	m.Add(time.Second, 10)
	if m.ActiveWindows() != 0 {
		t.Fatal("window disabled but buckets recorded")
	}
}

func BenchmarkMeterAdd(b *testing.B) {
	m := core.NewMeter(time.Second)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Add(time.Duration(i)*time.Microsecond, 1000)
	}
}
