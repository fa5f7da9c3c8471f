package obs

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// fill records n records into l, with At = i and kinds drawn from rng.
func fill(l *Log, rng *rand.Rand, n int) []Record {
	var plain []Record
	for i := 0; i < n; i++ {
		r := Record{At: time.Duration(i), Node: "gw", Kind: EventKind(1 + rng.Intn(int(EvReplicaKilled)))}
		l.Record(r)
		plain = append(plain, r)
	}
	return plain
}

// TestLogAcrossChunks: a log that spans several chunks yields its
// records in the order they were recorded, and Len counts them all.
func TestLogAcrossChunks(t *testing.T) {
	for _, n := range []int{1, chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 5} {
		var l Log
		want := fill(&l, rand.New(rand.NewSource(int64(n))), n)
		if l.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, l.Len())
		}
		var got []Record
		for e := range l.All() {
			got = append(got, e)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: All yielded %d records out of order or changed", n, len(got))
		}
	}
}

// TestLogAllStopsOnBreak: a loop over All that breaks, in the first
// chunk or a later one, sees nothing more.
func TestLogAllStopsOnBreak(t *testing.T) {
	var l Log
	fill(&l, rand.New(rand.NewSource(1)), 3*chunkLen)
	for _, stop := range []int{0, chunkLen - 1, chunkLen, 2*chunkLen + 3} {
		seen := 0
		for e := range l.All() {
			seen++
			if int(e.At) == stop {
				break
			}
		}
		if seen != stop+1 {
			t.Fatalf("break at %d: the loop saw %d records", stop, seen)
		}
	}
}

// TestLogQueriesMatchSlice: OfKind, First and Count answer what a plain
// slice of the same records answers.
func TestLogQueriesMatchSlice(t *testing.T) {
	var l Log
	plain := fill(&l, rand.New(rand.NewSource(2)), 4*chunkLen+9)
	for k := EventKind(0); k <= EvReplicaKilled+1; k++ {
		var of []Record
		for _, e := range plain {
			if e.Kind == k {
				of = append(of, e)
			}
		}
		if got := l.OfKind(k); !reflect.DeepEqual(got, of) {
			t.Fatalf("%v: OfKind returned %d records, the slice holds %d", k, len(got), len(of))
		}
		if got := l.Count(k); got != len(of) {
			t.Fatalf("%v: Count = %d, want %d", k, got, len(of))
		}
		first, ok := l.First(k)
		if ok != (len(of) > 0) || (ok && first != of[0]) {
			t.Fatalf("%v: First = %v, %v; the slice's first is %v", k, first, ok, of)
		}
	}
}

// TestZeroLog: the zero Log is an empty log.
func TestZeroLog(t *testing.T) {
	var l Log
	if l.Len() != 0 || l.OfKind(EvFilterInstalled) != nil || l.Count(EvFilterInstalled) != 0 || l.String() != "" {
		t.Fatalf("zero log: Len %d, OfKind %v, Count %d, String %q",
			l.Len(), l.OfKind(EvFilterInstalled), l.Count(EvFilterInstalled), l.String())
	}
	if _, ok := l.First(EvFilterInstalled); ok {
		t.Fatal("zero log: First found a record")
	}
	for range l.All() {
		t.Fatal("zero log: All yielded a record")
	}
	l.Record(Record{Kind: EvStopOrder})
	if l.Len() != 1 || l.Count(EvStopOrder) != 1 {
		t.Fatalf("after one Record: Len %d, Count %d", l.Len(), l.Count(EvStopOrder))
	}
}

// TestLogCountsInPlace: Count and First read the log without building
// a slice.
func TestLogCountsInPlace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocs/op is meaningless under the race detector")
	}
	var l Log
	fill(&l, rand.New(rand.NewSource(3)), 2*chunkLen)
	if a := testing.AllocsPerRun(10, func() { l.Count(EvStopOrder) }); a != 0 {
		t.Fatalf("Count allocates %v times", a)
	}
	if a := testing.AllocsPerRun(10, func() { l.First(EvReplicaKilled + 1) }); a != 0 {
		t.Fatalf("First allocates %v times", a)
	}
}
