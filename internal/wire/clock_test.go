package wire

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aitf/internal/contract"
	"aitf/internal/ctrl"
	"aitf/internal/flow"
	"aitf/internal/packet"
	"aitf/internal/sim"
)

// TestClockCancel: a stopped timer never fires, and one armed beside
// it does, on the driver.
func TestClockCancel(t *testing.T) {
	var mu sync.Mutex
	c := newClock(&mu)
	defer c.Close()
	fired := make(chan string, 2)
	mu.Lock()
	c.Stop(c.Arm(30*time.Millisecond, func() { fired <- "stopped" }))
	c.Arm(30*time.Millisecond, func() { fired <- "live" })
	mu.Unlock()
	select {
	case got := <-fired:
		if got != "live" {
			t.Fatal("stopped timer fired")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("live timer never fired")
	}
	select {
	case <-fired:
		t.Fatal("stopped timer fired")
	case <-time.After(100 * time.Millisecond):
	}
}

// TestClockFiresUnderOwnerLock: callbacks run in deadline order, each
// with the owner's lock held, and one that re-arms itself runs again.
func TestClockFiresUnderOwnerLock(t *testing.T) {
	var mu sync.Mutex
	c := newClock(&mu)
	defer c.Close()
	var got []int
	done := make(chan struct{})
	record := func(i int) func() {
		return func() {
			if mu.TryLock() {
				mu.Unlock()
				t.Errorf("callback %d ran without the owner's lock", i)
			}
			got = append(got, i)
		}
	}
	again := 0
	var rearm func()
	rearm = func() {
		if again++; again < 3 {
			c.Arm(time.Millisecond, rearm)
			return
		}
		close(done)
	}
	mu.Lock()
	c.Arm(30*time.Millisecond, record(3))
	c.Arm(10*time.Millisecond, record(1))
	c.Arm(20*time.Millisecond, record(2))
	c.Arm(40*time.Millisecond, rearm)
	mu.Unlock()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("re-arming timer stopped before its third firing")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fired %v, want [1 2 3]", got)
	}
}

// TestClockClampsBelowLastFired: the queue is monotone, so a deadline
// below the instant the driver last fired up to is clamped to it, and
// fires at the next wakeup instead of breaking the queue's order.
func TestClockClampsBelowLastFired(t *testing.T) {
	var mu sync.Mutex
	c := newClock(&mu)
	defer c.Close()
	fired := make(chan struct{}, 1)
	mu.Lock()
	c.Arm(time.Millisecond, func() { fired <- struct{}{} })
	mu.Unlock()
	<-fired
	mu.Lock()
	floor := c.q.Now()
	if floor <= 0 {
		mu.Unlock()
		t.Fatal("the driver fired without moving the queue's floor")
	}
	c.Arm(-time.Hour, func() { fired <- struct{}{} }) // a deadline long before the floor
	if at, ok := c.q.Next(); !ok || at != floor {
		mu.Unlock()
		t.Fatalf("deadline below the floor queued at %v (ok=%v), want clamped to %v", at, ok, floor)
	}
	mu.Unlock()
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("clamped timer never fired")
	}
}

// TestClockNoCallbackAfterClose: once Close returns no callback runs,
// whether it was due, pending or armed afterwards.
func TestClockNoCallbackAfterClose(t *testing.T) {
	var mu sync.Mutex
	c := newClock(&mu)
	var runs atomic.Int64
	fn := func() { runs.Add(1) }
	mu.Lock()
	for i := 0; i < 1000; i++ {
		c.Arm(time.Duration(i%20)*time.Millisecond, fn)
	}
	mu.Unlock()
	time.Sleep(5 * time.Millisecond) // let some fire
	c.Close()
	at := runs.Load()
	mu.Lock()
	if c.Arm(0, fn) != (sim.Timer{}) {
		t.Error("an arm after Close handed out a live handle")
	}
	mu.Unlock()
	time.Sleep(50 * time.Millisecond)
	if got := runs.Load(); got != at {
		t.Fatalf("%d callbacks ran after Close returned", got-at)
	}
	c.Close() // idempotent
}

// TestClockOneDriverPerGateway: a gateway's timers cost one goroutine,
// its clock's driver, however many are armed and fire at once: every
// callback runs on a driver's stack, not on a goroutine of its own.
// Close ends the driver. Drivers are counted by their stacks, so
// goroutines other tests leave winding down do not count.
func TestClockOneDriverPerGateway(t *testing.T) {
	before := drivers()
	const n = 4
	gws := make([]*Gateway, n)
	for i := range gws {
		g, err := NewGateway(GatewayConfig{
			Node:   NodeConfig{Addr: flow.MakeAddr(10, 0, 0, byte(i+1))},
			Timers: testTimers(),
			Secret: []byte("s"),
		})
		if err != nil {
			t.Fatal(err)
		}
		gws[i] = g
	}
	if got := drivers() - before; got != n {
		t.Fatalf("%d gateways run %d clock drivers, want one each", n, got)
	}
	g := gws[0]
	var offDriver atomic.Int64
	var wg sync.WaitGroup
	fn := func() {
		buf := make([]byte, 64<<10)
		if !strings.Contains(string(buf[:runtime.Stack(buf, false)]), driverFrame) {
			offDriver.Add(1)
		}
		wg.Done()
	}
	wg.Add(1000)
	g.mu.Lock()
	for i := 0; i < 1000; i++ {
		g.clock.Arm(time.Duration(i%10)*time.Millisecond, fn)
	}
	g.mu.Unlock()
	wg.Wait()
	if k := offDriver.Load(); k != 0 {
		t.Fatalf("%d of 1000 callbacks ran off the clock's driver goroutine", k)
	}
	for _, g := range gws {
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := drivers(); got != before {
		t.Fatalf("%d clock drivers still running after Close, want %d", got, before)
	}
}

// driverFrame marks a clock driver's goroutine in a stack dump, even
// before the goroutine first runs.
const driverFrame = "created by aitf/internal/wire.newClock"

// drivers counts the goroutines running a clock driver.
func drivers() int {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), driverFrame)
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestClockRacesReadLoopAndAdmin: handshake timeouts and query
// retransmits armed by the read loop, restores re-arming them from an
// admin goroutine, and the driver firing them all race; under -race
// this is the check that the clock takes no unguarded step. Every
// handshake then fails at its deadline against a mute victim, leaving
// no timer's work behind.
func TestClockRacesReadLoopAndAdmin(t *testing.T) {
	victimA := flow.MakeAddr(10, 0, 0, 2)
	sink, err := NewNode(NodeConfig{Addr: victimA, Name: "mute"})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	g, err := NewGateway(GatewayConfig{
		Node: NodeConfig{
			Addr:    flow.MakeAddr(10, 9, 0, 1),
			Name:    "a_gw",
			NextHop: map[flow.Addr]flow.Addr{victimA: victimA},
		},
		Timers:           testTimers(),
		Default:          contract.Contract{R1: 1e6, R1Burst: 1e6},
		Secret:           []byte("agw-secret"),
		Control:          ctrl.Config{MaxAttempts: 3, RTO: 5 * time.Millisecond},
		HandshakeTimeout: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.node.SetBook(Book{victimA: sink.UDPAddr().String()})
	g.Run()
	sink.Run()
	sender, err := NewNode(NodeConfig{Addr: victimA, Name: "requester", Book: Book{g.node.Addr(): g.node.UDPAddr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	const requests = 300
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the read loop's arms: one handshake per request
		defer wg.Done()
		for i := 0; i < requests; i++ {
			src := flow.MakeAddr(30, 0, byte(i>>8), byte(i))
			req := &packet.FilterReq{
				Stage:    packet.StageToAttackerGW,
				Flow:     flow.PairLabel(src, victimA),
				Duration: time.Second,
				Round:    1,
				Victim:   victimA,
				Evidence: []packet.RREntry{{Router: g.node.Addr(), Nonce: g.rec.Nonce(flow.Tuple{Src: src, Dst: victimA})}},
			}
			if err := sender.SendTo(g.node.Addr(), packet.NewControl(victimA, g.node.Addr(), req)); err != nil {
				t.Error(err)
				return
			}
			if i%16 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	go func() { // the admin goroutine's: restores re-arm the pendings
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := g.Restore(g.Snapshot()); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	waitUntil(t, 5*time.Second, func() bool {
		return g.Stats().HandshakesStarted > 0 && g.pendingHandshakes() == 0 && g.outstandingReliable() == 0
	}, "handshakes or retransmission ladders outstanding after every deadline passed")
}
