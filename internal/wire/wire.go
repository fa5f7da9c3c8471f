// Package wire runs AITF nodes over real UDP sockets on real time — a
// multi-process-style deployment of the same wire format the simulator
// uses (internal/packet). Each node binds one UDP socket; data packets
// hop node to node exactly as in the simulator, so border routers
// stamp route records, police requests, run the 3-way handshake, and
// install filters against genuine traffic.
//
// The wire runtime implements the complete basic protocol of §II-C and
// the anti-spoofing handshake of §II-E for the canonical round
// (victim → victim's gateway → attacker's gateway → attacker).
// Multi-round escalation studies run on the deterministic simulator
// (package aitf); see EXPERIMENTS.md.
//
// A border router pays the datagram path on every packet it forwards,
// so that path (Node's read loop → Gateway → Node's send) allocates
// nothing and takes no lock. Its socket I/O is batched: a read-loop
// wakeup takes every datagram waiting on the socket, up to 32, with one
// recvmmsg; the gateway classifies each run of data packets with one
// dataplane.ClassifyInto; and their forwards leave in one sendmmsg,
// each message carrying its own destination. Arrival order on a socket
// is kept: a control packet in a batch is handled only after the data
// ahead of it has been written out. A handler without a batch form
// (Host) gets the same datagrams one Handle at a time. recvmmsg/sendmmsg are Linux system
// calls (sockbatch_mmsg.go, linux on amd64 and arm64); everywhere else
// sockbatch_portable.go reads one datagram per wakeup and writes the
// queue in a loop, behind the same two operations, so the read loop and
// the gateway are the same code on every platform.
package wire

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"aitf/internal/flow"
	"aitf/internal/packet"
)

// Book maps protocol addresses to UDP endpoints; every node holds the
// same book (a static "DNS" for the emulation).
type Book map[flow.Addr]string

// Resolve returns the UDP address for a protocol address.
func (b Book) Resolve(a flow.Addr) (*net.UDPAddr, error) {
	s, ok := b[a]
	if !ok {
		return nil, errNoEndpoint(a)
	}
	return net.ResolveUDPAddr("udp", s)
}

// The send path's error constructors stay out of line: inlined, their
// formatting would count as a heap escape of the aitf:noalloc functions
// that call them.

//go:noinline
func errNoEndpoint(a flow.Addr) error { return fmt.Errorf("wire: no endpoint for %v", a) }

//go:noinline
func errTTLExpired(dst flow.Addr) error { return fmt.Errorf("wire: TTL expired for %v", dst) }

//go:noinline
func errNoRoute(dst flow.Addr) error { return fmt.Errorf("%w to %v", ErrNoRoute, dst) }

// endpoint is one Book entry resolved ahead of the send path: the
// socket address, or the error resolving it produced.
type endpoint struct {
	to  netip.AddrPort
	err error
}

// resolveAll resolves every entry once, so that a send is a map lookup
// and not a string parse (or, for a host name, a resolver query) per
// datagram. The result is never mutated after it is published.
func (b Book) resolveAll() map[flow.Addr]endpoint {
	eps := make(map[flow.Addr]endpoint, len(b))
	for a := range b {
		ua, err := b.Resolve(a)
		if err != nil {
			eps[a] = endpoint{err: err}
			continue
		}
		ap := ua.AddrPort()
		eps[a] = endpoint{to: netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())}
	}
	return eps
}

// Handler processes packets delivered to a node. from is the protocol
// address of the sending hop (zero when unknown).
type Handler interface {
	Handle(n *Node, p *packet.Packet, from flow.Addr)
}

// batchHandler is the optional fast path of a Handler. The read loop
// hands it every datagram one wakeup took from the socket, decoded and
// in arrival order, together with the batch the forwards may be queued
// on (Node.forward). The handler owns the packets, must treat them in
// order, and must flush tx (Node.flush) before it handles a control
// packet and before it returns, so that nothing queued is overtaken or
// left behind.
type batchHandler interface {
	handleBatch(n *Node, pkts []*packet.Packet, tx *sockBatch)
}

// handlerRef is a Handler and, resolved once at SetHandler, its batch
// form (nil when the handler has none).
type handlerRef struct {
	h     Handler
	batch batchHandler
}

// NodeConfig configures the transport of one wire node.
type NodeConfig struct {
	// Addr is the node's protocol address.
	Addr flow.Addr
	// Name labels log lines.
	Name string
	// Listen is the UDP listen address, e.g. "127.0.0.1:0".
	Listen string
	// Book maps every node of the deployment to its UDP endpoint.
	// When a node listens on a dynamic port, use SetBook after binding.
	Book Book
	// NextHop routes destinations to neighbor protocol addresses;
	// destinations missing from the table are unroutable.
	NextHop map[flow.Addr]flow.Addr
}

// Node is the shared UDP transport under a wire gateway or host. The
// datagram path (read loop, SendTo) takes no lock: the endpoint table
// and the handler are published through atomic pointers and the
// counters are atomic, so a sender on any goroutine and the read loop
// never contend.
type Node struct {
	cfg  NodeConfig
	conn *net.UDPConn
	wg   sync.WaitGroup

	// mu guards closed, for Close only.
	mu     sync.Mutex
	closed bool

	// endpoints is cfg.Book resolved (see Book.resolveAll), replaced
	// whole by SetBook.
	endpoints atomic.Pointer[map[flow.Addr]endpoint] // aitf:atomic
	handler   atomic.Pointer[handlerRef]             // aitf:atomic

	// Sent and Received count packets for tests and stats;
	// the Ctrl/Data splits separate protocol signaling from payload so
	// the metrics surface can show control-plane loss independently of
	// attack congestion (the netsim interfaces keep the same split).
	Sent, Received         atomic.Uint64 // aitf:atomic
	CtrlSent, DataSent     atomic.Uint64 // aitf:atomic
	CtrlReceived, DataRecv atomic.Uint64 // aitf:atomic
	// Undecodable counts datagrams the read loop dropped before any
	// handler saw them: not a packet of this wire format, or longer
	// than any packet of it can be.
	Undecodable atomic.Uint64 // aitf:atomic
}

// NewNode binds the UDP socket. Call SetHandler then Run.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	la, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %q: %w", cfg.Listen, err)
	}
	conn, err := net.ListenUDP("udp", la)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %q: %w", cfg.Listen, err)
	}
	n := &Node{cfg: cfg, conn: conn}
	n.SetBook(cfg.Book)
	return n, nil
}

// Addr returns the node's protocol address.
func (n *Node) Addr() flow.Addr { return n.cfg.Addr }

// Name returns the node's label.
func (n *Node) Name() string { return n.cfg.Name }

// UDPAddr returns the bound socket address (useful with ":0" listens).
func (n *Node) UDPAddr() *net.UDPAddr { return n.conn.LocalAddr().(*net.UDPAddr) }

// SetBook replaces the endpoint book (after all nodes have bound).
func (n *Node) SetBook(b Book) {
	eps := b.resolveAll()
	n.endpoints.Store(&eps)
}

// SetHandler installs the protocol logic.
func (n *Node) SetHandler(h Handler) {
	ref := &handlerRef{h: h}
	ref.batch, _ = h.(batchHandler)
	n.handler.Store(ref)
}

// Run starts the receive loop; it returns immediately.
func (n *Node) Run() {
	n.wg.Add(1)
	go n.readLoop()
}

// Close shuts the socket down and waits for the receive loop.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	err := n.conn.Close()
	n.wg.Wait()
	return err
}

// prevHop is the protocol address of the hop that sent p: the last
// route-record entry when present, the source otherwise.
func prevHop(p *packet.Packet) flow.Addr {
	if len(p.Path) > 0 {
		return p.Path[len(p.Path)-1].Router
	}
	return p.Src
}

// readLoop takes every datagram that is waiting on the socket (up to
// batchSlots per wakeup), decodes them into pooled packets and hands
// them to the handler, as one batch when it takes batches.
func (n *Node) readLoop() {
	defer n.wg.Done()
	b, err := newSockBatch(n.conn)
	if err != nil {
		return // socket already closed
	}
	var pkts [batchSlots]*packet.Packet
	for {
		got, err := b.read()
		if err != nil {
			return // socket closed
		}
		// Decode into pooled packets: shells released downstream (e.g.
		// by the gateway's data path once a verdict is final) cycle back
		// here instead of being reallocated per datagram.
		k, ctrl := 0, 0
		for i := 0; i < got; i++ {
			p := packet.Get()
			if b.rxLen[i] > slotSize || packet.UnmarshalInto(p, b.slot(i)[:b.rxLen[i]]) != nil {
				p.Release()
				n.Undecodable.Add(1)
				continue
			}
			if p.IsControl() {
				ctrl++
			}
			pkts[k] = p
			k++
		}
		n.Received.Add(uint64(k))
		n.CtrlReceived.Add(uint64(ctrl))
		n.DataRecv.Add(uint64(k - ctrl))
		switch ref := n.handler.Load(); {
		case ref == nil || ref.h == nil:
			for _, p := range pkts[:k] {
				p.Release()
			}
		case ref.batch != nil:
			ref.batch.handleBatch(n, pkts[:k], b)
		default:
			for _, p := range pkts[:k] {
				ref.h.Handle(n, p, prevHop(p))
			}
		}
	}
}

// Datagrams move through the read loop in batches of up to batchSlots,
// each in a slot of slotSize bytes: 64 KB a node. slotSize is above the
// largest datagram the codec can produce (a header, packet.MaxPathLen
// route-record entries and a FilterReq with packet.MaxEvidenceLen
// evidence entries come to about 1.6 KB), so a longer one is not a
// packet and is dropped unread.
const (
	batchSlots = 32
	slotSize   = 2048
)

// sockBatch is the read loop's socket I/O: one read fills slots with
// the datagrams waiting on the socket, and once those are decoded the
// same slots carry the forwards queued for one write. How both reach
// the kernel is the platform's half (newSockBatch's sys, read, flush):
// recvmmsg and sendmmsg where they exist, one datagram per call
// elsewhere. It belongs to the read-loop goroutine.
type sockBatch struct {
	conn *net.UDPConn
	buf  []byte // batchSlots slots of slotSize bytes
	// rxLen[i] is the length of the i-th datagram of the last read;
	// above slotSize, the datagram did not fit its slot.
	rxLen [batchSlots]int
	// The first txN slots hold marshalled datagrams queued for txTo.
	txLen [batchSlots]int
	txTo  [batchSlots]netip.AddrPort
	txN   int
	sys   sockBatchSys
}

func newSockBatch(conn *net.UDPConn) (*sockBatch, error) {
	b := &sockBatch{conn: conn, buf: make([]byte, batchSlots*slotSize)}
	if err := b.sysInit(); err != nil {
		return nil, err
	}
	return b, nil
}

// slot is the i-th slot, capped so that an append cannot run into the
// next one.
func (b *sockBatch) slot(i int) []byte {
	return b.buf[i*slotSize : (i+1)*slotSize : (i+1)*slotSize]
}

// queue marshals the data packet p into the next free slot, to leave
// for to with the next flush. A batch never queues more than the
// batchSlots datagrams it read, and a data packet is a header and at
// most packet.MaxPathLen route-record entries, well inside a slot.
//
// aitf:noalloc
func (b *sockBatch) queue(p *packet.Packet, to netip.AddrPort) error {
	enc, err := packet.AppendMarshal(b.slot(b.txN)[:0], p)
	if err != nil {
		return err
	}
	b.txLen[b.txN], b.txTo[b.txN] = len(enc), to
	b.txN++
	return nil
}

// flush writes what tx has queued, all of it data packets (see sendTo),
// and counts what the socket took.
//
// aitf:noalloc
func (n *Node) flush(tx *sockBatch) error {
	if tx.txN == 0 {
		return nil
	}
	sent, err := tx.flush()
	n.Sent.Add(uint64(sent))
	n.DataSent.Add(uint64(sent))
	return err
}

// ErrNoRoute reports an unroutable destination.
var ErrNoRoute = errors.New("wire: no route")

// encBufPool recycles marshal buffers across SendTo calls (and across
// nodes): the write copies the datagram into the kernel, so the buffer
// is reusable the moment the syscall returns.
var encBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, slotSize)
	return &b
}}

// SendTo marshals p into a pooled buffer and sends it directly to the
// node owning addr.
func (n *Node) SendTo(addr flow.Addr, p *packet.Packet) error { return n.sendTo(addr, p, nil) }

// sendTo is SendTo or, with tx non-nil, a deferred SendTo of a data
// packet: p is marshalled now and leaves with the batch's next flush,
// which also counts it. The queue carries IPv4 socket addresses only;
// any other endpoint is written at once.
//
// aitf:noalloc
func (n *Node) sendTo(addr flow.Addr, p *packet.Packet, tx *sockBatch) error {
	ep, ok := (*n.endpoints.Load())[addr]
	if !ok {
		return errNoEndpoint(addr)
	}
	if ep.err != nil {
		return ep.err
	}
	if tx != nil && ep.to.Addr().Is4() {
		return tx.queue(p, ep.to)
	}
	bp := encBufPool.Get().(*[]byte)
	b, err := packet.AppendMarshal((*bp)[:0], p)
	*bp = b[:0] // keep any growth for the next sender
	if err != nil {
		encBufPool.Put(bp)
		return err
	}
	_, err = n.conn.WriteToUDPAddrPort(b, ep.to)
	encBufPool.Put(bp)
	if err != nil {
		return err
	}
	n.Sent.Add(1)
	if p.IsControl() {
		n.CtrlSent.Add(1)
	} else {
		n.DataSent.Add(1)
	}
	return nil
}

// Forward sends p one hop toward its destination using the routing
// table, decrementing the TTL.
func (n *Node) Forward(p *packet.Packet) error { return n.forward(p, nil) }

// forward is Forward with the send deferred to tx's next flush when tx
// is non-nil (see sendTo).
//
// aitf:noalloc
func (n *Node) forward(p *packet.Packet, tx *sockBatch) error {
	if p.TTL == 0 {
		return errTTLExpired(p.Dst)
	}
	p.TTL--
	hop, ok := n.cfg.NextHop[p.Dst]
	if !ok {
		return errNoRoute(p.Dst)
	}
	return n.sendTo(hop, p, tx)
}

// Originate injects a locally generated packet, stamping the source.
func (n *Node) Originate(p *packet.Packet) error {
	if p.Src == 0 {
		p.Src = n.cfg.Addr
	}
	hop, ok := n.cfg.NextHop[p.Dst]
	if !ok {
		return errNoRoute(p.Dst)
	}
	return n.SendTo(hop, p)
}

// timerSet manages cancellable real-time timers under the owner's lock
// discipline: callbacks run in their own goroutine and must take the
// owner's mutex themselves.
type timerSet struct {
	mu     sync.Mutex
	timers map[uint64]*time.Timer
	next   uint64
}

func newTimerSet() *timerSet { return &timerSet{timers: make(map[uint64]*time.Timer)} }

// after schedules fn once after d, returning a cancel func.
func (ts *timerSet) after(d time.Duration, fn func()) (cancel func()) {
	ts.mu.Lock()
	id := ts.next
	ts.next++
	t := time.AfterFunc(d, func() {
		ts.mu.Lock()
		delete(ts.timers, id)
		ts.mu.Unlock()
		fn()
	})
	ts.timers[id] = t
	ts.mu.Unlock()
	return func() {
		ts.mu.Lock()
		if t, ok := ts.timers[id]; ok {
			t.Stop()
			delete(ts.timers, id)
		}
		ts.mu.Unlock()
	}
}

// stopAll cancels every outstanding timer.
func (ts *timerSet) stopAll() {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for id, t := range ts.timers {
		t.Stop()
		delete(ts.timers, id)
	}
}
