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
// nothing and takes no gateway lock. Its one lock is gateway-side
// detection's: every datagram toward a protected destination takes
// detect.Engine's mutex, and also Cluster.mu when a cluster is
// configured; the rare datagram that fires a detection then takes the
// gateway lock to file the request. Its socket I/O is batched: a read-loop
// wakeup takes every message waiting on the socket, up to 32, with one
// recvmmsg; the gateway classifies each run of data packets with one
// dataplane.ClassifyInto; and everything the wakeup sends, forwards and
// control messages alike, leaves in one sendmmsg at its end, one
// message per same-destination, same-size run of short datagrams, of
// at most one 2 KB read slot in all, segmented by the kernel where it
// supports UDP_SEGMENT. The socket reads with UDP_GRO where the kernel
// has it, so a peer's such run arrives whole, one message in one slot,
// and the read loop splits it back into its datagrams, all of the
// wakeup's decoded before any handler runs and handed over at most 32
// at a time. A coalesced message longer than its slot, which no wire
// node sends, keeps the datagrams that fit, counts its cut tail once as
// undecodable, and switches UDP_GRO off for the socket for good.
// Arrival order on a socket is kept: the queue is first in, first out,
// and a control packet is handled only after the data ahead of it has
// been classified and queued. A handler without a batch form gets the
// same datagrams one Handle at a time.
// recvmmsg/sendmmsg and UDP segmentation and receive offload are Linux
// (sockbatch_mmsg.go, linux on amd64 and arm64); everywhere else
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
// hands it the datagrams one wakeup took from the socket, decoded and
// in arrival order, at most batchSlots a call, together with the batch
// its sends may be queued on (Node.forward, Node.originate). The
// handler owns the packets, must treat them in order, and must flush tx
// (Node.flush) before it returns, so that nothing queued is left
// behind.
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
	// SendMsgs counts the messages the kernel took: one per direct
	// send, one per datagram a flush sent alone, and one per run it
	// coalesced (see sockBatch.flush), so Sent/SendMsgs is the
	// datagrams per kernel send.
	SendMsgs atomic.Uint64 // aitf:atomic
	// RecvMsgs counts the messages the kernel handed the read loop: one
	// per datagram, or one per run a peer's kernel coalesced where the
	// socket reads with UDP_GRO (see sockBatch.read), so
	// Received/RecvMsgs is the datagrams per kernel receive.
	RecvMsgs atomic.Uint64 // aitf:atomic
	// Undecodable counts datagrams the read loop dropped before any
	// handler saw them: not a packet of this wire format, or longer
	// than any packet of it can be, or the cut tail of a coalesced
	// message longer than its slot (counted once).
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

// readLoop takes every datagram that is waiting on the socket and
// hands it to the handler, one wakeup at a time (see receive).
func (n *Node) readLoop() {
	defer n.wg.Done()
	b, err := newSockBatch(n.conn)
	if err != nil {
		return // socket already closed
	}
	var pkts []*packet.Packet
	for {
		if pkts, err = n.receive(b, pkts); err != nil {
			return // socket closed
		}
	}
}

// receive is one read-loop wakeup: it takes up to batchSlots messages
// with one read, decodes every datagram they hold into pooled packets,
// and hands those to the handler in arrival order, as batches of at most
// batchSlots when it takes batches. All are decoded before any handler
// runs, because what the handler sends reuses the slots. It returns
// pkts, emptied, for the next wakeup to reuse.
//
// aitf:noalloc
func (n *Node) receive(b *sockBatch, pkts []*packet.Packet) ([]*packet.Packet, error) {
	got, err := b.read()
	if err != nil {
		return pkts, err
	}
	pkts, ctrl, bad := b.decode(pkts[:0], got)
	n.RecvMsgs.Add(uint64(got))
	n.Undecodable.Add(uint64(bad))
	n.Received.Add(uint64(len(pkts)))
	n.CtrlReceived.Add(uint64(ctrl))
	n.DataRecv.Add(uint64(len(pkts) - ctrl))
	switch ref := n.handler.Load(); {
	case ref == nil || ref.h == nil:
		for _, p := range pkts {
			p.Release()
		}
	case ref.batch != nil:
		for rest := pkts; len(rest) > 0; {
			k := min(len(rest), batchSlots)
			ref.batch.handleBatch(n, rest[:k], b)
			rest = rest[k:]
		}
	default:
		for _, p := range pkts {
			ref.h.Handle(n, p, prevHop(p))
		}
	}
	return pkts[:0], nil
}

// decode appends to pkts the datagrams of the last read's got messages,
// each message's in order, decoded into pooled packets: shells released
// downstream (e.g. by the gateway's data path once a verdict is final)
// cycle back here instead of being reallocated per datagram. pkts grows
// only past its high-water mark. It returns them, how many are control
// packets, and how many datagrams it dropped: not packets of this wire
// format, or cut short by the read.
//
// aitf:noalloc
func (b *sockBatch) decode(pkts []*packet.Packet, got int) (_ []*packet.Packet, ctrl, bad int) {
	for i := 0; i < got; i++ {
		m, slot := b.rx[i], b.slot(i)
		k, cut := m.split()
		if cut {
			bad++
		}
		for j := 0; j < k; j++ {
			lo, hi := m.datagram(j)
			p := packet.Get()
			if packet.UnmarshalInto(p, slot[lo:hi]) != nil {
				p.Release()
				bad++
				continue
			}
			if p.IsControl() {
				ctrl++
			}
			pkts = append(pkts, p)
		}
	}
	return pkts, ctrl, bad
}

// rxMsg is one message of a read: n bytes received into its slot; seg,
// when the kernel coalesced a peer's run of datagrams into it (UDP_GRO),
// their size, all but the last of them that long, and 0 otherwise; and
// trunc, whether the message was longer than its slot. A length above
// slotSize means the same as trunc.
type rxMsg struct {
	n, seg int
	trunc  bool
}

// split returns how many whole datagrams m holds, and whether the read
// cut one short after them. A message the kernel did not coalesce is
// one datagram, an empty one too, or when cut, none. Of a coalesced one
// cut by its slot only the datagrams that fit whole are kept. Any seg
// is safe: one not above 0 means not coalesced, and one at least the
// message's length one datagram.
func (m rxMsg) split() (k int, cut bool) {
	n := min(m.n, slotSize)
	if m.trunc || m.n > slotSize {
		if m.seg <= 0 {
			return 0, true
		}
		return n / m.seg, true
	}
	if m.seg <= 0 || n == 0 {
		return 1, false
	}
	return 1 + (n-1)/m.seg, false
}

// datagram returns the bounds within m's slot of its j-th datagram, for
// j below split's count.
func (m rxMsg) datagram(j int) (lo, hi int) {
	n := min(m.n, slotSize)
	if m.seg <= 0 {
		return 0, n
	}
	lo = j * m.seg
	return lo, lo + min(m.seg, n-lo)
}

// Messages move through the read loop in batches of up to batchSlots,
// each in a slot of slotSize bytes: 64 KB a node. slotSize is above the
// largest datagram the codec can produce (a header, packet.MaxPathLen
// route-record entries and a FilterReq with packet.MaxEvidenceLen
// evidence entries come to about 1.6 KB), so a longer one is not a
// packet and is dropped unread; and it bounds the coalesced runs a wire
// node sends, so that a peer takes each whole.
const (
	batchSlots = 32
	slotSize   = 2048
)

// sockBatch is the read loop's socket I/O: one read fills slots with
// the messages waiting on the socket, and once their datagrams are
// decoded the same slots carry what handling them sends, data and
// control, queued for one write. How both reach the kernel is the
// platform's half (newSockBatch's sys, read, flush): recvmmsg and
// sendmmsg where they exist, one datagram per call elsewhere. recvmmsg
// takes a peer's coalesced run as one message where the kernel has
// UDP_GRO. sendmmsg sends one message per same-destination, same-size
// run of datagrams no longer than maxSegBytes, of at most slotSize
// bytes, segmented by the kernel where it supports UDP_SEGMENT, and
// each longer datagram as a message of its own. It belongs to the
// read-loop goroutine.
type sockBatch struct {
	conn *net.UDPConn
	buf  []byte // batchSlots slots of slotSize bytes
	// rx[i] is the i-th message of the last read, in slot i.
	rx [batchSlots]rxMsg
	// The first txN slots hold marshalled datagrams queued for txTo;
	// txCtrl marks the control packets among them, for the counters.
	txLen  [batchSlots]int
	txTo   [batchSlots]netip.AddrPort
	txCtrl [batchSlots]bool
	txN    int
	sys    sockBatchSys
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

// queue marshals p, a data or a control packet, into the next free
// slot, to leave for to with the next flush. The caller keeps a free
// slot (see Node.sendTo). Every packet the codec encodes fits a slot.
//
// aitf:noalloc
func (b *sockBatch) queue(p *packet.Packet, to netip.AddrPort) error {
	enc, err := packet.AppendMarshal(b.slot(b.txN)[:0], p)
	if err != nil {
		return err
	}
	b.txLen[b.txN], b.txTo[b.txN], b.txCtrl[b.txN] = len(enc), to, p.IsControl()
	b.txN++
	return nil
}

// flush writes what tx has queued and counts, by class, the datagrams
// the socket took, and the kernel messages they took.
//
// aitf:noalloc
func (n *Node) flush(tx *sockBatch) error {
	if tx.txN == 0 {
		return nil
	}
	data, ctrl, msgs, err := tx.flush()
	n.Sent.Add(uint64(data + ctrl))
	n.DataSent.Add(uint64(data))
	n.CtrlSent.Add(uint64(ctrl))
	n.SendMsgs.Add(uint64(msgs))
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

// sendTo is SendTo or, with tx non-nil, a deferred SendTo: p is
// marshalled now and leaves with the batch's next flush, which also
// counts it. A full queue is flushed first, and an error of that flush
// is returned as this send's. The queue carries IPv4 socket addresses
// only; any other endpoint is written at once.
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
		var ferr error
		if tx.txN == batchSlots {
			ferr = n.flush(tx)
		}
		if err := tx.queue(p, ep.to); err != nil {
			return err
		}
		return ferr
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
	n.SendMsgs.Add(1)
	if p.IsControl() {
		n.CtrlSent.Add(1)
	} else {
		n.DataSent.Add(1)
	}
	return nil
}

// forward sends p one hop toward its destination using the routing
// table, decrementing the TTL. The send is deferred to tx's next flush
// when tx is non-nil (see sendTo).
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
func (n *Node) Originate(p *packet.Packet) error { return n.originate(p, nil) }

// originate is Originate with the send deferred to tx's next flush when
// tx is non-nil (see sendTo).
//
// aitf:noalloc
func (n *Node) originate(p *packet.Packet, tx *sockBatch) error {
	if p.Src == 0 {
		p.Src = n.cfg.Addr
	}
	hop, ok := n.cfg.NextHop[p.Dst]
	if !ok {
		return errNoRoute(p.Dst)
	}
	return n.sendTo(hop, p, tx)
}
