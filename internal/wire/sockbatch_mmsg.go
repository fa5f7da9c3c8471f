//go:build linux && (amd64 || arm64)

package wire

import (
	"runtime"
	"syscall"
	"unsafe"

	"aitf/internal/packet"
)

// sysSendmmsg is SYS_SENDMMSG, which the frozen syscall package does
// not define for every target (SYS_RECVMMSG it does).
var sysSendmmsg = map[string]uintptr{"amd64": 307, "arm64": 269}[runtime.GOARCH]

// UDP segmentation offload (Linux 4.18 on), which the syscall package
// predates: a message carrying a UDP_SEGMENT control message is one
// payload that the kernel cuts into datagrams of the given size below
// the socket, after one pass down the UDP/IP output path. Its receive
// side, UDP_GRO (Linux 5.0 on), queues such a message whole on a socket
// that sets it, and a read of it carries a UDP_GRO control message with
// the segment size.
const (
	solUDP         = 17  // SOL_UDP
	udpSegment     = 103 // UDP_SEGMENT
	udpGRO         = 104 // UDP_GRO
	udpMaxSegments = 64  // UDP_MAX_SEGMENTS, the most one message may carry

	// maxSegBytes is the longest datagram a run may coalesce: the
	// longest data packet, a header and packet.MaxPathLen route-record
	// entries. Short control packets (verification queries and replies,
	// stop orders) coalesce too; a longer one, such as a filtering
	// request with its evidence path, leaves as a message of its own.
	maxSegBytes = 3 + packet.HeaderBytes + 1 + packet.MaxPathLen*packet.RREntryBytes + 1
)

// A coalesced run is at most batchSlots segments, within the kernel's
// UDP_MAX_SEGMENTS, of at most maxSegBytes each, and at most slotSize
// bytes in all (see group), so that a wire peer reading with UDP_GRO
// gets it whole in one slot: far inside the 64 KB that one GSO payload
// may hold, and each segment with its IPv4 and UDP headers under any
// Ethernet MTU. A change to either side that breaks this fails to
// compile here.
const (
	_ = uint(udpMaxSegments - batchSlots)
	_ = uint(0xffff - 20 - 8 - slotSize)
	_ = uint(slotSize - maxSegBytes)
	_ = uint(1500 - 20 - 8 - maxSegBytes)
)

// mmsghdr is struct mmsghdr of <sys/socket.h>, the element recvmmsg
// and sendmmsg take a vector of. Both targets the build tag admits lay
// it out the same way.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32 // bytes the kernel received into, or sent from, this message
	_   [4]byte
}

// gsoCmsg is a UDP_SEGMENT control message: the cmsghdr and the segment
// size, padded to CMSG_SPACE of the size.
type gsoCmsg struct {
	hdr  syscall.Cmsghdr
	size uint16
	_    [6]byte
}

// groCmsg is room for a UDP_GRO control message, which carries the
// segment size as an int: the cmsghdr and the size, padded to
// CMSG_SPACE of an int.
type groCmsg struct {
	hdr  syscall.Cmsghdr
	size int32
	_    [4]byte
}

// sockBatchSys is the kernel's view of a sockBatch: one iovec per slot
// in each direction, pointing into the slots, wired up once; one
// recvmmsg header per slot; and one sendmmsg header per message, each
// gathering a run of consecutive tx iovecs (see flush). The sockBatch
// must not be copied afterwards.
type sockBatchSys struct {
	rc    syscall.RawConn
	inet6 bool // the socket's family, which destination sockaddrs must match
	// gso is whether the socket takes UDP_SEGMENT: probed once, and
	// switched off for good the first time a segmented message fails.
	gso bool
	// gro is whether the socket reads with UDP_GRO: set once, and
	// switched off for good the first time a coalesced message does
	// not fit its slot.
	gro bool

	rxHdr, txHdr [batchSlots]mmsghdr
	rxIov, txIov [batchSlots]syscall.Iovec
	rxCmsg       [batchSlots]groCmsg                  // rxHdr[i]'s segment size, when the kernel coalesced it
	txName       [batchSlots]syscall.RawSockaddrInet6 // room for either family
	txCmsg       [batchSlots]gsoCmsg                  // txHdr[m]'s segment size, when it carries a run
	txSegs       [batchSlots]int                      // datagrams txHdr[m] carries

	// The RawConn callbacks, bound once (a closure built per call would
	// allocate), and what they exchange with read and flush.
	recvFn, sendFn func(fd uintptr) bool
	got            int // datagrams the last recvmmsg returned
	// flush progress: the queue laid out as messages txHdr[:end], of
	// which txHdr[off] is the next to send and starts at datagram next.
	off, end, next   int
	data, ctrl, msgs int           // datagrams by class, and messages, the socket took
	errno            syscall.Errno // first failure of the call in progress
}

func (b *sockBatch) sysInit() error {
	s := &b.sys
	rc, err := b.conn.SyscallConn()
	if err != nil {
		return err
	}
	s.rc = rc
	var nameErr error
	if err := rc.Control(func(fd uintptr) {
		var sa syscall.Sockaddr
		sa, nameErr = syscall.Getsockname(int(fd))
		_, s.inet6 = sa.(*syscall.SockaddrInet6)
		// A kernel without UDP_SEGMENT fails the probe (ENOPROTOOPT)
		// but ignores the control message, and would send a gathered
		// run as one concatenated datagram.
		_, probeErr := syscall.GetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpSegment)
		s.gso = probeErr == nil
		// A kernel without UDP_GRO refuses it (ENOPROTOOPT) and
		// segments every message on arrival, as before.
		s.gro = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1) == nil
	}); err != nil {
		return err
	}
	if nameErr != nil {
		return nameErr
	}
	for i := 0; i < batchSlots; i++ {
		base := &b.buf[i*slotSize]
		s.rxIov[i].Base = base
		s.rxIov[i].SetLen(slotSize)
		s.rxHdr[i].hdr.Iov = &s.rxIov[i]
		s.rxHdr[i].hdr.Iovlen = 1
		if s.gro {
			s.rxHdr[i].hdr.Control = (*byte)(unsafe.Pointer(&s.rxCmsg[i]))
		}
		s.txIov[i].Base = base
		s.txHdr[i].hdr.Name = (*byte)(unsafe.Pointer(&s.txName[i]))
		s.txCmsg[i].hdr = syscall.Cmsghdr{Level: solUDP, Type: udpSegment}
		s.txCmsg[i].hdr.SetLen(syscall.SizeofCmsghdr + 2)
	}
	s.recvFn, s.sendFn = b.recvmmsg, b.sendmmsg
	return nil
}

// read waits until the socket is readable and takes up to batchSlots
// messages in one recvmmsg: datagrams, or with gro on, runs a peer's
// kernel coalesced, each recorded with its segment size. It returns how
// many, at least one. A coalesced message cut short by its slot, which
// no wire peer sends (see group), switches gro off for good: its whole
// segments are still read, and those to come arrive one datagram each.
//
// aitf:noalloc
func (b *sockBatch) read() (int, error) {
	s := &b.sys
	if s.gro {
		// The kernel overwrites each header's controllen with what it
		// wrote there.
		for i := range s.rxHdr {
			s.rxHdr[i].hdr.SetControllen(int(unsafe.Sizeof(s.rxCmsg[i])))
		}
	}
	if err := s.rc.Read(s.recvFn); err != nil {
		return 0, err
	}
	if s.errno != 0 {
		return 0, errnoErr(s.errno)
	}
	cut := false
	for i := 0; i < s.got; i++ {
		h, c := &s.rxHdr[i], &s.rxCmsg[i]
		m := rxMsg{n: int(h.n), trunc: h.hdr.Flags&syscall.MSG_TRUNC != 0}
		if h.hdr.Controllen >= syscall.SizeofCmsghdr+4 && c.hdr.Level == solUDP && c.hdr.Type == udpGRO {
			m.seg = int(c.size)
		}
		cut = cut || m.trunc && m.seg > 0
		b.rx[i] = m
	}
	if cut {
		s.groOff()
	}
	return s.got, nil
}

// groOff switches UDP_GRO off for the socket. Messages the kernel
// queued whole before then arrive without their segment size, each one
// undecodable; everything after is segmented on arrival.
func (s *sockBatchSys) groOff() {
	var serr error
	if err := s.rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 0)
	}); err != nil || serr != nil {
		return // the socket is closing, or the next cut message tries again
	}
	s.gro = false
	for i := range s.rxHdr {
		s.rxHdr[i].hdr.Control, s.rxHdr[i].hdr.Controllen = nil, 0
	}
}

// recvmmsg is read's RawConn callback. Returning false on EAGAIN parks
// the goroutine in the netpoller until the socket is readable.
func (b *sockBatch) recvmmsg(fd uintptr) bool {
	s := &b.sys
	for {
		r, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&s.rxHdr[0])), batchSlots, syscall.MSG_DONTWAIT, 0, 0)
		switch e {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		}
		s.got, s.errno = int(r), e
		return true
	}
}

// flush writes the queued datagrams, each to its own destination, in
// as few sendmmsg calls as the kernel allows: one message per
// same-destination, same-size run of datagrams no longer than
// maxSegBytes, of at most slotSize bytes, segmented by the kernel where
// it supports UDP_SEGMENT.
// It returns how many data and how many control datagrams, and how
// many messages, the socket took, and the first error.
//
// aitf:noalloc
func (b *sockBatch) flush() (data, ctrl, msgs int, err error) {
	s := &b.sys
	for i := 0; i < b.txN; i++ {
		s.txIov[i].SetLen(b.txLen[i])
	}
	s.off, s.next, s.data, s.ctrl, s.msgs, s.errno = 0, 0, 0, 0, 0, 0
	s.end = b.group(0, 0)
	err = s.rc.Write(s.sendFn)
	b.txN = 0
	if err == nil && s.errno != 0 {
		err = errnoErr(s.errno)
	}
	return s.data, s.ctrl, s.msgs, err
}

// group lays the queued datagrams from the i-th on out as messages from
// txHdr[m] on, and returns the index past the last one. A message is a
// maximal run of consecutive datagrams with the same destination and
// the same length, at most maxSegBytes, of at most slotSize bytes in
// all, or a single datagram while gso is off or for a longer one. The
// cap lets a peer that reads with UDP_GRO take the run whole into one
// slot. The run's datagrams sit in consecutive slots, so its message
// gathers the consecutive iovecs txIov[i:i+k].
//
// aitf:noalloc
func (b *sockBatch) group(m, i int) int {
	s := &b.sys
	for ; i < b.txN; m++ {
		to, size := b.txTo[i], b.txLen[i]
		k := 1
		for s.gso && size <= maxSegBytes && (k+1)*size <= slotSize &&
			i+k < b.txN && b.txTo[i+k] == to && b.txLen[i+k] == size {
			k++
		}
		h := &s.txHdr[m].hdr
		h.Iov, h.Iovlen = &s.txIov[i], uint64(k)
		h.Namelen = s.putSockaddr(m, to.Addr().As16(), to.Port())
		h.Control, h.Controllen = nil, 0
		if k > 1 {
			s.txCmsg[m].size = uint16(size)
			h.Control = (*byte)(unsafe.Pointer(&s.txCmsg[m]))
			h.SetControllen(int(unsafe.Sizeof(s.txCmsg[m])))
		}
		s.txSegs[m] = k
		i += k
	}
	return m
}

// errnoErr boxes e out of line, so that the conversion does not count
// as a heap escape of its aitf:noalloc callers.
//
//go:noinline
func errnoErr(e syscall.Errno) error { return e }

// putSockaddr writes the m-th message's destination, an IPv4 address in
// its v4-mapped form (all the queue admits, see Node.sendTo), in the
// socket's own family, and returns the sockaddr's length.
func (s *sockBatchSys) putSockaddr(m int, mapped [16]byte, port uint16) uint32 {
	port = port<<8 | port>>8 // network byte order; both targets are little-endian
	if s.inet6 {
		s.txName[m] = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Port: port, Addr: mapped}
		return syscall.SizeofSockaddrInet6
	}
	*(*syscall.RawSockaddrInet4)(unsafe.Pointer(&s.txName[m])) =
		syscall.RawSockaddrInet4{Family: syscall.AF_INET, Port: port, Addr: [4]byte(mapped[12:])}
	return syscall.SizeofSockaddrInet4
}

// sendmmsg is flush's RawConn callback. sendmmsg stops at the first
// message it cannot send: after some were sent it reports their count,
// otherwise the error, and then that message is skipped whole so that
// one bad destination cannot hold up the rest. A segmented message
// that fails with EIO (the device has no checksum offload) or EINVAL
// (a segment above the path MTU) instead switches gso off for the
// socket and lays the rest of the flush out again, one datagram a
// message. Returning false on EAGAIN waits for the socket to be
// writable and resumes at s.off.
func (b *sockBatch) sendmmsg(fd uintptr) bool {
	s := &b.sys
	for s.off < s.end {
		r, _, e := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&s.txHdr[s.off])), uintptr(s.end-s.off), syscall.MSG_DONTWAIT, 0, 0)
		switch e {
		case 0:
			for _, k := range s.txSegs[s.off : s.off+int(r)] {
				for _, c := range b.txCtrl[s.next : s.next+k] {
					if c {
						s.ctrl++
					} else {
						s.data++
					}
				}
				s.next += k
			}
			s.off += int(r)
			s.msgs += int(r)
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			if s.txSegs[s.off] > 1 && (e == syscall.EIO || e == syscall.EINVAL) {
				s.gso = false
				s.end = b.group(s.off, s.next)
				continue
			}
			if s.errno == 0 {
				s.errno = e
			}
			s.next += s.txSegs[s.off]
			s.off++
		}
	}
	return true
}
