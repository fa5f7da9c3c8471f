//go:build linux && (amd64 || arm64)

package wire

import (
	"runtime"
	"syscall"
	"unsafe"
)

// sysSendmmsg is SYS_SENDMMSG, which the frozen syscall package does
// not define for every target (SYS_RECVMMSG it does).
var sysSendmmsg = map[string]uintptr{"amd64": 307, "arm64": 269}[runtime.GOARCH]

// mmsghdr is struct mmsghdr of <sys/socket.h>, the element recvmmsg
// and sendmmsg take a vector of. Both targets the build tag admits lay
// it out the same way.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32 // bytes the kernel received into, or sent from, this message
	_   [4]byte
}

// sockBatchSys is the kernel's view of a sockBatch: one message header
// and one iovec per slot in each direction, pointing into the slots,
// wired up once. The sockBatch must not be copied afterwards.
type sockBatchSys struct {
	rc    syscall.RawConn
	inet6 bool // the socket's family, which destination sockaddrs must match

	rxHdr, txHdr [batchSlots]mmsghdr
	rxIov, txIov [batchSlots]syscall.Iovec
	txName       [batchSlots]syscall.RawSockaddrInet6 // room for either family

	// The RawConn callbacks, bound once (a closure built per call would
	// allocate), and what they exchange with read and flush.
	recvFn, sendFn func(fd uintptr) bool
	got            int           // datagrams the last recvmmsg returned
	off, end, sent int           // flush progress over txHdr[off:end]
	errno          syscall.Errno // first failure of the call in progress
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
		s.txIov[i].Base = base
		s.txHdr[i].hdr.Iov = &s.txIov[i]
		s.txHdr[i].hdr.Iovlen = 1
		s.txHdr[i].hdr.Name = (*byte)(unsafe.Pointer(&s.txName[i]))
	}
	s.recvFn, s.sendFn = b.recvmmsg, b.sendmmsg
	return nil
}

// read waits until the socket is readable and takes up to batchSlots
// datagrams in one recvmmsg. It returns how many, at least one.
//
// aitf:noalloc
func (b *sockBatch) read() (int, error) {
	s := &b.sys
	if err := s.rc.Read(s.recvFn); err != nil {
		return 0, err
	}
	if s.errno != 0 {
		return 0, errnoErr(s.errno)
	}
	for i := 0; i < s.got; i++ {
		b.rxLen[i] = int(s.rxHdr[i].n)
		if s.rxHdr[i].hdr.Flags&syscall.MSG_TRUNC != 0 {
			b.rxLen[i] = slotSize + 1
		}
	}
	return s.got, nil
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
// as few sendmmsg calls as the kernel allows. It returns how many the
// socket took and the first error.
//
// aitf:noalloc
func (b *sockBatch) flush() (int, error) {
	s := &b.sys
	for i := 0; i < b.txN; i++ {
		s.txIov[i].SetLen(b.txLen[i])
		s.txHdr[i].hdr.Namelen = s.putSockaddr(i, b.txTo[i].Addr().As16(), b.txTo[i].Port())
	}
	s.off, s.end, s.sent, s.errno = 0, b.txN, 0, 0
	b.txN = 0
	if err := s.rc.Write(s.sendFn); err != nil {
		return s.sent, err
	}
	if s.errno != 0 {
		return s.sent, errnoErr(s.errno)
	}
	return s.sent, nil
}

// errnoErr boxes e out of line, so that the conversion does not count
// as a heap escape of its aitf:noalloc callers.
//
//go:noinline
func errnoErr(e syscall.Errno) error { return e }

// putSockaddr writes the i-th destination, an IPv4 address in its
// v4-mapped form (all the queue admits, see Node.sendTo), in the
// socket's own family, and returns the sockaddr's length.
func (s *sockBatchSys) putSockaddr(i int, mapped [16]byte, port uint16) uint32 {
	port = port<<8 | port>>8 // network byte order; both targets are little-endian
	if s.inet6 {
		s.txName[i] = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Port: port, Addr: mapped}
		return syscall.SizeofSockaddrInet6
	}
	*(*syscall.RawSockaddrInet4)(unsafe.Pointer(&s.txName[i])) =
		syscall.RawSockaddrInet4{Family: syscall.AF_INET, Port: port, Addr: [4]byte(mapped[12:])}
	return syscall.SizeofSockaddrInet4
}

// sendmmsg is flush's RawConn callback. sendmmsg stops at the first
// message it cannot send: after some were sent it reports their count,
// otherwise the error, and then that message is skipped so that one
// bad destination cannot hold up the rest. Returning false on EAGAIN
// waits for the socket to be writable and resumes at s.off.
func (b *sockBatch) sendmmsg(fd uintptr) bool {
	s := &b.sys
	for s.off < s.end {
		r, _, e := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&s.txHdr[s.off])), uintptr(s.end-s.off), syscall.MSG_DONTWAIT, 0, 0)
		switch e {
		case 0:
			s.off += int(r)
			s.sent += int(r)
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			if s.errno == 0 {
				s.errno = e
			}
			s.off++
		}
	}
	return true
}
