//go:build !(linux && (amd64 || arm64))

package wire

// sockBatchSys holds nothing where the net package's one-datagram calls
// are the only socket interface: a read fills one slot, a flush is a
// loop, and gso and gro stay false, every datagram a message of its own.
type sockBatchSys struct{ gso, gro bool }

func (b *sockBatch) sysInit() error { return nil }

// read waits for one datagram. It reads into the whole buffer, not one
// slot, so an over-long datagram shows as a length above slotSize on
// every platform, whatever the platform does to a short read buffer.
func (b *sockBatch) read() (int, error) {
	n, _, err := b.conn.ReadFromUDPAddrPort(b.buf)
	if err != nil {
		return 0, err
	}
	b.rx[0] = rxMsg{n: n}
	return 1, nil
}

// flush writes the queued datagrams one call each. It returns how many
// data and how many control datagrams, and as many messages, the socket
// took, and the first error.
func (b *sockBatch) flush() (data, ctrl, msgs int, err error) {
	for i := 0; i < b.txN; i++ {
		if _, werr := b.conn.WriteToUDPAddrPort(b.slot(i)[:b.txLen[i]], b.txTo[i]); werr != nil {
			if err == nil {
				err = werr
			}
			continue
		}
		if b.txCtrl[i] {
			ctrl++
		} else {
			data++
		}
	}
	b.txN = 0
	return data, ctrl, data + ctrl, err
}
