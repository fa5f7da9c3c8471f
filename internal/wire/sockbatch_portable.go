//go:build !(linux && (amd64 || arm64))

package wire

// sockBatchSys is empty where the net package's one-datagram calls are
// the only socket interface: a read fills one slot, a flush is a loop.
type sockBatchSys struct{}

func (b *sockBatch) sysInit() error { return nil }

// read waits for one datagram. It reads into the whole buffer, not one
// slot, so an over-long datagram shows as a length above slotSize on
// every platform, whatever the platform does to a short read buffer.
func (b *sockBatch) read() (int, error) {
	n, _, err := b.conn.ReadFromUDPAddrPort(b.buf)
	if err != nil {
		return 0, err
	}
	b.rxLen[0] = n
	return 1, nil
}

// flush writes the queued datagrams one call each. It returns how many
// the socket took and the first error.
func (b *sockBatch) flush() (int, error) {
	var sent int
	var first error
	for i := 0; i < b.txN; i++ {
		if _, err := b.conn.WriteToUDPAddrPort(b.slot(i)[:b.txLen[i]], b.txTo[i]); err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		sent++
	}
	b.txN = 0
	return sent, first
}
