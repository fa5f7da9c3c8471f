package netsim

// ring is a growable FIFO over a power-of-two circular buffer; the zero
// value is empty. A link's rings grow to the most packets it ever had
// in flight and allocate nothing after that.
type ring[T any] struct {
	buf  []T
	head uint32 // index of the oldest element
	n    uint32
}

func (r *ring[T]) len() int { return int(r.n) }

// first returns the oldest element, last the newest. Caller checks len.
func (r *ring[T]) first() *T { return &r.buf[r.head] }
func (r *ring[T]) last() *T  { return &r.buf[(r.head+r.n-1)&uint32(len(r.buf)-1)] }

// aitf:noalloc
func (r *ring[T]) push(v T) {
	if int(r.n) == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&uint32(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the oldest element, zeroing its slot so the
// ring does not keep a delivered packet reachable.
//
// aitf:noalloc
func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & uint32(len(r.buf)-1)
	r.n--
	return v
}

// grow stays out of line: push is under the allocation gate, and this
// is its one allocation, paid until the ring reaches its working size.
//
//go:noinline
func (r *ring[T]) grow() {
	buf := make([]T, max(4, 2*len(r.buf)))
	for k := range r.n {
		buf[k] = r.buf[(r.head+k)&uint32(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}
