// Package ring implements a growable FIFO ring buffer. The simulator's hot
// paths — link input queues and serialization pipes, L2 slice ingress
// queues, DRAM command queues, the SM's pending-packet list — are all
// bounded-in-practice FIFOs that the previous slice-based code drained with
// `q = q[1:]`, which strands the popped prefix and forces the backing array
// to be reallocated over and over. A ring reuses one backing array for the
// life of the queue: steady-state Push/Pop performs zero allocations.
package ring

// Buffer is a FIFO queue over a circular backing array. The zero value is an
// empty, ready-to-use queue. It is not safe for concurrent use; the
// simulation engine drives all queues from one goroutine.
//
// The backing array's length is always zero or a power of two (grow only
// makes 8, 16, 32, ...), so a slot index wraps with & (len(buf)-1) instead
// of a division.
type Buffer[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued elements.
func (b *Buffer[T]) Len() int { return b.n }

// slot maps the i-th position from the front to its backing-array index. It
// relies on the power-of-two length invariant and a non-empty buf.
func (b *Buffer[T]) slot(i int) int { return (b.head + i) & (len(b.buf) - 1) }

// grow doubles the backing array (minimum 8, so the length stays a power of
// two) and linearizes the contents.
func (b *Buffer[T]) grow() {
	c := len(b.buf) * 2
	if c < 8 {
		c = 8
	}
	nb := make([]T, c)
	for i := 0; i < b.n; i++ {
		nb[i] = b.buf[b.slot(i)]
	}
	b.buf, b.head = nb, 0
}

// Push appends v at the back.
func (b *Buffer[T]) Push(v T) {
	if b.n == len(b.buf) {
		b.grow()
	}
	b.buf[b.slot(b.n)] = v
	b.n++
}

// Front returns a pointer to the oldest element. It panics on an empty
// buffer, which would indicate a caller that skipped its Len check.
func (b *Buffer[T]) Front() *T {
	if b.n == 0 {
		panic("ring: Front on empty buffer")
	}
	return &b.buf[b.head]
}

// At returns a pointer to the i-th element from the front (0 == Front). The
// pointer is invalidated by the next Push/Pop/RemoveAt.
func (b *Buffer[T]) At(i int) *T {
	if i < 0 || i >= b.n {
		panic("ring: index out of range")
	}
	return &b.buf[b.slot(i)]
}

// Pop removes and returns the oldest element. The vacated slot is zeroed so
// the ring does not pin popped pointers against the garbage collector.
func (b *Buffer[T]) Pop() T {
	if b.n == 0 {
		panic("ring: Pop on empty buffer")
	}
	var zero T
	v := b.buf[b.head]
	b.buf[b.head] = zero
	b.head = b.slot(1)
	b.n--
	return v
}

// RemoveAt removes and returns the i-th element from the front, preserving
// the order of the rest. The shorter side of the ring is shifted (the DRAM
// scheduler removes from inside a small scan window, so this stays cheap).
func (b *Buffer[T]) RemoveAt(i int) T {
	if i < 0 || i >= b.n {
		panic("ring: index out of range")
	}
	v := b.buf[b.slot(i)]
	var zero T
	if i < b.n-i-1 {
		// Shift the front segment [0, i) back by one.
		for j := i; j > 0; j-- {
			b.buf[b.slot(j)] = b.buf[b.slot(j-1)]
		}
		b.buf[b.head] = zero
		b.head = b.slot(1)
	} else {
		// Shift the tail segment (i, n) forward by one.
		for j := i; j < b.n-1; j++ {
			b.buf[b.slot(j)] = b.buf[b.slot(j+1)]
		}
		b.buf[b.slot(b.n-1)] = zero
	}
	b.n--
	return v
}
