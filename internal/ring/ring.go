// Package ring is the simulator's one FIFO: a queue over a power-of-two
// ring buffer that doubles when full, so Push and Pop are O(1) at any
// depth and the steady state allocates nothing. The crossbar's
// injection segments and in-flight packets, the L2 partitions' input,
// hit-event and response queues, the SM's LD/ST queue and the L1D's
// miss, bypass and hit queues all sit on it.
package ring

// Queue is a FIFO of T. The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T // len is zero or a power of two
	head int // index of the oldest element
	n    int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Push appends v behind everything already queued.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		buf := make([]T, max(8, 2*len(q.buf)))
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Front returns the oldest element in place. The queue must not be
// empty; the pointer is valid until the next Push or Pop.
func (q *Queue[T]) Front() *T { return &q.buf[q.head] }

// Back returns the newest element in place, under Front's conditions.
func (q *Queue[T]) Back() *T { return &q.buf[(q.head+q.n-1)&(len(q.buf)-1)] }

// Pop removes and returns the oldest element. The queue must not be
// empty. The vacated slot is zeroed, so the ring never pins what it no
// longer holds.
func (q *Queue[T]) Pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}
