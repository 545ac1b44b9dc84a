package stream

import (
	"errors"
	"io"
	"sync"
)

// ErrInterrupted is returned by Queue.Pop (and so Live.Next) after
// Interrupt: the consumer was unblocked without waiting for the buffer
// to drain (cancellation), in contrast to the graceful Close/io.EOF
// path. An interrupt is consumed by the Pop call that reports it — the
// queue itself stays usable, so a later consumer (a fresh run over the
// same feed) can pick up where the canceled one stopped.
var ErrInterrupted = errors.New("stream: live stream interrupted")

// Queue is the one never-blocking hand-off between a producer that must
// not wait — the BGP session reader, the inference goroutine closing
// events, the alert hub publishing under its lock — and a single
// consumer that may be arbitrarily slow: the live feed, every detector
// subscription and sink, every alert watcher and every webhook are this
// type. It is a ring buffer behind one mutex: every operation is O(1)
// and, once the ring has grown to the backlog, allocation-free — in
// particular shedding on a full bounded queue, which runs on the
// producer's goroutine exactly when the system is overloaded.
//
// The producer picks the overflow policy per call: Push sheds the
// oldest element, TryPush refuses the new one. The consumer either
// blocks in Pop, or — when it has to select on other channels too —
// reads a channel fed by Pump.
type Queue[T any] struct {
	mu          sync.Mutex
	cond        *sync.Cond // the consumer, parked in Pop
	ring        []T        // len is zero or a power of two
	head, n     int        // the oldest element's slot; the element count
	limit       int        // max queued elements; 0 = unbounded
	dropped     uint64
	closed      bool
	interrupted bool
	aborted     chan struct{} // closed by Abort; releases a Pump parked on its channel
}

// keepSlots is the largest ring an empty queue holds on to.
const keepSlots = 1024

// NewQueue returns an open queue holding at most limit elements; 0
// leaves it unbounded.
func NewQueue[T any](limit int) *Queue[T] {
	q := &Queue[T]{limit: limit, aborted: make(chan struct{})}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push appends v without ever blocking. On a bounded queue whose
// consumer has fallen a full bound behind it first discards the oldest
// element — a live feed prefers a gappy present over an unbounded past
// — and reports that it did. Pushing to a closed queue is a no-op (late
// producers during shutdown are tolerated).
func (q *Queue[T]) Push(v T) (shed bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	if q.full() {
		q.take()
		q.dropped++
		shed = true
	}
	q.put(v)
	return shed
}

// TryPush appends v unless the queue is at its bound, in which case v
// is refused (and counted in Dropped) and TryPush reports false. Like
// Push it never blocks and is a no-op on a closed queue.
func (q *Queue[T]) TryPush(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return true
	}
	if q.full() {
		q.dropped++
		return false
	}
	q.put(v)
	return true
}

func (q *Queue[T]) full() bool { return q.limit > 0 && q.n >= q.limit }

// put stores v behind the newest element, doubling the ring when every
// slot is taken, and wakes the consumer.
func (q *Queue[T]) put(v T) {
	if q.n == len(q.ring) {
		grown := make([]T, max(8, 2*len(q.ring)))
		k := copy(grown, q.ring[q.head:])
		copy(grown[k:], q.ring[:q.head])
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = v
	q.n++
	q.cond.Signal()
}

// take removes the oldest element, clearing its slot so the ring does
// not keep the element reachable.
func (q *Queue[T]) take() T {
	var zero T
	v := q.ring[q.head]
	q.ring[q.head] = zero
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return v
}

// Pop blocks until an element is available and returns the oldest. It
// returns io.EOF once the queue is closed and drained, and
// ErrInterrupted — ahead of any queued element — when Interrupt was
// called.
func (q *Queue[T]) Pop() (T, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed && !q.interrupted {
		q.cond.Wait()
	}
	var zero T
	if q.interrupted {
		q.interrupted = false
		return zero, ErrInterrupted
	}
	if q.n == 0 {
		return zero, io.EOF
	}
	v := q.take()
	if q.n == 0 && len(q.ring) > keepSlots {
		q.ring, q.head = nil, 0 // a drained burst gives its memory back
	}
	return v, nil
}

// Close ends the queue gracefully: queued elements still drain, then
// Pop returns io.EOF.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// Abort ends the queue now: queued elements are discarded, Pop returns
// io.EOF, and a Pump parked on a channel nobody reads is released. The
// consumer abandoning its queue, or the producer evicting it, calls
// this.
func (q *Queue[T]) Abort() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.ring, q.head, q.n = nil, 0, 0
	q.cond.Broadcast()
	select {
	case <-q.aborted:
	default:
		close(q.aborted)
	}
}

// Interrupt unblocks the consumer immediately: the next Pop call
// (pending or future) returns ErrInterrupted without draining the
// queue, and the interrupt is consumed by that call. Cancellation
// paths use it to abort a consumer parked in Pop; use Close for a
// graceful drain-then-EOF shutdown instead.
func (q *Queue[T]) Interrupt() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.interrupted = true
	q.cond.Broadcast()
}

// ClearInterrupt discards a pending interrupt that no consumer
// observed — a canceled run that exited without a final Pop call
// leaves one behind; the next run clears it before consuming.
func (q *Queue[T]) ClearInterrupt() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.interrupted = false
}

// Len reports the queued element count (monitoring hook).
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Limit reports the bound; 0 means unbounded.
func (q *Queue[T]) Limit() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.limit
}

// SetLimit bounds the queue at n elements; 0 restores the unbounded
// default. Shrinking below the current backlog does not discard
// already-queued elements — the bound applies to future pushes.
func (q *Queue[T]) SetLimit(n int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.limit = n
}

// Dropped counts the elements the bound cost: shed by Push or refused
// by TryPush.
func (q *Queue[T]) Dropped() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dropped
}

// Pump relays the queue into ch, in order, until Pop fails — the queue
// was closed and has drained, or was aborted — and then closes ch. It
// is for the consumers that must select on the queue alongside other
// channels (a public <-chan of events, an SSE handler with a heartbeat
// ticker); everything else calls Pop and spares the goroutine. Run it
// on a goroutine of its own; Abort is what guarantees that goroutine
// exits even when nobody reads ch.
func (q *Queue[T]) Pump(ch chan<- T) {
	defer close(ch)
	for {
		v, err := q.Pop()
		if err != nil {
			return
		}
		select {
		case ch <- v:
		case <-q.aborted:
			return
		}
	}
}
