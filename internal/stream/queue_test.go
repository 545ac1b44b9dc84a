package stream

import (
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"

	"bgpblackholing/internal/faultfs"
)

func TestMain(m *testing.M) { faultfs.LeakCheckMain(m) }

// queueModel is the reference the queue is held to: a slice and the
// queue's rules spelled out naively.
type queueModel struct {
	elems               []int
	limit               int
	dropped             uint64
	closed, interrupted bool
}

func (m *queueModel) full() bool { return m.limit > 0 && len(m.elems) >= m.limit }

func (m *queueModel) push(v int) (shed bool) {
	if m.closed {
		return false
	}
	if m.full() {
		m.elems = m.elems[1:]
		m.dropped++
		shed = true
	}
	m.elems = append(m.elems, v)
	return shed
}

func (m *queueModel) tryPush(v int) bool {
	if m.closed {
		return true
	}
	if m.full() {
		m.dropped++
		return false
	}
	m.elems = append(m.elems, v)
	return true
}

// wouldBlock says whether Pop would park; the single-goroutine driver
// skips the call then.
func (m *queueModel) wouldBlock() bool {
	return len(m.elems) == 0 && !m.closed && !m.interrupted
}

func (m *queueModel) pop() (int, error) {
	if m.interrupted {
		m.interrupted = false
		return 0, ErrInterrupted
	}
	if len(m.elems) == 0 {
		return 0, io.EOF
	}
	v := m.elems[0]
	m.elems = m.elems[1:]
	return v, nil
}

// TestQueueMatchesModel drives random operation sequences through a
// Queue and the slice model side by side: after every step the length,
// the drop count, each popped element and each error must agree. A
// failure names its seed and step.
func TestQueueMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q, m := NewQueue[int](0), &queueModel{}
		if seed%2 == 0 {
			lim := 1 + rng.Intn(40)
			q, m = NewQueue[int](lim), &queueModel{limit: lim}
		}
		for step := 0; step < 600; step++ {
			var op string
			switch r := rng.Intn(100); {
			case r < 35:
				op = "Push"
				if got, want := q.Push(step), m.push(step); got != want {
					t.Fatalf("seed %d step %d: Push shed = %v, model %v", seed, step, got, want)
				}
			case r < 50:
				op = "TryPush"
				if got, want := q.TryPush(step), m.tryPush(step); got != want {
					t.Fatalf("seed %d step %d: TryPush = %v, model %v", seed, step, got, want)
				}
			case r < 88:
				op = "Pop"
				if m.wouldBlock() {
					continue
				}
				got, err := q.Pop()
				want, wantErr := m.pop()
				if got != want || !errors.Is(err, wantErr) {
					t.Fatalf("seed %d step %d: Pop = %d, %v; model %d, %v", seed, step, got, err, want, wantErr)
				}
			case r < 93:
				op = "SetLimit"
				m.limit = rng.Intn(50)
				q.SetLimit(m.limit)
			case r < 96:
				op = "Interrupt"
				m.interrupted = true
				q.Interrupt()
			case r < 98:
				op = "ClearInterrupt"
				m.interrupted = false
				q.ClearInterrupt()
			case r < 99:
				op = "Close"
				m.closed = true
				q.Close()
			default:
				op = "Abort"
				m.closed, m.elems = true, nil
				q.Abort()
			}
			if q.Len() != len(m.elems) || q.Dropped() != m.dropped || q.Limit() != m.limit {
				t.Fatalf("seed %d step %d after %s: Len %d Dropped %d Limit %d; model %d %d %d",
					seed, step, op, q.Len(), q.Dropped(), q.Limit(), len(m.elems), m.dropped, m.limit)
			}
		}
	}
}

// TestQueueFullPushDoesNotAllocate is the deterministic form of the
// overload cost: shedding on a full bounded queue runs on the
// producer's goroutine — inference — so it must not allocate, let alone
// copy the bound, whatever the bound is.
func TestQueueFullPushDoesNotAllocate(t *testing.T) {
	for _, bound := range []int{4096, 65536} {
		q := NewQueue[*Elem](bound)
		e := &Elem{}
		for i := 0; i < bound; i++ {
			q.Push(e)
		}
		if allocs := testing.AllocsPerRun(1000, func() {
			if !q.Push(e) {
				t.Fatal("push onto a full queue shed nothing")
			}
		}); allocs != 0 {
			t.Errorf("bound %d: %.1f allocations per Push on a full queue, want 0", bound, allocs)
		}
		if q.Len() != bound {
			t.Errorf("bound %d: Len = %d after shedding", bound, q.Len())
		}
	}
}

// TestQueueSlotsReleaseElements checks that neither a Pop nor a shed
// leaves the element reachable from the ring, and that a drained burst
// does not pin its ring.
func TestQueueSlotsReleaseElements(t *testing.T) {
	q := NewQueue[*Elem](4)
	for i := 0; i < 10; i++ { // six of them shed
		q.Push(&Elem{})
	}
	for q.Len() > 0 {
		if _, err := q.Pop(); err != nil {
			t.Fatal(err)
		}
	}
	for i, e := range q.ring {
		if e != nil {
			t.Fatalf("slot %d still references an element after the queue emptied", i)
		}
	}

	q = NewQueue[*Elem](0)
	for i := 0; i < 4*keepSlots; i++ {
		q.Push(&Elem{})
	}
	for q.Len() > 0 {
		q.Pop()
	}
	if len(q.ring) > keepSlots {
		t.Fatalf("an empty queue holds a %d-slot ring", len(q.ring))
	}
}

// TestQueuePump covers the relay: elements arrive in order and the
// channel closes after Close and the drain; Abort releases a relay
// parked on a channel nobody reads (TestMain's leak check is the proof
// that it exited).
func TestQueuePump(t *testing.T) {
	q := NewQueue[int](0)
	ch := make(chan int)
	go q.Pump(ch)
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	q.Close()
	want := 0
	for v := range ch {
		if v != want {
			t.Fatalf("relayed %d, want %d", v, want)
		}
		want++
	}
	if want != 100 {
		t.Fatalf("relayed %d elements, want 100", want)
	}

	q = NewQueue[int](0)
	stalled := make(chan int) // never read until the relay is gone
	done := make(chan struct{})
	go func() {
		defer close(done)
		q.Pump(stalled)
	}()
	q.Push(1)
	q.Push(2)
	for q.Len() > 1 { // wait for the relay to park on the send of 1
		time.Sleep(time.Millisecond)
	}
	q.Abort()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Abort did not release the parked relay")
	}
	if v, ok := <-stalled; ok {
		t.Fatalf("aborted relay delivered %d", v)
	}
	if _, err := q.Pop(); !errors.Is(err, io.EOF) {
		t.Fatalf("Pop after Abort = %v, want io.EOF", err)
	}
}

// BenchmarkQueueFullPush is one shed on a full bounded queue — what an
// overloaded detector pays per closed event per stalled subscriber.
func BenchmarkQueueFullPush(b *testing.B) {
	const bound = 65536
	q := NewQueue[*Elem](bound)
	e := &Elem{}
	for i := 0; i < bound; i++ {
		q.Push(e)
	}
	b.ReportAllocs()
	for b.Loop() {
		q.Push(e)
	}
}
