package stream

import (
	"errors"
	"io"
	"sync"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/collector"
)

// ErrInterrupted is returned by Live.Next after Interrupt: the consumer
// was unblocked without waiting for the buffer to drain (cancellation),
// in contrast to the graceful Close/io.EOF path. An interrupt is
// consumed by the Next call that reports it — the stream itself stays
// usable, so a later consumer (a fresh run over the same feed) can
// pick up where the canceled one stopped.
var ErrInterrupted = errors.New("stream: live stream interrupted")

// Live is a channel-backed stream for near-real-time consumption, the
// BGPStream "live mode" the paper's §10 measurement campaign runs on:
// producers push elements as collectors observe them; a consumer drains
// them through the ordinary Stream interface. Closing the live stream
// ends the consumer with io.EOF after the buffer drains.
type Live struct {
	mu          sync.Mutex
	cond        *sync.Cond
	buf         []*Elem
	limit       int // max buffered elements; 0 = unbounded
	dropped     uint64
	closed      bool
	interrupted bool
}

// NewLive returns an open live stream.
func NewLive() *Live {
	l := &Live{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Publish appends one element. Publishing to a closed stream is a
// no-op (late producers during shutdown are tolerated). When a buffer
// limit is set and the consumer has fallen that far behind, the oldest
// buffered element is discarded to make room — a live feed prefers a
// gappy present over an unbounded past.
func (l *Live) Publish(e *Elem) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	if l.limit > 0 && len(l.buf) >= l.limit {
		l.buf = append(l.buf[1:len(l.buf):len(l.buf)], e)
		l.dropped++
	} else {
		l.buf = append(l.buf, e)
	}
	l.cond.Signal()
}

// Close ends the stream; pending elements still drain.
func (l *Live) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.cond.Broadcast()
}

// Interrupt unblocks the consumer immediately: the next Next call
// (pending or future) returns ErrInterrupted without draining the
// buffer, and the interrupt is consumed by that call. Cancellation
// paths use it to abort a consumer parked in Next; use Close for a
// graceful drain-then-EOF shutdown instead.
func (l *Live) Interrupt() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.interrupted = true
	l.cond.Broadcast()
}

// ClearInterrupt discards a pending interrupt that no consumer
// observed — a canceled run that exited without a final Next call
// leaves one behind; the next run clears it before consuming.
func (l *Live) ClearInterrupt() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.interrupted = false
}

// Next blocks until an element is available or the stream is closed and
// drained.
func (l *Live) Next() (*Elem, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.buf) == 0 && !l.closed && !l.interrupted {
		l.cond.Wait()
	}
	if l.interrupted {
		l.interrupted = false
		return nil, ErrInterrupted
	}
	if len(l.buf) == 0 {
		return nil, io.EOF
	}
	e := l.buf[0]
	l.buf = l.buf[1:]
	return e, nil
}

// Pending reports the buffered element count (monitoring hook).
func (l *Live) Pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// SetLimit bounds the publish buffer at n elements; 0 restores the
// default unbounded buffer. Shrinking below the current backlog does
// not discard already-buffered elements — the bound applies to future
// publishes.
func (l *Live) SetLimit(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.limit = n
}

// Dropped counts elements discarded by the buffer limit.
func (l *Live) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Tick is a convenience for tests and examples: it publishes a minimal
// keepalive-like element with only a timestamp, letting consumers
// observe time progress on otherwise quiet feeds.
func (l *Live) Tick(name string, platform collector.Platform, t time.Time) {
	l.Publish(&Elem{Collector: name, Platform: platform, Update: &bgp.Update{Time: t}})
}
