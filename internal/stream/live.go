package stream

import (
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/collector"
)

// Live is a queue-backed stream for near-real-time consumption, the
// BGPStream "live mode" the paper's §10 measurement campaign runs on:
// producers push elements as collectors observe them; a consumer drains
// them through the ordinary Stream interface. It is a Queue of elements
// under the Stream vocabulary — Close (the consumer sees io.EOF after
// the buffer drains), Interrupt, ClearInterrupt, SetLimit and Dropped
// are the queue's own.
type Live struct {
	*Queue[*Elem]
}

// NewLive returns an open live stream with an unbounded buffer.
func NewLive() *Live { return &Live{NewQueue[*Elem](0)} }

// Publish appends one element, discarding the oldest buffered one when
// a buffer limit is set and the consumer has fallen that far behind.
// Publishing to a closed stream is a no-op.
func (l *Live) Publish(e *Elem) { l.Push(e) }

// Next blocks until an element is available or the stream is closed and
// drained.
func (l *Live) Next() (*Elem, error) { return l.Pop() }

// Pending reports the buffered element count (monitoring hook).
func (l *Live) Pending() int { return l.Len() }

// Tick is a convenience for tests and examples: it publishes a minimal
// keepalive-like element with only a timestamp, letting consumers
// observe time progress on otherwise quiet feeds.
func (l *Live) Tick(name string, platform collector.Platform, t time.Time) {
	l.Publish(&Elem{Collector: name, Platform: platform, Update: &bgp.Update{Time: t}})
}
