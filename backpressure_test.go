package bgpblackholing

// Slow-consumer backpressure: a deliberately stalled subscriber must
// never block or slow inference, its queue must stay at the configured
// bound, the policy (drop-oldest or evict) must fire and be counted,
// and its pump goroutine must exit. All assertions hold under -race.

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"bgpblackholing/internal/faultfs"
)

// stallEvent builds a minimal closed event; fanout does not inspect it.
func stallEvent(i int) *Event {
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute)
	return &Event{
		Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24),
		Start:  start,
		End:    start.Add(time.Minute),
	}
}

// TestStalledSubscriberDropOldest feeds a bounded subscription whose
// consumer never reads: the queue must cap at the bound, the overflow
// must be dropped oldest-first and counted, and every event must be
// accounted for as either delivered or dropped once the consumer
// finally drains.
func TestStalledSubscriberDropOldest(t *testing.T) {
	p := smallPipeline(t)
	const bound = 8
	det := p.NewDetector(WithSubscriberQueueBound(bound, DropOldest))
	ch := det.Subscribe()

	const total = 500
	for i := 0; i < total; i++ {
		det.fanout(stallEvent(i))
		if i%50 == 0 {
			for _, ss := range det.SubscriberStats() {
				if ss.Queued > bound {
					t.Fatalf("queue grew to %d, bound is %d", ss.Queued, bound)
				}
				if ss.Bound != bound {
					t.Fatalf("SubscriberStats bound = %d, want %d", ss.Bound, bound)
				}
			}
		}
	}
	det.closeSubs()

	received := 0
	var first *Event
	for ev := range ch {
		if first == nil {
			first = ev
		}
		received++
	}
	dropped := det.Metrics().SubscriberDrops
	if received+int(dropped) != total {
		t.Fatalf("conservation broken: %d received + %d dropped != %d pushed", received, dropped, total)
	}
	if dropped == 0 {
		t.Fatal("stalled consumer behind a bound of 8 dropped nothing")
	}
	// The channel (cap 16) plus one in-flight pump slot plus the bounded
	// queue is all a stalled consumer can ever hold.
	if max := bound + 16 + 1; received > max {
		t.Fatalf("stalled consumer held %d events, bounded plumbing allows at most %d", received, max)
	}
	// Drop-oldest keeps the most recent window: the first delivered
	// event can be old (it raced into the channel before the stall bit),
	// but never one that was counted dropped after delivery started.
	if first == nil {
		t.Fatal("no events delivered at all")
	}
}

// TestStalledSubscriberEvict proves the evict policy: the lagging
// subscription is cut loose — channel closed early, fanout stops
// visiting it — and its pump goroutine exits even though the consumer
// never read a single event.
func TestStalledSubscriberEvict(t *testing.T) {
	p := smallPipeline(t)
	before := faultfs.SnapshotGoroutines()
	det := p.NewDetector(WithSubscriberQueueBound(4, Evict))
	ch := det.Subscribe()

	evicted := false
	for i := 0; i < 10000; i++ {
		det.fanout(stallEvent(i))
		if det.Metrics().SubscriberEvictions == 1 {
			evicted = true
			break
		}
	}
	if !evicted {
		t.Fatal("stalled subscriber was never evicted")
	}
	if n := len(det.SubscriberStats()); n != 0 {
		t.Fatalf("%d subscriptions still registered after eviction", n)
	}
	// Later events must not resurrect the subscription.
	det.fanout(stallEvent(10001))
	if got := det.Metrics().SubscriberEvictions; got != 1 {
		t.Fatalf("evictions = %d after post-eviction fanout, want 1", got)
	}

	// The channel must close without the consumer draining the backlog
	// it never read (the range ends; the test would time out otherwise).
	for range ch {
	}

	// The pump goroutine must be gone.
	faultfs.CheckGoroutines(t, before)
}

// TestStalledSubscriberDoesNotBlockRun runs a real replay window with a
// bounded subscription nobody reads: inference must run to completion
// and produce its full result, with the overflow dropped rather than
// the engine blocked.
func TestStalledSubscriberDoesNotBlockRun(t *testing.T) {
	p := smallPipeline(t)
	const bound = 4
	det := p.NewDetector(WithSubscriberQueueBound(bound, DropOldest))
	ch := det.Subscribe() // never read until Run has returned

	res, err := det.Run(context.Background(), p.Replay(840, 845))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("replay window produced no events")
	}
	received := 0
	for range ch {
		received++
	}
	dropped := int(det.Metrics().SubscriberDrops)
	if received+dropped != len(res.Events) {
		t.Fatalf("conservation broken: %d received + %d dropped != %d closed", received, dropped, len(res.Events))
	}
	if max := bound + 16 + 1; received > max {
		t.Fatalf("stalled consumer held %d events, bounded plumbing allows at most %d", received, max)
	}
	if dropped == 0 && len(res.Events) > bound+16+1 {
		t.Fatal("window overflowed the bounded plumbing but nothing was dropped")
	}
}

// TestSubscribeUnboundedDefault pins the compatibility contract: a
// detector built without options keeps today's unbounded queues, so a
// stalled replay consumer loses nothing.
func TestSubscribeUnboundedDefault(t *testing.T) {
	p := smallPipeline(t)
	det := p.NewDetector()
	ch := det.Subscribe()
	const total = 300
	for i := 0; i < total; i++ {
		det.fanout(stallEvent(i))
	}
	det.closeSubs()
	received := 0
	for range ch {
		received++
	}
	if received != total {
		t.Fatalf("unbounded subscription delivered %d of %d events", received, total)
	}
	if got := det.Metrics().SubscriberDrops; got != 0 {
		t.Fatalf("unbounded subscription dropped %d events", got)
	}
}

// TestLiveSourceBufferLimit proves the same bounding on the live feed's
// publish buffer.
func TestLiveSourceBufferLimit(t *testing.T) {
	src := NewLiveSource()
	src.SetBufferLimit(10)
	for i := 0; i < 100; i++ {
		src.PublishUpdate(&Update{Time: time.Unix(int64(i), 0)}, "test", PlatformRIS)
	}
	if got := src.Pending(); got != 10 {
		t.Fatalf("pending = %d, want the limit 10", got)
	}
	if got := src.Dropped(); got != 90 {
		t.Fatalf("dropped = %d, want 90", got)
	}
	src.Close()
	// The survivors are the newest 10 elements, in order.
	want := int64(90)
	for {
		el, err := src.Next()
		if err != nil {
			break
		}
		if el.Update.Time.Unix() != want {
			t.Fatalf("survivor at %d, want %d (drop-oldest order)", el.Update.Time.Unix(), want)
		}
		want++
	}
	if want != 100 {
		t.Fatalf("drained up to %d, want 100", want)
	}
}
