package bgpblackholing

import (
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bgpblackholing/internal/core"
	"bgpblackholing/internal/dictionary"
	"bgpblackholing/internal/mrt"
	"bgpblackholing/internal/stream"
)

// Detector runs the paper's inference engine (§4.2) over any Source,
// with context cancellation and incremental event delivery: events
// stream to Subscribe / Stream subscribers the moment they close,
// instead of appearing only after the final flush. One Detector holds
// one engine's state; sequential Run calls accumulate its events (a live
// deployment can alternate replay catch-up and live feeds), not a replay's
// Figure 2 statistics. Only one Run may be active at a time.
type Detector struct {
	engine *core.Engine
	dict   *Dictionary

	queueBound int
	slowPolicy SlowConsumerPolicy
	subDrops   atomic.Uint64
	subEvicts  atomic.Uint64

	mu      sync.Mutex
	subs    []*eventQueue
	running atomic.Bool // a Run or a seed drives the engine
}

// SlowConsumerPolicy decides what a bounded subscriber queue does when
// a consumer falls a full bound behind the engine.
type SlowConsumerPolicy int

const (
	// DropOldest discards the oldest queued event to make room — the
	// consumer keeps a live (if gappy) feed. The default policy.
	DropOldest SlowConsumerPolicy = iota
	// Evict cancels the lagging subscription outright: its channel
	// closes early and fanout stops visiting it. Consumers that cannot
	// tolerate gaps should be evicted rather than silently fed a
	// subsequence.
	Evict
)

func (p SlowConsumerPolicy) String() string {
	switch p {
	case DropOldest:
		return "drop-oldest"
	case Evict:
		return "evict"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// DetectorOption adjusts a Detector at construction.
type DetectorOption func(*Detector)

// WithSubscriberQueueBound bounds every Subscribe / Stream queue at n
// events, applying policy when a consumer falls that far behind. The
// default (n = 0) keeps the queues unbounded — replay consumers that
// collect everything lose nothing. SinkToStore's queue is always
// unbounded regardless: it is the durability path, and dropping
// persisted events to spare memory would be the wrong trade.
func WithSubscriberQueueBound(n int, policy SlowConsumerPolicy) DetectorOption {
	return func(d *Detector) {
		d.queueBound = n
		d.slowPolicy = policy
	}
}

// NewDetector builds a detector inferring against the given dictionary,
// with the topology standing in for the paper's PeeringDB lookups (IXP
// route-server ASNs and peering LANs).
func NewDetector(dict *Dictionary, topo *Topology, opts ...DetectorOption) *Detector {
	d := &Detector{engine: core.NewEngine(dict, topo), dict: dict}
	for _, o := range opts {
		o(d)
	}
	d.engine.OnEventClose = d.fanout
	return d
}

// NewDetector builds a detector over the pipeline's dictionary and
// topology.
func (p *Pipeline) NewDetector(opts ...DetectorOption) *Detector {
	return NewDetector(p.Dict, p.Topo, opts...)
}

// Metrics returns a snapshot of the engine's counters plus the fan-out
// layer's slow-consumer counters; safe to call after Run returns (live
// deployments report them on shutdown and via /stats).
func (d *Detector) Metrics() Metrics {
	m := d.engine.Metrics()
	m.SubscriberDrops = d.subDrops.Load()
	m.SubscriberEvictions = d.subEvicts.Load()
	return m
}

// ActiveCount reports how many prefixes are currently blackholed.
func (d *Detector) ActiveCount() int { return d.engine.ActiveCount() }

// SeedFromRIBDump seeds the detector from an MRT TABLE_DUMP_V2 archive
// (§4.2 "Initialization Based on BGP Table Dump"): blackholed prefixes
// found in the dump start events whose true start time is unknown. Call
// it before Run; during one it returns ErrDetectorBusy. A truncated
// archive tail ends the dump silently, as collector dumps commonly do;
// any other read or parse failure is returned, since it would leave the
// initialization silently partial.
func (d *Detector) SeedFromRIBDump(r io.Reader, collectorName string, platform Platform) error {
	if !d.running.CompareAndSwap(false, true) {
		return ErrDetectorBusy
	}
	defer d.running.Store(false)
	reader := mrt.NewReader(r)
	for {
		rec, err := reader.Next()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, mrt.ErrTruncated) {
				return nil // end of archive, or the usual truncated tail
			}
			return err
		}
		if rib, ok := rec.(*mrt.RIB); ok {
			entries, err := reader.ResolveRIB(rib)
			if err != nil {
				return err
			}
			d.engine.InitFromRIB(entries, rib.Time, collectorName, platform)
		}
	}
}

// runConfig collects RunOption state.
type runConfig struct {
	flushAt time.Time
	noFlush bool
}

// RunOption adjusts one Run call.
type RunOption func(*runConfig)

// WithFlushAt sets the timestamp at which still-open events are closed
// when the source is exhausted (end of monitoring). The default is the
// window end for a ReplaySource and the current wall-clock time for
// other sources.
func WithFlushAt(t time.Time) RunOption {
	return func(c *runConfig) { c.flushAt = t }
}

// WithoutFlush leaves events still active at end-of-source open, so a
// later Run on the same Detector can resume them — the replay-then-live
// handover pattern.
func WithoutFlush() RunOption {
	return func(c *runConfig) { c.noFlush = true }
}

// ErrDetectorBusy is returned by Run and SeedFromRIBDump when a Run or
// a seed is already active on the same Detector.
var ErrDetectorBusy = errors.New("bgpblackholing: detector already running")

// Run drains the source through the inference engine until io.EOF,
// then closes still-open events and returns the detector's events so far.
// Closed events are delivered incrementally to Subscribe / Stream
// subscribers while Run is in flight; the subscriptions end when Run
// returns.
//
// Cancellation is prompt: when ctx is canceled, Run unblocks the
// source (including a ReplaySource's materialization workers and a
// LiveSource consumer parked waiting for input), skips the final flush
// — the events still active are not fabricated ends — and returns the
// partial result alongside ctx.Err(). The partial result carries every
// event closed before the cancellation and the Metrics counted so far.
//
// A ReplaySource — bare or wrapped in MapSource/FilterSource — also
// populates the result's window metadata, last-week propagation results
// and Figure 2 statistics, and defaults the flush time to the window
// end. A replay inside MergeSources contributes elements only.
//
// Run hands each MRTSource element back (see MRTSource) once the engine,
// which keeps none of it, is done with it.
func (d *Detector) Run(ctx context.Context, src Source, opts ...RunOption) (*RunResult, error) {
	if !d.running.CompareAndSwap(false, true) {
		return nil, ErrDetectorBusy
	}
	defer d.running.Store(false)

	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}

	res := &RunResult{}
	var inferCol *dictionary.Collector // a replay's own Figure 2 statistics
	rs := replayOf(src)
	if rs != nil {
		res.WindowStart, res.WindowEnd = rs.windowStart, rs.windowEnd
		if cfg.flushAt.IsZero() {
			cfg.flushAt = rs.windowEnd
		}
		// Background churn once per window so the Figure 2 statistics see
		// ordinary TE communities alongside blackhole communities.
		inferCol = dictionary.NewCollector(d.dict)
		for _, o := range rs.p.Deploy.OrdinaryUpdates(rs.windowStart, 5000) {
			inferCol.Observe(o.Update)
		}
	}

	runDone := make(chan struct{})
	defer close(runDone)
	if ra, ok := src.(runAware); ok {
		ra.attach(ctx, runDone)
	}
	defer d.closeSubs()

	rel, _ := src.(releaser)
	var runErr error
	done := ctx.Done()
	for n := 0; ; n++ {
		if done != nil && n&127 == 0 {
			select {
			case <-done:
				runErr = ctx.Err()
			default:
			}
			if runErr != nil {
				break
			}
		}
		el, err := src.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			// A source unblocked by cancellation reports its own sentinel;
			// surface the context's error for uniformity.
			if ctxErr := ctx.Err(); ctxErr != nil {
				runErr = ctxErr
			} else {
				runErr = fmt.Errorf("source: %w", err)
			}
			break
		}
		d.engine.Process(el)
		if inferCol != nil {
			inferCol.Observe(el.Update)
		}
		if rel != nil {
			rel.release(el)
		}
	}

	if runErr == nil && !cfg.noFlush {
		flushAt := cfg.flushAt
		if flushAt.IsZero() {
			flushAt = time.Now().UTC()
		}
		d.engine.Flush(flushAt)
	}
	if rs != nil {
		rs.Close()
		res.LastDayResults, res.LastDayIntents = rs.takeResults()
		res.InferStats = inferCol.Infer()
	}
	res.Events = d.engine.Events()
	res.Metrics = d.engine.Metrics()
	return res, runErr
}

// ---------------------------------------------------------------------
// Incremental event delivery.

// eventQueue decouples the engine's single processing goroutine from
// one consumer: fanout only pushes (never blocking inference) and the
// consumer pops at its own pace. Subscribe / Stream queues carry the
// detector's bound — unbounded by default, or capped by
// WithSubscriberQueueBound, in which case the slow-consumer policy
// applies once a consumer falls a full bound behind; sink queues are
// never bounded.
type eventQueue = stream.Queue[*Event]

// fanout is the engine's OnEventClose hook: it hands the closed event
// to every live subscriber without blocking the inference hot path —
// a full bounded queue drops or evicts per policy instead of waiting.
func (d *Detector) fanout(ev *Event) {
	d.mu.Lock()
	subs := d.subs
	d.mu.Unlock()
	for _, q := range subs {
		if d.slowPolicy == Evict {
			if !q.TryPush(ev) {
				q.Abort()
				d.subEvicts.Add(1)
				d.unsubscribe(q)
			}
		} else if q.Push(ev) {
			d.subDrops.Add(1)
		}
	}
}

// closeSubs ends every subscription: pending events still drain, then
// the consumers see the end. Called when Run returns.
func (d *Detector) closeSubs() {
	d.mu.Lock()
	subs := d.subs
	d.subs = nil
	d.mu.Unlock()
	for _, q := range subs {
		q.Close()
	}
}

// subscribe registers a queue bounded at bound events; sinks pass 0 —
// they are the durability path, where dropping would lose events.
func (d *Detector) subscribe(bound int) *eventQueue {
	q := stream.NewQueue[*Event](bound)
	d.mu.Lock()
	d.subs = append(d.subs, q)
	d.mu.Unlock()
	return q
}

// SubscriberStats snapshots one live subscription's queue health.
type SubscriberStats struct {
	// Queued is the current queue length (always ≤ Bound when bounded).
	Queued int
	// Bound is the configured queue cap; 0 means unbounded.
	Bound int
	// Dropped counts events this subscription lost to DropOldest.
	Dropped uint64
}

// SubscriberStats reports the queue health of every live subscription,
// in subscription order. Finished or evicted subscriptions drop out.
// Safe to call concurrently with a running Run.
func (d *Detector) SubscriberStats() []SubscriberStats {
	d.mu.Lock()
	subs := d.subs
	d.mu.Unlock()
	out := make([]SubscriberStats, 0, len(subs))
	for _, q := range subs {
		out = append(out, SubscriberStats{Queued: q.Len(), Bound: q.Limit(), Dropped: q.Dropped()})
	}
	return out
}

// unsubscribe removes a canceled subscriber so fanout stops visiting it.
func (d *Detector) unsubscribe(q *eventQueue) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if i := slices.Index(d.subs, q); i >= 0 {
		d.subs = slices.Delete(slices.Clone(d.subs), i, i+1)
	}
}

// Subscribe returns a channel delivering each event as it closes during
// the current (or next) Run — from withdrawals, implicit withdrawals
// and the final flush alike. Subscribe before starting Run to observe
// every event; events closed earlier in an already-running Run are not
// replayed. The channel closes when the Run returns, after every
// pending event has been delivered; drain it until then. The queue
// behind the channel never blocks or reorders inference: unbounded by
// default, or capped by WithSubscriberQueueBound, in which case a slow
// consumer loses the oldest events (DropOldest) or the channel closes
// early (Evict). An unbounded subscription abandoned without draining
// pins its queued events and delivery goroutine until the process
// exits. A consumer that may stop early should use Stream instead,
// whose loop exit cancels the subscription.
func (d *Detector) Subscribe() <-chan *Event {
	// 16 slots: enough that a consumer keeping pace rarely parks the
	// relay, small enough that a stalled one holds bound + 17 events.
	ch := make(chan *Event, 16)
	go d.subscribe(d.queueBound).Pump(ch)
	return ch
}

// SinkToStore attaches st as a persistence sink for the current (or
// next) Run: every event is appended to the store in closing order the
// moment it closes, through an unbounded queue of the kind behind
// Subscribe — a slow disk never blocks or reorders inference. The
// returned wait function blocks until the Run has returned, every
// closed event has been appended, and the store has been synced; it
// returns the first append or sync error. Call it after Run:
//
//	wait := det.SinkToStore(st)
//	res, err := det.Run(ctx, src)
//	if err := wait(); err != nil { ... }
func (d *Detector) SinkToStore(st *Store) (wait func() error) {
	errs := d.sink(nil, []*Store{st})
	return func() error { return (<-errs)[0] }
}

// SinkToShards is SinkToStore over a sharded fleet: each closed event
// is routed by the plan to exactly one of the stores, so the stores
// partition the run's events and a FederatedStore over them answers
// queries byte-identically to one store holding everything (events
// keep their engine-stamped Seq, the global merge order, wherever they
// land). len(stores) must equal plan.Shards().
//
// Before anything is routed, each store is stamped with its shard
// identity — the plan's spec and the store's index, "prefix:8:3 1" —
// durably, in its directory. The identity travels with the store: every
// later open (read-only and replicas included) advertises it in Stats, a
// FederatedStore over the fleet learns the plan from there and sends a
// prefix query only to the shard that can hold its answer, and the store
// itself refuses, now and after any reopen, an event the plan files
// elsewhere. So stores[i] must be new, already shard i of this plan, or
// hold only events the plan files on shard i; anything else, and a
// provided plan ParseShardPlan would refuse, fails the returned wait
// before the run starts. A caller's own ShardPlan type routes events as
// ever and stamps nothing: its fleet is queried everywhere.
//
// The returned wait function blocks until the Run has returned, every
// event has been appended to its shard, and every store has been synced;
// it joins the per-shard errors. A failing shard never blocks the
// others: its remaining events are still routed (and dropped with the
// error latched), the healthy shards keep appending. An event the plan
// files outside [0, N) is dropped the same way, and the first one is
// named in the joined error.
func (d *Detector) SinkToShards(plan ShardPlan, stores []*Store) (wait func() error) {
	fail := func(err error) func() error { return func() error { return err } }
	if len(stores) != plan.Shards() {
		return fail(fmt.Errorf("SinkToShards: plan %v wants %d stores, got %d", plan, plan.Shards(), len(stores)))
	}
	stamp, err := stampable(plan)
	if err != nil {
		return fail(fmt.Errorf("SinkToShards: plan %v: %w", plan, err))
	}
	for i := 0; stamp && i < len(stores); i++ {
		if err := stores[i].stamp(plan, i); err != nil {
			return fail(fmt.Errorf("SinkToShards: store %d: %w", i, err))
		}
	}
	errs := d.sink(plan, stores)
	return func() error { return errors.Join(<-errs...) }
}

// sink is what both store sinks drain into: it appends each event to
// the store plan files it on (stores[0] under a nil plan), syncs every
// store once the run has ended, and delivers each store's first error,
// then the first event plan filed out of range. A store that has failed
// drops its remaining events, as does every misfiled one.
func (d *Detector) sink(plan ShardPlan, stores []*Store) <-chan []error {
	n := len(stores)
	errs := make([]error, n+1) // errs[n]: the first misfiled event
	done := make(chan []error, 1)
	d.drain(func(ev *Event) {
		i := 0
		if plan != nil {
			i = plan.Shard(ev)
		}
		switch {
		case i < 0 || i >= n:
			if errs[n] == nil {
				errs[n] = fmt.Errorf("SinkToShards: plan %v filed %s on shard %d, outside [0, %d): dropped", plan, ev.Prefix, i, n)
			}
		case errs[i] == nil:
			errs[i] = stores[i].Append(ev)
		}
	}, func() {
		for i, st := range stores {
			if errs[i] == nil {
				errs[i] = st.Sync()
			}
		}
		done <- errs
	})
	return done
}

// drain is the one drain loop behind the detector's sinks: a goroutine
// pops the run's events off an unbounded queue and hands each to step,
// in closing order, then runs end once the run has returned and the
// queue is empty.
func (d *Detector) drain(step func(*Event), end func()) {
	q := d.subscribe(0)
	go func() {
		for {
			ev, err := q.Pop()
			if err != nil {
				break
			}
			step(ev)
		}
		end()
	}()
}

// Stream returns the subscription as an iterator: ranging over it
// yields each event as it closes, ending when the current (or next)
// Run returns. Breaking out of the range cancels the subscription.
// The subscription registers when Stream is called, so call it before
// starting Run to observe every event:
//
//	events := det.Stream()
//	go det.Run(ctx, src)
//	for ev := range events {
//		fmt.Println(ev.Prefix, ev.Duration())
//	}
func (d *Detector) Stream() iter.Seq[*Event] {
	q := d.subscribe(d.queueBound)
	return func(yield func(*Event) bool) {
		defer func() {
			d.unsubscribe(q)
			q.Abort()
		}()
		for {
			ev, err := q.Pop()
			if err != nil || !yield(ev) {
				return
			}
		}
	}
}
