package bgpblackholing

import (
	"context"
	"errors"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/mrt"
	"bgpblackholing/internal/stream"
	"bgpblackholing/internal/workload"
)

// Source produces timestamped BGP observations, ending with io.EOF. It
// is the single feed abstraction the Detector consumes: the batch
// longitudinal replay (ReplaySource), a near-real-time feed of TCP BGP
// sessions (LiveSource) and RFC 6396 MRT archives (MRTSource) all
// implement it, and callers can supply their own implementations — any
// type with a Next() (*Elem, error) method qualifies. Elements are the
// consumer's to keep, except an MRTSource's that Detector.Run hands back
// (see MRTSource).
type Source interface {
	// Next returns the next element, or nil, io.EOF at end of feed.
	Next() (*Elem, error)
}

// runAware is implemented by the built-in sources that need run-scoped
// cancellation wiring: Detector.Run calls attach before consuming, with
// the run's context and a channel closed when Run returns.
type runAware interface {
	attach(ctx context.Context, runDone <-chan struct{})
}

// releaser is a built-in pull source that takes back an element its
// Next returned once Detector.Run is done with it (see MRTSource).
type releaser interface {
	release(*Elem)
}

// unwrappable lets Run discover a ReplaySource behind the package's
// element-level combinators (MapSource, FilterSource), so the replay's
// window metadata, flush default and retained last-week results survive
// wrapping. MergeSources does not unwrap: a merged feed has no single
// replay window.
type unwrappable interface {
	unwrap() Source
}

// replayOf walks combinator wrappers down to a ReplaySource, or nil.
func replayOf(src Source) *ReplaySource {
	for {
		if rs, ok := src.(*ReplaySource); ok {
			return rs
		}
		u, ok := src.(unwrappable)
		if !ok {
			return nil
		}
		src = u.unwrap()
	}
}

// ErrSourceClosed is returned by a source whose Close was called while
// a consumer was still reading.
var ErrSourceClosed = errors.New("bgpblackholing: source closed")

// ---------------------------------------------------------------------
// ReplaySource — the batch longitudinal replay (§6).

// dayBatch is one day's materialized replay input: the time-sorted
// observation stream plus the propagation results retained for
// data-plane experiments.
type dayBatch struct {
	elems   []*stream.Elem
	results []*collector.Result
	intents []workload.Intent
}

// ReplaySource materializes a window of the pipeline's longitudinal
// scenario as a Source: each day's intents are generated and propagated
// to the collectors, and the per-day observation batches are merged into
// one feed in time order, equal times in replay order (day, then place
// in the day's batch). Materialization and propagation — the dominant
// cost — are day-sharded across Options.Workers goroutines feeding the
// consumer through a ticket-bounded pipeline, so elements stream out
// identically for every worker count at a given Seed.
//
// A ReplaySource is single-consumer and single-use. Close releases the
// worker goroutines early; it is called automatically when the source
// is drained or its attached run is canceled.
type ReplaySource struct {
	p              *Pipeline
	fromDay, toDay int
	windowStart    time.Time
	windowEnd      time.Time
	stop           chan struct{}
	stopOnce       sync.Once
	wg             sync.WaitGroup
	days           []chan dayBatch // one per day, sent once by its worker
	tickets        chan struct{}
	cur            []*stream.Elem
	pos            int
	day            int
	next           []*stream.Elem // held for a later day: at or after the next day's start
	results        []*collector.Result
	intents        []workload.Intent
}

// Replay returns a ReplaySource over days [fromDay, toDay) of the
// pipeline's scenario, ready to be passed to Detector.Run.
func (p *Pipeline) Replay(fromDay, toDay int) *ReplaySource {
	return &ReplaySource{
		p:           p,
		fromDay:     fromDay,
		toDay:       toDay,
		windowStart: workload.TimelineStart.Add(time.Duration(fromDay) * 24 * time.Hour),
		windowEnd:   workload.TimelineStart.Add(time.Duration(toDay) * 24 * time.Hour),
		stop:        make(chan struct{}),
	}
}

// attach shuts the source down when the run is canceled or returns.
func (r *ReplaySource) attach(ctx context.Context, runDone <-chan struct{}) {
	go func() {
		select {
		case <-ctx.Done():
		case <-runDone:
		}
		r.halt()
	}()
}

// halt releases the worker goroutines without waiting for them.
func (r *ReplaySource) halt() {
	r.stopOnce.Do(func() { close(r.stop) })
}

// Close releases the worker goroutines and waits for them to exit. It
// is safe to call multiple times and after the source is drained.
func (r *ReplaySource) Close() error {
	r.halt()
	r.wg.Wait()
	return nil
}

// start launches the day-sharded materialization pipeline: workers
// claim days through an atomic cursor — but only after acquiring an
// in-flight ticket, which caps the number of unconsumed batches held in
// memory and guarantees the merge cursor's day is always being worked
// on.
func (r *ReplaySource) start() {
	nDays := max(r.toDay-r.fromDay, 0)
	r.days = make([]chan dayBatch, nDays)
	workers := r.p.Opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, nDays)
	for i := range r.days {
		r.days[i] = make(chan dayBatch, 1)
	}
	inFlight := min(2*workers, nDays)
	r.tickets = make(chan struct{}, inFlight)
	for i := 0; i < inFlight; i++ {
		r.tickets <- struct{}{}
	}
	fill := func(i int) dayBatch {
		day := r.fromDay + i
		intents := r.p.Scenario.IntentsForDay(day)
		obs, results := workload.Materialize(r.p.Deploy, r.p.Topo, intents, r.p.Opts.Seed)
		b := dayBatch{elems: stream.SortedElems(obs)}
		if day >= r.toDay-7 {
			// Only the window's last week is retained for the data-plane
			// experiments; earlier days carry nil slices.
			b.results, b.intents = results, intents
		}
		return b
	}
	var cursor atomic.Int64
	for w := 0; w < workers; w++ {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			for {
				select {
				case <-r.tickets:
				case <-r.stop:
					return
				}
				i := int(cursor.Add(1)) - 1
				if i >= nDays {
					return
				}
				r.days[i] <- fill(i)
			}
		}()
	}
}

// Next returns the window's observations one element at a time, in the
// same global order for every worker count. Every intent starts inside
// its own day, so no batch holds an element before its day's start, but
// its later withdrawals and re-announcements may lie past the next
// day's start. Next copies that tail of each batch once into storage of
// its own, so it does not pin the day's batch, and holds it: each day,
// the held elements merge into the day's batch, and those before the
// next day's start go out with it.
func (r *ReplaySource) Next() (*Elem, error) {
	if r.days == nil {
		r.start()
	}
	for r.pos >= len(r.cur) {
		if r.day >= len(r.days) {
			r.halt()
			return nil, io.EOF
		}
		var b dayBatch
		select {
		case b = <-r.days[r.day]:
		case <-r.stop:
			return nil, ErrSourceClosed
		}
		r.results = append(r.results, b.results...)
		r.intents = append(r.intents, b.intents...)
		r.day++
		r.tickets <- struct{}{}
		cut, due := len(b.elems), len(r.next)
		if r.day < len(r.days) {
			dayEnd := r.windowStart.Add(time.Duration(r.day) * 24 * time.Hour)
			before := func(es []*stream.Elem) int {
				return sort.Search(len(es), func(i int) bool { return !es[i].Update.Time.Before(dayEnd) })
			}
			cut, due = before(b.elems), before(r.next)
		}
		own := make([]stream.Elem, len(b.elems)-cut)
		for i := range own {
			own[i] = *b.elems[cut+i]
			b.elems[cut+i] = &own[i]
		}
		all := mergeByTime(r.next, b.elems)
		r.cur, r.next, r.pos = all[:cut+due], all[cut+due:], 0
	}
	el := r.cur[r.pos]
	r.pos++
	return el, nil
}

// mergeByTime merges two time-sorted slices, a's elements first on equal
// times.
func mergeByTime(a, b []*stream.Elem) []*stream.Elem {
	out := make([]*stream.Elem, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if b[0].Update.Time.Before(a[0].Update.Time) {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	return append(append(out, a...), b...)
}

// takeResults hands the retained last-week propagation results and
// intents to the run result.
func (r *ReplaySource) takeResults() ([]*collector.Result, []workload.Intent) {
	res, in := r.results, r.intents
	r.results, r.intents = nil, nil
	return res, in
}

// ---------------------------------------------------------------------
// LiveSource — near-real-time feeds (§10).

// LiveSource is a channel-backed Source for near-real-time consumption,
// the BGPStream "live mode" the paper's §10 measurement campaign runs
// on: producers push elements as collectors observe them — by hand via
// Publish, or from real TCP BGP sessions via ServeBGP — and the
// Detector drains them as they arrive. Close ends the feed gracefully:
// the consumer sees every pending element, then io.EOF.
type LiveSource struct {
	live *stream.Live
}

// NewLiveSource returns an open live source.
func NewLiveSource() *LiveSource {
	return &LiveSource{live: stream.NewLive()}
}

// Publish appends one element. Publishing to a closed source is a
// no-op (late producers during shutdown are tolerated).
func (l *LiveSource) Publish(e *Elem) { l.live.Publish(e) }

// PublishUpdate wraps a raw update in its collection context and
// publishes it.
func (l *LiveSource) PublishUpdate(u *Update, collectorName string, platform Platform) {
	l.live.Publish(&stream.Elem{Collector: collectorName, Platform: platform, Update: u})
}

// Close ends the feed; pending elements still drain, then the consumer
// receives io.EOF.
func (l *LiveSource) Close() { l.live.Close() }

// Pending reports the buffered element count (monitoring hook).
func (l *LiveSource) Pending() int { return l.live.Pending() }

// SetBufferLimit bounds the publish buffer at n elements; once a
// consumer falls that far behind, the oldest buffered element is
// discarded per publish (count them with Dropped). 0 — the default —
// keeps the buffer unbounded.
func (l *LiveSource) SetBufferLimit(n int) { l.live.SetLimit(n) }

// Dropped counts elements discarded by the buffer limit.
func (l *LiveSource) Dropped() uint64 { return l.live.Dropped() }

// Next blocks until an element is available or the source is closed and
// drained.
func (l *LiveSource) Next() (*Elem, error) { return l.live.Next() }

func (l *LiveSource) attach(ctx context.Context, runDone <-chan struct{}) {
	attachLive(ctx, runDone, l.live)
}

// attachLive is the run-attach of every queue-backed source: it
// unblocks a consumer parked in Next when the run's context is
// canceled; Detector.Run translates the resulting ErrInterrupted into
// the context's error. A stale interrupt left behind by a previously
// canceled run is cleared first, so the new run resumes the feed.
func attachLive(ctx context.Context, runDone <-chan struct{}, live *stream.Live) {
	live.ClearInterrupt()
	done := ctx.Done()
	if done == nil {
		return
	}
	go func() {
		select {
		case <-done:
			live.Interrupt()
		case <-runDone:
		}
	}()
}

// ---------------------------------------------------------------------
// MRTSource — RFC 6396 archives.

// MRTSource replays one MRT archive as a Source: BGP4MP records yield
// their inner update, RIB records are expanded into one announcement
// per entry (stamped with the record time). Combine several archives
// with MergeSources. Close releases the underlying file when the
// source was opened with OpenMRTSource. Detector.Run hands each element
// back, to decode a later record into, when it reads the source bare or
// as a direct child of MergeSources, maybe behind MapSource or
// FilterSource; so a type embedding *MRTSource must return only elements
// with storage of their own. Other readers may keep the elements.
type MRTSource struct {
	s stream.Stream
	c io.Closer
}

// NewMRTSource replays an MRT archive from r, labeling every element
// with the given collector name and platform.
func NewMRTSource(r io.Reader, collectorName string, platform Platform) *MRTSource {
	return &MRTSource{s: stream.FromMRT(mrt.NewReader(r), collectorName, platform)}
}

// OpenMRTSource opens an MRT archive file; Close releases it.
func OpenMRTSource(path, collectorName string, platform Platform) (*MRTSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &MRTSource{s: stream.FromMRT(mrt.NewReader(f), collectorName, platform), c: f}, nil
}

// Next returns the archive's next update.
func (m *MRTSource) Next() (*Elem, error) { return m.s.Next() }

func (m *MRTSource) release(e *Elem) { m.s.(interface{ Release(*Elem) }).Release(e) }

// Close releases the underlying file, if any.
func (m *MRTSource) Close() error {
	if m.c == nil {
		return nil
	}
	return m.c.Close()
}

// ---------------------------------------------------------------------
// Source combinators.

// MergeSources k-way merges time-ordered sources into one Source,
// lowest-numbered first on equal timestamps — exactly how the paper's
// pipeline merges per-collector archives into a single BGPStream feed.
// Cancellation wiring passes through to every child source, a
// handed-back element to the MRTSource child it came from (a combinator
// child keeps its own).
func MergeSources(srcs ...Source) Source {
	ss := make([]stream.Stream, len(srcs))
	for i, s := range srcs {
		ss[i] = s
		if ms, ok := s.(*MRTSource); ok {
			ss[i] = ms.s
		}
	}
	return &mergedSource{s: stream.Merge(ss...), srcs: srcs}
}

type mergedSource struct {
	s    stream.Stream
	srcs []Source
}

func (m *mergedSource) Next() (*Elem, error) { return m.s.Next() }

func (m *mergedSource) release(e *Elem) { m.s.(interface{ Release(*Elem) }).Release(e) }

func (m *mergedSource) attach(ctx context.Context, runDone <-chan struct{}) {
	for _, s := range m.srcs {
		if ra, ok := s.(runAware); ok {
			ra.attach(ctx, runDone)
		}
	}
}

// FilterSource keeps only the elements matching pred, which must not
// keep one (see MapSource). Cancellation wiring and handed-back elements
// pass through to the underlying source.
func FilterSource(src Source, pred func(*Elem) bool) Source {
	return MapSource(src, func(e *Elem) *Elem {
		if pred(e) {
			return e
		}
		return nil
	})
}

// MapSource rewrites each element with f before delivery. Returning nil
// drops the element. Cancellation wiring passes through to the
// underlying source, and so does a handed-back element (see MRTSource)
// that f returned as given, to be decoded into again: f must not keep
// it or put shared storage (a template Path, say) into it.
func MapSource(src Source, f func(*Elem) *Elem) Source {
	return &mapSource{src: src, f: f}
}

type mapSource struct {
	src Source
	f   func(*Elem) *Elem
	in  *Elem // what src last gave Next
}

func (m *mapSource) Next() (*Elem, error) {
	for {
		e, err := m.src.Next()
		if err != nil {
			return nil, err
		}
		if out := m.f(e); out != nil {
			m.in = e
			return out, nil
		}
	}
}

func (m *mapSource) release(e *Elem) {
	if r, ok := m.src.(releaser); ok && e == m.in {
		m.in = nil
		r.release(e)
	}
}

func (m *mapSource) attach(ctx context.Context, runDone <-chan struct{}) {
	if ra, ok := m.src.(runAware); ok {
		ra.attach(ctx, runDone)
	}
}

func (m *mapSource) unwrap() Source { return m.src }
