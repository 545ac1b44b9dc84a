package bgpblackholing

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"time"

	"bgpblackholing/internal/analysis"
)

// This file defines Backend — the record-level query abstraction the
// HTTP layer serves and the federation layer composes. A Backend
// answers the longitudinal query surface (events, legitimacy,
// Figure 4, stats, health) over *wire records* rather than in-memory
// events, which is what makes the three implementations
// interchangeable:
//
//	StoreBackend    the local store (this file)
//	RemoteBackend   a bhserve/bhroute peer over HTTP (remote.go)
//	FederatedStore  N backends merged in global event order (federate.go)
//
// Events are read one way, RecordLines, and the query decides how: with a
// limit it is a counted read, whose stream knows its total and scanned
// counts when it opens; without, an uncounted, lazy one. Each type's
// Records drains a counted read into a RecordSet for the benchmark
// harness, which calls it.
//
// One HTTP handler (newHandler, http.go) serves whichever Backend it is
// given, each route as its row of routes says.

// Figure4Sets is the mergeable wire form of the Figure 4 daily series:
// per-day distinct-entity sets instead of counts — each entity named
// once, with its active days as spans — so a router can union shards
// before counting (analysis.Figure4Union).
type Figure4Sets = analysis.Figure4Sets

// RecordKey is the canonical global ordering of event records across
// shards: the engine's closing sequence number first, then
// (End, Start, Prefix) as tie-breaks for legacy (seq-less) records.
//
// Seq — not End — is the primary key on purpose. The engine stamps
// Seq monotonically as events close, so Seq order IS the single
// store's append order; End order is not, because implicit
// withdrawals backdate End to the last sighting, closing a
// long-stale event after (but ending before) its neighbors. Merging
// shard streams on Seq therefore reproduces the exact single-store
// stream for any seq-stamped lineage.
//
// The key decides between shards, never within one: a shard's own order
// is trusted in both response shapes, because a stream that cannot be
// buffered has no other rule to follow. A store appended to across a
// detector restart (Seq starts over at 1) or holding seq-less records
// (Seq 0) is therefore served in its append order, by the shard and by
// a router in front of it alike — a federation over one shard is the
// identity — while several such shards interleave deterministically on
// their heads, only approximating the original close order.
type RecordKey struct {
	End    int64 // End UnixNano
	Seq    uint64
	Start  int64 // Start UnixNano
	Prefix string
}

// Less orders keys lexicographically over (Seq, End, Start, Prefix).
func (k RecordKey) Less(o RecordKey) bool {
	if k.Seq != o.Seq {
		return k.Seq < o.Seq
	}
	if k.End != o.End {
		return k.End < o.End
	}
	if k.Start != o.Start {
		return k.Start < o.Start
	}
	return k.Prefix < o.Prefix
}

// RecordSet is a counted read held whole: what the Records methods
// collect from RecordLines.
type RecordSet struct {
	// Records are the matches in global event order (empty, never nil,
	// when nothing matches), each the encoded record — annotated when
	// the query asked for enrichment — plus its merge key.
	Records []RecordLine
	// Total counts all matches ignoring Limit; Scanned counts candidate
	// events examined. Across a federation both are sums over shards.
	Total   int
	Scanned int
	// ShardsFailed counts backends that could not answer, at any depth of
	// nested routers (federated queries only; the records are the
	// surviving shards' merge).
	ShardsFailed int
}

// RecordLine is one encoded record plus its merge key: the only form a
// record takes above the store. Line holds the exact serialized bytes
// (no trailing newline) — an NDJSON line, and compact, an element of the
// JSON envelope's "events". The federation layer passes shard bytes
// through verbatim, so a federated response is byte-identical to a
// single store's.
//
// A RecordStream's lines are borrowed: Line points into the stream's own
// buffer and is valid only until that stream's next Next or Close. Write
// it out (the HTTP handler and bhquery do) or copy it before advancing
// (a RecordSet's lines are copies). Key is owned and may be kept either
// way.
type RecordLine struct {
	Key  RecordKey
	Line []byte
}

// RecordStream is an open, incremental record stream: a Backend's one
// event read. Its head — ShardsFailed, and a counted read's counts — is
// known at open time, so an HTTP handler can set response headers before
// the first body byte.
type RecordStream struct {
	// ShardsFailed counts backends that failed to open or prime their
	// stream. A shard that dies mid-stream after delivering records
	// cannot be reflected here; it ends that shard's contribution.
	ShardsFailed int

	total, scanned int    // a counted read's head (Counts)
	shard          string // the identity of the one store that answered, "" for an unstamped one or a federation
	next           func() (RecordLine, error)
	close          func()
}

// Counts returns a counted read's head: the matches ignoring the limit
// and the candidates examined, summed over a federation's shards. An
// uncounted read, a query without a limit, reports 0, 0.
func (s *RecordStream) Counts() (total, scanned int) { return s.total, s.scanned }

// Next returns the next record line, or io.EOF at the end. It
// invalidates the Line of every RecordLine the stream returned before:
// each stream encodes into, or reads through, one reused buffer.
func (s *RecordStream) Next() (RecordLine, error) { return s.next() }

// Close releases the stream's resources. Safe to call more than once.
func (s *RecordStream) Close() {
	if s.close != nil {
		s.close()
		s.close = nil
	}
}

// maxRemoteLimit is the limit collectRecords asks with for a q without
// one: a set is a counted read, and those have a limit.
const maxRemoteLimit = 1 << 30

// collectRecords is every backend's Records: be's counted read of q
// drained into a set.
func collectRecords(ctx context.Context, be Backend, q Query) (*RecordSet, error) {
	if q.Limit <= 0 {
		q.Limit = maxRemoteLimit
	}
	s, err := be.RecordLines(ctx, q)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	rs := &RecordSet{Records: []RecordLine{}, Total: s.total, Scanned: s.scanned, ShardsFailed: s.ShardsFailed}
	for rl, err := s.Next(); err != io.EOF; rl, err = s.Next() {
		if err != nil {
			return nil, err
		}
		rs.Records = append(rs.Records, RecordLine{Key: rl.Key, Line: bytes.Clone(rl.Line)})
	}
	return rs, nil
}

// Figure4Result is a Backend's Figure 4 answer plus partial-result
// accounting (meaningful only for federated backends).
type Figure4Result struct {
	Series       []DailyPoint
	ShardsFailed int
}

// LegitimacySummary is the /legitimacy aggregation in wire form.
type LegitimacySummary struct {
	Total        int            `json:"total"`
	Legitimacy   map[string]int `json:"legitimacy"`
	RPKI         map[string]int `json:"rpki"`
	CommunityDoc map[string]int `json:"community_doc"`
	Reasons      map[string]int `json:"reasons"`
	ElapsedUS    int64          `json:"elapsed_us"`
	// ShardsFailed counts backends missing from the aggregation
	// (federated queries only; omitted when zero so single-store
	// responses keep their historical shape).
	ShardsFailed int `json:"shards_failed,omitempty"`
}

func newLegitimacySummary() *LegitimacySummary {
	return &LegitimacySummary{
		Legitimacy:   map[string]int{},
		RPKI:         map[string]int{},
		CommunityDoc: map[string]int{},
		Reasons:      map[string]int{},
	}
}

// ShardStat is one shard's row in a federated /stats answer.
type ShardStat struct {
	Name string `json:"name"`
	// URL is the shard's primary endpoint (remote shards only).
	URL    string `json:"url,omitempty"`
	Status string `json:"status"`
	Events int    `json:"events"`
	Err    string `json:"error,omitempty"`
	// Identity is the shard identity the shard advertises ("<plan spec>
	// <index>", see Detector.SinkToShards); absent for an unstamped store
	// or a nested router.
	Identity string `json:"identity,omitempty"`
	// Requests / Failures / Hedges / Skipped are the router's lifetime
	// counters for this shard; Skipped counts the queries the learned
	// plan placed on another shard, so never sent here.
	Requests uint64 `json:"requests"`
	Failures uint64 `json:"failures"`
	Hedges   uint64 `json:"hedges"`
	Skipped  uint64 `json:"skipped"`
}

// ShardsInfoVersion is the wire version of the "shards" block in
// /stats and /healthz responses. Decoders written before federation
// ignore the block entirely (it is additive); decoders that consume it
// must check Version and reject values they do not understand, so the
// block's layout can evolve without silently corrupting dashboards.
const ShardsInfoVersion = 1

// ShardsInfo is the version-tagged federation section of /stats.
type ShardsInfo struct {
	Version int `json:"version"`
	// Failed counts the shards down, at any depth of nested routers.
	Failed int         `json:"failed"`
	Shards []ShardStat `json:"shards"`
}

// BackendStats is a Backend's /stats answer: the (possibly aggregated)
// store shape, plus the per-shard breakdown for federations. The
// embedded StoreStats keeps pre-federation /stats decoders working
// unchanged.
type BackendStats struct {
	StoreStats
	Shards *ShardsInfo `json:"shards,omitempty"`
}

// ShardHealth is one backend's health answer.
type ShardHealth struct {
	Name   string            `json:"name,omitempty"`
	Status string            `json:"status"` // "ok", "degraded", "down"
	Events int               `json:"events"`
	Checks map[string]string `json:"checks,omitempty"`
	Err    string            `json:"error,omitempty"`
}

// Backend answers the longitudinal query surface over wire records.
// All methods are safe for concurrent use. Context cancellation aborts
// in-flight work; a cancelled call returns ctx.Err().
type Backend interface {
	// Name identifies the backend in stats, health and error messages.
	Name() string
	// RecordLines answers a query as an incremental NDJSON stream in
	// global event order, opened eagerly so failure accounting is known
	// before the first byte. A query with a limit is a counted read,
	// whose stream carries its total and scanned counts (Counts); one
	// without streams uncounted. The caller must Close the stream, and may
	// use each RecordLine.Line only until it asks for the next.
	RecordLines(ctx context.Context, q Query) (*RecordStream, error)
	// Figure4 computes the daily longitudinal series over [start,
	// start+days): a zero start is the first event's UTC day, and a zero
	// days runs to the last event's.
	Figure4(ctx context.Context, start time.Time, days int) (*Figure4Result, error)
	// Figure4Sets returns the mergeable per-day entity sets over the same
	// window, what a federation asks each shard for. Left to pick either,
	// a backend answers over the part of the window its events span.
	Figure4Sets(ctx context.Context, start time.Time, days int) (*Figure4Sets, error)
	// LegitimacySummary aggregates the legitimacy view over matches.
	LegitimacySummary(ctx context.Context, q Query) (*LegitimacySummary, error)
	// Stats snapshots the backend's store shape.
	Stats(ctx context.Context) (*BackendStats, error)
	// Healthz probes the backend; it never returns an error — an
	// unreachable backend reports Status "down".
	Healthz(ctx context.Context) *ShardHealth
	// Close releases the backend's resources.
	Close() error
}

// errNoAnnotator marks an enrichment or legitimacy request against a
// backend with no annotator; HTTP handlers map it to a 503.
var errNoAnnotator = errors.New("enrichment needs the pipeline's registry and dictionary; run the server with a world")

// ---------------------------------------------------------------------
// StoreBackend: the local store as a Backend.

// StoreBackend adapts a local Store (and optionally its Pipeline, for
// enrichment) to the Backend interface. It is what NewStoreHandler
// serves, and what a FederatedStore composes when shards live in the
// same process (tests, benchmarks, single-host splits).
type StoreBackend struct {
	name string
	st   *Store
	p    *Pipeline
}

// NewStoreBackend wraps a store. p may be nil; enrichment then falls
// back to the store's own annotator (Store.SetAnnotator), matching
// NewStoreHandler's behavior.
func NewStoreBackend(st *Store, p *Pipeline) *StoreBackend {
	return &StoreBackend{name: "local", st: st, p: p}
}

// WithName labels the backend (shard names in federated stats).
func (b *StoreBackend) WithName(name string) *StoreBackend {
	b.name = name
	return b
}

// Name implements Backend.
func (b *StoreBackend) Name() string { return b.name }

func (b *StoreBackend) annotator() *Annotator {
	if b.p != nil {
		return b.p.Annotator()
	}
	return b.st.Annotator()
}

// Records is RecordLines' counted read held whole (collectRecords).
func (b *StoreBackend) Records(ctx context.Context, q Query) (*RecordSet, error) {
	return collectRecords(ctx, b, q)
}

// RecordLines implements Backend over the store's read walk: a counted
// read takes Store.Query's matches and counts, an uncounted one pulls
// QuerySeq's, and each event is encoded into one reused buffer as it is
// asked for. A counted read's latency is observed when it closes.
func (b *StoreBackend) RecordLines(ctx context.Context, q Query) (*RecordStream, error) {
	began := time.Now()
	var ann *Annotator // nil unless q asks for enrichment
	if q.Enrich {
		if ann = b.annotator(); ann == nil {
			return nil, errNoAnnotator
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := &RecordStream{shard: b.st.s.Identity()}
	var pull func() (*Event, bool)
	if q.Limit > 0 {
		res := b.st.s.Query(q.filter())
		s.total, s.scanned = res.Total, res.Scanned
		pull = func() (ev *Event, ok bool) {
			if ok = len(res.Events) > 0; ok {
				ev, res.Events = res.Events[0], res.Events[1:]
			}
			return ev, ok
		}
		s.close = func() { b.st.observeQuery(q.Enrich, time.Since(began)) }
	} else {
		b.st.observeQuery(q.Enrich, streamed)
		pull, s.close = iter.Pull(b.st.s.QuerySeq(q.filter()))
	}
	done := ctx.Done()
	var buf []byte
	s.next = func() (RecordLine, error) {
		select {
		case <-done:
			return RecordLine{}, ctx.Err()
		default:
		}
		ev, ok := pull()
		if !ok {
			return RecordLine{}, io.EOF
		}
		var rl RecordLine
		var err error
		if buf, rl.Key, err = appendEventLine(buf[:0], ev, ann.Annotate(ev)); err != nil {
			return RecordLine{}, err
		}
		rl.Line = buf
		return rl, nil
	}
	return s, nil
}

// Figure4 implements Backend over the store's (possibly materialized)
// daily series.
func (b *StoreBackend) Figure4(ctx context.Context, start time.Time, days int) (*Figure4Result, error) {
	stats := b.st.Stats()
	start, days, err := figure4Window(start, days, stats.MinStart, stats.MaxEnd)
	series := []DailyPoint{}
	if err == nil && days > 0 {
		series, err = b.st.figure4(ctx, start, days)
	}
	if err != nil {
		return nil, err
	}
	return &Figure4Result{Series: series}, nil
}

// Figure4Sets implements Backend the way Store.Figure4 answers the
// counted series: from the store's per-day view when start is aligned
// to a UTC midnight (always, over HTTP — the handler truncates), else
// with a one-pass scan into a Figure4Union. Both produce the same sets.
func (b *StoreBackend) Figure4Sets(ctx context.Context, start time.Time, days int) (*Figure4Sets, error) {
	b.st.observeQuery(false, streamed)
	stats := b.st.Stats()
	start, days, err := setsWindow(start, days, stats.MinStart, stats.MaxEnd)
	if err != nil {
		return nil, err
	}
	if days == 0 {
		return &Figure4Sets{}, nil // no event: no window
	}
	if v, ok := b.st.s.DailySets(start, days); ok {
		sets := analysis.NewFigure4Sets(start, v.Providers, v.Prefixes, v.DayProviders, v.DayUsers, v.DayPrefixes)
		return &sets, nil
	}
	u := analysis.NewFigure4Union(start, days)
	if err := b.st.scan(ctx, Query{}, u.Observe); err != nil {
		return nil, err
	}
	sets := u.Sets()
	return &sets, nil
}

// maxFigure4Days caps a /figure4 window: a start far back would explode it.
const maxFigure4Days = 36600

// errFigure4Window is a window refused for its length or its end, a 400.
type errFigure4Window string

func (e errFigure4Window) Error() string { return string(e) }

// figure4Window resolves a /figure4 window over events from first to last
// (zero when none) — a zero start is the first event's UTC day, a zero days
// runs to the last event's, days 0 back is no window — and checks it.
func figure4Window(start time.Time, days int, first, last time.Time) (time.Time, int, error) {
	if start.IsZero() {
		start = first.UTC().Truncate(24 * time.Hour)
	}
	if days == 0 {
		days = int(last.Sub(start).Hours()/24) + 1
	}
	switch {
	case start.IsZero() || days <= 0:
		return time.Time{}, 0, nil
	case days > maxFigure4Days:
		return time.Time{}, 0, errFigure4Window(fmt.Sprintf("series of %d days exceeds the %d-day cap; pass an explicit start and days", days, maxFigure4Days))
	case start.AddDate(0, 0, days-1).Year() > 9999: // a day JSON's time spelling cannot name
		return time.Time{}, 0, errFigure4Window(fmt.Sprintf("a series of %d days from %s ends past 9999-12-31", days, start.Format(time.DateOnly)))
	}
	return start, days, nil
}

// setsWindow is a backend's sets window: a named one as figure4Window
// checks it, one left open cut, unchecked, to its days from the first
// event's to the last's. The router checks the window it puts together
// from the shards'; a shard refusing its part would count as one lost.
func setsWindow(start time.Time, days int, first, last time.Time) (time.Time, int, error) {
	if !start.IsZero() && days > 0 || first.IsZero() {
		return figure4Window(start, days, first, last)
	}
	// The window's day that holds the first event, or its first day: a zero start is a UTC midnight.
	lo := start.AddDate(0, 0, int(max(first.Unix()-start.Unix(), 0)/(24*60*60)))
	if n := int(last.Sub(lo)/(24*time.Hour)) + 1; n > 0 { // as figure4Window counts: a last the day before lo still gives lo
		return lo, min(n, cmp.Or(days, n)), nil
	}
	return time.Time{}, 0, nil
}

// LegitimacySummary implements Backend: a streaming aggregation through
// the annotator's Tally; no result set or annotation is materialized.
func (b *StoreBackend) LegitimacySummary(ctx context.Context, q Query) (*LegitimacySummary, error) {
	ann := b.annotator()
	if ann == nil {
		return nil, errNoAnnotator
	}
	began := time.Now()
	b.st.observeQuery(false, streamed)
	sum := newLegitimacySummary()
	var err error
	scan := func(observe func(*Event)) error { return b.st.scan(ctx, q, observe) }
	if sum.Total, err = ann.Tally(scan, sum.Legitimacy, sum.RPKI, sum.CommunityDoc, sum.Reasons); err != nil {
		return nil, err
	}
	sum.ElapsedUS = time.Since(began).Microseconds()
	return sum, nil
}

// Stats implements Backend.
func (b *StoreBackend) Stats(ctx context.Context) (*BackendStats, error) {
	return &BackendStats{StoreStats: b.st.Stats()}, nil
}

// Healthz implements Backend: readiness degrades when the write path is
// in a known-bad state — the active segment hit a write error and awaits
// failover, an async group-commit fsync failed and no caller has seen
// the error yet, or a cold segment could not be hydrated. (Redial sources belong to the serving
// process, not the store; the HTTP handler adds those.)
func (b *StoreBackend) Healthz(ctx context.Context) *ShardHealth {
	h := &ShardHealth{Name: b.name, Status: "ok", Events: b.st.Len()}
	sh := b.st.s.Health()
	checks := map[string]string{}
	if sh.WoundedSegment {
		checks["store_segment"] = "wounded active segment pending failover"
	}
	if sh.AsyncSyncError != "" {
		checks["store_fsync"] = "parked async fsync error: " + sh.AsyncSyncError
	}
	if sh.HydrationError != "" {
		checks["store_hydration"] = "cold segment hydration failed; queries may see partial data: " + sh.HydrationError
	}
	if len(checks) > 0 {
		h.Status, h.Checks = "degraded", checks
	}
	return h
}

// Close closes the underlying store.
func (b *StoreBackend) Close() error { return b.st.Close() }
