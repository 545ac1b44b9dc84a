package bgpblackholing

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/netip"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bgpblackholing/internal/analysis"
	"bgpblackholing/internal/stream"
)

// FederatedStore fans the Backend query surface out over N shard
// backends and merges the answers; which routes that serves, and how each
// federates, is the routes table (http.go). Events are per-shard streams
// k-way merged on RecordKey (the global closing order).
//
// Because each shard's stream is already ordered by RecordKey (Seq is
// the closing/append order) and the shards partition the events, the
// merged stream is byte-identical to what one store holding every
// event would serve. Per-shard Limit pushdown is sound for the same
// reason: each shard's stream is an order-subsequence of the global
// stream, so the global top-k is contained in the union of per-shard
// top-ks.
//
// A failed shard degrades the answer instead of failing it: the merge
// continues over the surviving shards and the failure is counted
// (RecordStream.ShardsFailed, the X-Shards-Failed response header, the
// stats shards block) — with the shards a nested router reports missing,
// so every merged answer counts losses at any depth. Only when every
// shard fails does a call error.
//
// Placement: stores written through Detector.SinkToShards remember which
// shard of which plan they are, and advertise it in their stats and with
// every events answer. Every Stats call reads the fleet's identities, and
// so does, while there is no plan, every events query all shards answer;
// once all shards advertise the same prefix plan, one index each, an
// events read asks only the shard a prefix query's matches can live on
// (PrefixShardPlan.owner is the rule). Nothing is configured: a fleet
// with an unstamped shard or a nested router, or a time plan, fans every
// query out everywhere, as before; identities that contradict each other
// do the same, and Placement and Healthz say so.
//
// FederatedStore itself implements Backend, so a federation can be
// served by NewRouterHandler, queried by bhquery, or even mounted as a
// shard of a larger federation.
type FederatedStore struct {
	backends []Backend
	counters []shardCounters
	all      []int // every shard index: the fan-out of a query no plan places
	// placed is what the last complete answer taught — who each shard is
	// and, from that, where queries go; nil before the first, and again
	// once a shard answers as another than it advertised.
	placed atomic.Pointer[placement]
}

// shardCounters are the router's lifetime per-shard counters, exposed
// via /stats and a router handler's /metrics. The fourth per-shard
// counter, hedges, is kept by the RemoteBackend that launches them.
type shardCounters struct {
	requests atomic.Uint64
	failures atomic.Uint64
	skipped  atomic.Uint64 // queries the plan placed on another shard
}

// hedges is the shard's lifetime hedged-attempt count: only a remote
// shard with replicas and a hedge delay ever launches one.
func hedges(b Backend) uint64 {
	if rb, ok := b.(*RemoteBackend); ok {
		return rb.hedges.Load()
	}
	return 0
}

// NewFederatedStore federates backends. The shard order is
// significant only for presentation (stats rows, health checks).
func NewFederatedStore(backends ...Backend) *FederatedStore {
	f := &FederatedStore{
		backends: backends,
		counters: make([]shardCounters, len(backends)),
		all:      make([]int, len(backends)),
	}
	for i := range f.all {
		f.all[i] = i
	}
	return f
}

// Name implements Backend.
func (f *FederatedStore) Name() string { return "federation" }

// Close closes every shard backend, joining errors.
func (f *FederatedStore) Close() error {
	var errs []error
	for _, b := range f.backends {
		if err := b.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// fanOut runs fn against the shards in ask concurrently, counting
// requests and failures. It returns the per-shard errors (nil for
// successes and for shards not asked) and how many asked shards failed;
// err is non-nil only when every one did — anything less is a partial
// answer, not an error.
func (f *FederatedStore) fanOut(ask []int, fn func(i int, b Backend) error) (errs []error, failed int, err error) {
	errs = make([]error, len(f.backends))
	call := func(i int, b Backend) {
		f.counters[i].requests.Add(1)
		if err := fn(i, b); err != nil {
			f.counters[i].failures.Add(1)
			errs[i] = err
		}
	}
	// Backends that answer from local memory in microseconds run
	// inline on the calling goroutine: a spawn + scheduler wakeup
	// costs more than the query itself. Remote backends (network
	// latency) fan out first, so they overlap the inline work. A lone
	// shard — a placed query — has nothing to overlap, and runs inline
	// whatever it is.
	inline := func(i int) bool { return len(ask) == 1 || inProcess(f.backends[i]) }
	var wg sync.WaitGroup
	for _, i := range ask {
		if !inline(i) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				call(i, f.backends[i])
			}()
		}
	}
	for _, i := range ask {
		if inline(i) {
			call(i, f.backends[i])
		}
	}
	wg.Wait()
	var first error
	for _, e := range errs {
		if e != nil {
			failed++
			if first == nil {
				first = e
			}
		}
	}
	if failed == len(ask) {
		err = fmt.Errorf("all %d shards failed: %w", failed, first)
	}
	return errs, failed, err
}

// inProcess reports whether a backend answers from this process's
// memory (no network hop), making concurrent fan-out a pessimization.
func inProcess(b Backend) bool {
	_, ok := b.(*StoreBackend)
	return ok
}

// gather opens q's reads on the shards q can live on — one stream per
// asked shard, nil for the rest — and counts the asked shards that
// failed. A query the learned plan places asks its owner alone. An LPM
// answer is final only if the owner matched a prefix at least as long as
// the split bit: a shorter covering prefix is filed under its own
// address bits and may be on any shard, so the rest are asked as well.
// Either way an LPM answer keeps only the longest match (keepLongest) —
// the longest match of the events, not of those another filter lets
// through: one store picks the prefix first and filters second, so an LPM
// query with another filter is two, the bare one that finds the prefix
// and the exact one that filters its events.
//
// Every opened answer is held to the identity its shard advertised: a
// query placed by that identity is answered wrongly by any other store —
// one swapped under a running router — so the answer is closed and counted
// as the shard's failure, and what was learned is dropped. By then every
// query asks every shard, which is right whatever each one holds. With
// nothing learned — not yet, or dropped — a fan-out that every shard
// answers is where the federation learns again: each answer carries its
// store's identity, as Stats does.
func (f *FederatedStore) gather(ctx context.Context, q Query) (streams []*RecordStream, failed int, err error) {
	lpm := q.Prefix.IsValid() && q.Mode == PrefixLPM
	if lpm && q != (Query{Prefix: q.Prefix, Mode: PrefixLPM, Limit: q.Limit, Enrich: q.Enrich}) {
		found, failed, err := f.gather(ctx, Query{Prefix: q.Prefix, Mode: PrefixLPM, Limit: 1})
		if err != nil {
			return nil, failed, err
		}
		var longest netip.Prefix
		for _, s := range found {
			if s != nil {
				if rl, err := s.Next(); err == nil {
					longest, _ = netip.ParsePrefix(rl.Key.Prefix)
				}
				s.Close()
			}
		}
		if !longest.IsValid() {
			return make([]*RecordStream, len(f.backends)), failed, nil // no prefix covers q's: no event matches
		}
		q.Prefix, q.Mode = longest, PrefixExact
		streams, again, err := f.gather(ctx, q)
		return streams, max(failed, again), err
	}

	streams = make([]*RecordStream, len(f.backends))
	owner, pl := -1, f.placed.Load()
	fn := func(i int, b Backend) error {
		s, err := b.RecordLines(ctx, q)
		if err == nil && pl != nil && s.shard != pl.ids[i] {
			s.Close()
			f.placed.CompareAndSwap(pl, nil) // learned from another fleet
			return fmt.Errorf("shard %s: shard identity changed: it advertised %q, /events answers as %q", b.Name(), pl.ids[i], s.shard)
		}
		streams[i] = s
		return err
	}
	if pl != nil && pl.plan != nil {
		if k := pl.plan.owner(q); k >= 0 {
			owner = pl.shard[k]
		}
	}
	if owner < 0 {
		if _, failed, err = f.fanOut(f.all, fn); pl == nil && failed == 0 {
			ids := make([]string, len(streams))
			for i, s := range streams {
				ids[i] = s.shard
			}
			f.placed.CompareAndSwap(nil, f.learn(ids))
		}
	} else if _, failed, err = f.fanOut([]int{owner}, fn); err == nil {
		if lpm && len(f.all) > 1 && headBits(streams[owner]) < pl.plan.Bit {
			rest := slices.DeleteFunc(slices.Clone(f.all), func(i int) bool { return i == owner })
			_, more, _ := f.fanOut(rest, fn) // the owner answered: no error, whatever the rest do
			failed += more
		} else {
			for i := range f.counters {
				if i != owner {
					f.counters[i].skipped.Add(1)
				}
			}
		}
	}
	if err != nil {
		return nil, failed, err
	}
	for _, s := range streams {
		if s != nil {
			failed += s.ShardsFailed // a nested router's shards missing below it
		}
	}
	if lpm {
		keepLongest(streams)
	}
	return streams, failed, nil
}

// headBits reads a stream's first record for the length of its prefix —
// the prefix an LPM answer's shard matched — and hands the record (or the
// error in its place) back to the stream's next Next. -1 when there is
// no such record.
func headBits(s *RecordStream) int {
	rl, err := s.next()
	rest := s.next
	s.next = func() (RecordLine, error) {
		s.next = rest // rl.Line is still the stream's: nothing was read past it
		return rl, err
	}
	if err != nil {
		return -1
	}
	p, err := netip.ParsePrefix(rl.Key.Prefix)
	if err != nil {
		return -1
	}
	return p.Bits()
}

// keepLongest makes a fan-out's LPM answers the LPM answer: every shard
// answered with its own longest match — one prefix per shard — and one
// store answers with the longest of them all, so the shards that matched
// a shorter prefix are dropped (closed and set to nil). Shards matching
// the same longest prefix (a time plan) all stay.
func keepLongest(streams []*RecordStream) {
	bits := make([]int, len(streams))
	for i, s := range streams {
		if bits[i] = -1; s != nil {
			bits[i] = headBits(s)
		}
	}
	longest := slices.Max(bits)
	for i, s := range streams {
		if bits[i] >= 0 && bits[i] < longest {
			s.Close()
			streams[i] = nil
		}
	}
}

// Records is RecordLines' counted read held whole (collectRecords).
func (f *FederatedStore) Records(ctx context.Context, q Query) (*RecordSet, error) {
	return collectRecords(ctx, f, q)
}

// lineCursor is one shard's stream position in the merge.
type lineCursor struct {
	idx  int // shard index, for failure accounting
	src  *RecordStream
	head RecordLine
}

// RecordLines implements Backend: open every asked shard's stream
// eagerly (so ShardsFailed, and a counted read's head, are known before
// the first body byte), then merge, passing each shard's serialized
// bytes through verbatim — borrowed, not copied: a returned Line is the
// shard stream's own buffer.
func (f *FederatedStore) RecordLines(ctx context.Context, q Query) (*RecordStream, error) {
	streams, failed, err := f.gather(ctx, q)
	if err != nil {
		return nil, err
	}
	merged := f.merge(streams, q.Limit)
	merged.ShardsFailed += failed
	return merged, nil
}

// merge is the federation's one merge: a k-way heap merge of the asked
// shards' streams (nil for a shard with none) on RecordKey, cut at limit when it
// is positive — limits are pushed down per shard and re-applied here,
// because the union of per-shard top-ks overshoots. Each shard's own
// order is trusted; equal heads go by shard index. A shard that fails (a
// read error, an oversize or malformed line) ends its contribution and is
// counted while the merge continues over the rest: in ShardsFailed when
// it cannot produce its first record, which the response headers can
// still report, and in the shard's failure counter either way. The
// merged head sums the shards' counts; closing the merged stream closes
// every shard's.
func (f *FederatedStore) merge(streams []*RecordStream, limit int) *RecordStream {
	h := stream.NewHeap(func(a, b lineCursor) bool {
		if a.head.Key == b.head.Key {
			return a.idx < b.idx
		}
		return a.head.Key.Less(b.head.Key)
	})
	// advance moves c to its shard's next record. At the shard's end
	// (io.EOF) or failure it closes the stream, counting a failure.
	advance := func(c *lineCursor) error {
		rl, err := c.src.Next()
		if err != nil {
			c.src.Close()
			if !errors.Is(err, io.EOF) {
				f.counters[c.idx].failures.Add(1)
			}
			return err
		}
		c.head = rl
		return nil
	}
	// Prime every stream: the merge needs each shard's head to pick a
	// global minimum.
	out := &RecordStream{}
	for i, s := range streams {
		if s == nil {
			continue
		}
		out.total, out.scanned = out.total+s.total, out.scanned+s.scanned // shards partition the events: totals add
		c := lineCursor{idx: i, src: s}
		if err := advance(&c); err == nil {
			h.Push(c)
		} else if !errors.Is(err, io.EOF) {
			out.ShardsFailed++
		}
	}

	remaining := math.MaxInt
	if limit > 0 {
		remaining = limit
	}
	// The line last returned is the heap's minimum's head, which may be
	// borrowed from its shard's stream, so the shard may only advance once
	// the caller is done with the line: at the start of the following
	// call, not before returning. It then refills in place, one sift.
	returned := false
	out.next = func() (RecordLine, error) {
		if remaining <= 0 {
			return RecordLine{}, io.EOF
		}
		if returned {
			// Headers are sent: a failure now shows in the shard's
			// counter, not in this response.
			returned = false
			c := h.Min()
			if advance(&c) == nil {
				h.ReplaceMin(c)
			} else {
				h.Pop()
			}
		}
		if h.Len() == 0 {
			return RecordLine{}, io.EOF
		}
		returned = true
		remaining--
		return h.Min().head, nil
	}
	out.close = func() {
		for _, s := range streams {
			if s != nil {
				s.Close()
			}
		}
	}
	return out
}

// Figure4 implements Backend: the union of the shards' per-day entity
// sets over the window, counted; ShardsFailed counts the shards missing.
func (f *FederatedStore) Figure4(ctx context.Context, start time.Time, days int) (*Figure4Result, error) {
	sets, failed, err := f.figure4Union(ctx, start, days, figure4Window)
	if err != nil {
		return nil, err
	}
	return &Figure4Result{Series: sets.Finalize(), ShardsFailed: failed}, nil
}

// Figure4Sets implements Backend, letting a federation itself act as
// one shard of a larger federation: the sets carry the shards it lost.
func (f *FederatedStore) Figure4Sets(ctx context.Context, start time.Time, days int) (*Figure4Sets, error) {
	merged, failed, err := f.figure4Union(ctx, start, days, setsWindow)
	if err != nil {
		return nil, err
	}
	sets := merged.Sets()
	sets.ShardsFailed = failed
	return &sets, nil
}

// figure4Union unions the shards' sets, counting the failed and those
// missed, in one round trip: window resolves a window left open from theirs.
func (f *FederatedStore) figure4Union(ctx context.Context, start time.Time, days int, window func(time.Time, int, time.Time, time.Time) (time.Time, int, error)) (*analysis.Figure4Union, int, error) {
	if _, _, err := window(start, days, time.Time{}, time.Time{}); err != nil { // a window named whole, before any shard is asked for it
		return nil, 0, err
	}
	shardSets := make([]*Figure4Sets, len(f.backends))
	_, failed, err := f.fanOut(f.all, func(i int, b Backend) error {
		s, err := b.Figure4Sets(ctx, start, days)
		shardSets[i] = s
		return err
	})
	if err != nil {
		return nil, failed, err
	}
	var first, last time.Time // the shards' windows span the events
	for _, s := range shardSets {
		if s != nil && s.Days > 0 {
			if first.IsZero() || s.Start.Before(first) {
				first = s.Start
			}
			if end := s.Start.AddDate(0, 0, s.Days-1); end.After(last) {
				last = end
			}
		}
	}
	if start, days, err = window(start, days, first, last); err != nil {
		return nil, failed, err
	}
	merged := analysis.NewFigure4Union(start, days)
	for _, s := range shardSets {
		if s == nil {
			continue
		}
		if err := merged.Add(s); err != nil {
			return nil, failed, err
		}
		failed += s.ShardsFailed
	}
	return merged, failed, nil
}

// LegitimacySummary implements Backend: per-shard histograms sum.
func (f *FederatedStore) LegitimacySummary(ctx context.Context, q Query) (*LegitimacySummary, error) {
	began := time.Now()
	sums := make([]*LegitimacySummary, len(f.backends))
	_, failed, err := f.fanOut(f.all, func(i int, b Backend) error {
		s, err := b.LegitimacySummary(ctx, q)
		sums[i] = s
		return err
	})
	if err != nil {
		return nil, err
	}
	out := newLegitimacySummary()
	out.ShardsFailed = failed
	hists := []map[string]int{out.Legitimacy, out.RPKI, out.CommunityDoc, out.Reasons}
	for _, s := range sums {
		if s == nil {
			continue
		}
		out.ShardsFailed += s.ShardsFailed
		out.Total += s.Total
		for i, hist := range []map[string]int{s.Legitimacy, s.RPKI, s.CommunityDoc, s.Reasons} {
			for k, v := range hist {
				hists[i][k] += v
			}
		}
	}
	out.ElapsedUS = time.Since(began).Microseconds()
	return out, nil
}

// Stats implements Backend: counters sum (shards hold disjoint
// events), time bounds fold to the global span, and the Shards block
// carries the version-tagged per-shard breakdown. Note Prefixes is a
// sum of per-shard distinct counts: exact under a prefix-split plan,
// an upper bound under a time plan (the same prefix may recur on
// several shards). An answer from every shard is also where the
// federation learns its placement; one with a shard missing teaches
// nothing and leaves what was learned alone.
func (f *FederatedStore) Stats(ctx context.Context) (*BackendStats, error) {
	stats := make([]*BackendStats, len(f.backends))
	errs, failed, err := f.fanOut(f.all, func(i int, b Backend) error {
		s, err := b.Stats(ctx)
		stats[i] = s
		return err
	})
	if err != nil {
		return nil, err
	}
	if failed == 0 {
		ids := make([]string, len(stats))
		for i, s := range stats {
			ids[i] = s.Identity
		}
		f.placed.Store(f.learn(ids))
	}
	out := &BackendStats{Shards: &ShardsInfo{Version: ShardsInfoVersion, Failed: failed}}
	for i, b := range f.backends {
		row := ShardStat{
			Name:     b.Name(),
			Requests: f.counters[i].requests.Load(),
			Failures: f.counters[i].failures.Load(),
			Hedges:   hedges(b),
			Skipped:  f.counters[i].skipped.Load(),
		}
		if rb, ok := b.(*RemoteBackend); ok {
			row.URL = rb.URL()
		}
		s := stats[i]
		if s == nil {
			row.Status = "down"
			if errs[i] != nil {
				row.Err = errs[i].Error()
			}
			out.Shards.Shards = append(out.Shards.Shards, row)
			continue
		}
		row.Status = "ok"
		if s.Shards != nil {
			out.Shards.Failed += s.Shards.Failed // a nested router's shards down below it
		}
		row.Events = s.Events
		row.Identity = s.Identity
		agg := &out.StoreStats
		agg.Events += s.Events
		agg.Prefixes += s.Prefixes
		agg.Segments += s.Segments
		agg.Bytes += s.Bytes
		agg.Tombstones += s.Tombstones
		agg.PendingErasure += s.PendingErasure
		agg.RecoveredTails += s.RecoveredTails
		agg.Unsynced += s.Unsynced
		agg.SegmentsCold += s.SegmentsCold
		agg.SegmentsHydrated += s.SegmentsHydrated
		agg.OpenDecodedEvents += s.OpenDecodedEvents
		agg.HydratedEvents += s.HydratedEvents
		agg.MappedBytes += s.MappedBytes
		if !s.MinStart.IsZero() && (agg.MinStart.IsZero() || s.MinStart.Before(agg.MinStart)) {
			agg.MinStart = s.MinStart
		}
		if s.MaxEnd.After(agg.MaxEnd) {
			agg.MaxEnd = s.MaxEnd
		}
		out.Shards.Shards = append(out.Shards.Shards, row)
	}
	return out, nil
}

// Healthz implements Backend: every shard is probed concurrently, and
// the federation is ok only when every shard is and the identities they
// last advertised do not contradict each other.
func (f *FederatedStore) Healthz(ctx context.Context) *ShardHealth {
	healths := make([]*ShardHealth, len(f.backends))
	f.fanOut(f.all, func(i int, b Backend) error {
		healths[i] = b.Healthz(ctx)
		if healths[i].Status == "down" {
			return errors.New(healths[i].Err)
		}
		return nil
	})
	out := &ShardHealth{Name: f.Name(), Status: "ok"}
	checks := map[string]string{}
	for _, h := range healths {
		out.Events += h.Events
		if h.Status != "ok" {
			msg := h.Status
			if h.Err != "" {
				msg += ": " + h.Err
			}
			checks["shard:"+h.Name] = msg
		}
		for k, v := range h.Checks {
			checks["shard:"+h.Name+":"+k] = v
		}
	}
	if _, err := f.Placement(); err != nil {
		checks["placement"] = err.Error()
	}
	if len(checks) > 0 {
		out.Status = "degraded"
		out.Checks = checks
	}
	return out
}

// placement is what a federation learned from one complete answer: a
// Stats call's, or a fan-out's when it had no plan.
type placement struct {
	ids   []string         // ids[i] is the identity backend i advertised, "" for none
	spec  string           // the plan every shard advertises; "" when there is none to follow
	plan  *PrefixShardPlan // spec parsed, when it is a plan that places queries
	shard []int            // shard[k] is the backend holding the plan's shard k
	why   string           // without a spec: which shard advertises no identity
	err   error            // the identities contradict each other
}

// learn reads the shards' advertised identities. All advertising one
// plan, whose N is the shard count, under indices that are a permutation
// of 0..N-1, is a plan to follow; any shard advertising none is a fleet
// to fan out over; anything else is a contradiction — the fleet was not
// written by one SinkToShards, and no query may trust its layout. Whatever
// the reading, the identities themselves are kept: every later answer is
// held to them (gather).
func (f *FederatedStore) learn(ids []string) *placement {
	name := func(i int) string { return f.backends[i].Name() }
	contradiction := func(format string, args ...any) *placement {
		return &placement{ids: ids, err: fmt.Errorf(format, args...)}
	}
	for i, id := range ids {
		if id == "" {
			return &placement{ids: ids, why: "shard " + name(i) + " advertises no identity"}
		}
	}
	pl := &placement{ids: ids, shard: make([]int, len(ids))}
	for i := range pl.shard {
		pl.shard[i] = -1
	}
	for i, s := range ids {
		id, err := parseShardIdentity(s)
		if err != nil {
			return contradiction("shard %s: %w", name(i), err)
		}
		switch spec := id.plan.String(); {
		case i == 0:
			pl.spec = spec
			if plan, ok := id.plan.(PrefixShardPlan); ok {
				pl.plan = &plan
			}
		case spec != pl.spec:
			return contradiction("shard %s is of plan %s, shard %s of plan %s", name(0), pl.spec, name(i), spec)
		}
		if n := id.plan.Shards(); n != len(ids) {
			return contradiction("plan %s has %d shards, %d are configured", pl.spec, n, len(ids))
		}
		if j := pl.shard[id.index]; j >= 0 {
			return contradiction("shards %s and %s are both shard %d of plan %s", name(j), name(i), id.index, pl.spec)
		}
		pl.shard[id.index] = i
	}
	return pl
}

// Placement describes how the federation places queries, as one log
// line: the plan its shards advertise and the prefix modes it prunes
// ("plan=prefix:8:3 placed=exact,covered,lpm"), or why every query goes
// to every shard. The error is a contradiction between the shards'
// identities; queries still fan out everywhere, which is correct for
// any layout, but the fleet is not the one its writer made. Both are as
// of the last Stats call that reached every shard, or the events query
// that did while nothing was known.
func (f *FederatedStore) Placement() (string, error) {
	pl := f.placed.Load()
	switch {
	case pl == nil:
		return "plan=none (no identities read yet)", nil
	case pl.err != nil:
		return "plan=none (identities contradict)", fmt.Errorf("shard identities contradict: %w", pl.err)
	case pl.spec == "":
		return "plan=none (" + pl.why + ")", nil
	case pl.plan == nil:
		return "plan=" + pl.spec + " placed=none", nil
	}
	return "plan=" + pl.spec + " placed=exact,covered,lpm", nil
}

// ---------------------------------------------------------------------
// Shard plans: deciding which shard an event belongs to at write time.

// ShardPlan assigns each closed event to one of N shards. The two
// provided plans — TimeShardPlan and PrefixShardPlan — partition the
// event space, which is what makes federated totals sums and the
// merged stream a permutation-free interleave.
type ShardPlan interface {
	// Shards is the shard count N.
	Shards() int
	// Shard maps an event to [0, N).
	Shard(ev *Event) int
	// String names the plan. The provided plans print their spec, the
	// form ParseShardPlan reads back: what logs show and stores are
	// stamped with.
	String() string
}

// maxShards bounds a plan's shard count.
const maxShards = 1 << 20

// TimeShardPlan partitions by closing time: shard = ⌊(End − Unix epoch)
// / Width⌋ mod N. Consecutive time windows land on consecutive shards
// round-robin, so a long capture spreads over all shards instead of
// filling them one by one.
type TimeShardPlan struct {
	// Width is one window's span. Must be positive.
	Width time.Duration
	// N is the shard count, 1 to 1<<20.
	N int
}

// check is the one place that says which time plans exist: what
// ParseShardPlan accepts, SinkToShards takes and Shard is defined for.
func (p TimeShardPlan) check() error {
	if p.Width <= 0 {
		return fmt.Errorf("window width %s (want a positive duration)", p.Width)
	}
	if p.N < 1 || p.N > maxShards {
		return fmt.Errorf("shard count %d (want 1..%d)", p.N, maxShards)
	}
	return nil
}

// Shards implements ShardPlan.
func (p TimeShardPlan) Shards() int { return p.N }

// Shard implements ShardPlan; 0 under a plan check refuses.
func (p TimeShardPlan) Shard(ev *Event) int {
	if p.check() != nil {
		return 0
	}
	w := int64(p.Width)
	d := ev.End.Sub(time.Unix(0, 0)) // not time.Time's zero, the year 1: Sub from it saturates
	win := int64(d) / w
	if int64(d)%w < 0 {
		win-- // floor toward −inf for pre-epoch events
	}
	s := int(win % int64(p.N))
	if s < 0 {
		s += p.N
	}
	return s
}

// String implements ShardPlan: the spec "time:<width>:<n>".
func (p TimeShardPlan) String() string {
	return fmt.Sprintf("time:%s:%d", p.Width, p.N)
}

// PrefixShardPlan partitions by prefix address: the top Bit bits of
// the event prefix's (family-native, masked) address, mod N. This is a
// split of the patricia trie at depth Bit — all events under one
// depth-Bit subtree land on the same shard, which is what lets a router
// place a prefix query (owner). Both families hash independently (v4
// from the 32-bit address, v6 from the top 64 bits).
type PrefixShardPlan struct {
	// Bit is the trie depth of the split, 1 to 32.
	Bit int
	// N is the shard count, 1 to 1<<20.
	N int
}

// check is the one place that says which prefix plans exist: what
// ParseShardPlan accepts, SinkToShards takes and Shard is defined for.
func (p PrefixShardPlan) check() error {
	if p.Bit < 1 || p.Bit > 32 {
		return fmt.Errorf("split bit %d (want 1..32)", p.Bit)
	}
	if p.N < 1 || p.N > maxShards {
		return fmt.Errorf("shard count %d (want 1..%d)", p.N, maxShards)
	}
	return nil
}

// Shards implements ShardPlan.
func (p PrefixShardPlan) Shards() int { return p.N }

// Shard implements ShardPlan; 0 under a plan check refuses.
func (p PrefixShardPlan) Shard(ev *Event) int { return p.shardOf(ev.Prefix) }

// shardOf files a prefix under the top Bit bits of its masked address. A
// prefix shorter than Bit is filed under its own bits, zero-extended:
// wherever that lands, not necessarily with the longer prefixes it
// covers.
func (p PrefixShardPlan) shardOf(prefix netip.Prefix) int {
	if p.check() != nil {
		return 0
	}
	addr := prefix.Masked().Addr()
	var top uint64
	if addr.Is4() {
		a4 := addr.As4()
		top = uint64(binary.BigEndian.Uint32(a4[:])) >> (32 - p.Bit)
	} else {
		a16 := addr.As16()
		top = binary.BigEndian.Uint64(a16[:8]) >> (64 - p.Bit)
	}
	return int(top % uint64(p.N))
}

// owner is the placement law: the one shard every event q's prefix
// filter can match is filed on, or -1 when they may be on any.
//
//	exact     the prefix's own shard, whatever its length
//	covered   a query prefix at least Bit long contains only prefixes
//	          that share its top Bit bits: its shard
//	lpm       likewise for the matches at least Bit long; the caller
//	          must ask the other shards when the owner has none (gather)
//	covering  every match is shorter than the query, so possibly shorter
//	          than Bit: anywhere
//
// Filters other than the prefix narrow a shard's answer, never move it.
func (p PrefixShardPlan) owner(q Query) int {
	if !q.Prefix.IsValid() || p.check() != nil {
		return -1
	}
	if q.Mode == PrefixExact || q.Mode != PrefixCovering && q.Prefix.Bits() >= p.Bit {
		return p.shardOf(q.Prefix)
	}
	return -1
}

// String implements ShardPlan: the spec "prefix:<bit>:<n>".
func (p PrefixShardPlan) String() string {
	return fmt.Sprintf("prefix:%d:%d", p.Bit, p.N)
}

// stampable reports whether a store can be stamped with plan: it is one
// of the provided plans, whose spec says all of it. err is why a
// provided plan is none at all.
func stampable(plan ShardPlan) (ok bool, err error) {
	p, ok := plan.(interface{ check() error })
	if !ok {
		return false, nil
	}
	return true, p.check()
}

// ParseShardPlan parses a plan spec, the form the provided plans print:
//
//	time:<width>:<n>    e.g. time:168h:3  (weekly windows over 3 shards)
//	prefix:<bit>:<n>    e.g. prefix:8:4   (top octet over 4 shards)
//
// Numbers are plain decimal digits. Parsing what a plan prints gives the
// plan back.
func ParseShardPlan(s string) (ShardPlan, error) {
	parts := strings.SplitN(s, ":", 3)
	if len(parts) != 3 {
		return nil, fmt.Errorf("bad shard plan %q (want time:<width>:<n> or prefix:<bit>:<n>)", s)
	}
	n, err := parseDigits(parts[2])
	if err != nil {
		return nil, fmt.Errorf("bad shard count in %q: %v", s, err)
	}
	var plan ShardPlan
	switch parts[0] {
	case "time":
		w, perr := time.ParseDuration(parts[1])
		if perr != nil {
			return nil, fmt.Errorf("bad window width in %q", s)
		}
		p := TimeShardPlan{Width: w, N: n}
		plan, err = p, p.check()
	case "prefix":
		bit, perr := parseDigits(parts[1])
		if perr != nil {
			return nil, fmt.Errorf("bad split bit in %q: %v", s, perr)
		}
		p := PrefixShardPlan{Bit: bit, N: n}
		plan, err = p, p.check()
	default:
		return nil, fmt.Errorf("bad shard plan kind %q (want time or prefix)", parts[0])
	}
	if err != nil {
		return nil, fmt.Errorf("bad shard plan %q: %v", s, err)
	}
	return plan, nil
}

// parseDigits parses a plan's shard count or split bit: plain decimal
// digits (ParseUint takes no sign). What the number may be is check's
// to say.
func parseDigits(s string) (int, error) {
	n, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return int(n), nil
}

// shardIdentity is what a stamped store knows about itself: which shard
// of which plan it is. On disk and in stats it is "<plan spec> <index>".
type shardIdentity struct {
	plan  ShardPlan
	index int
}

func (id shardIdentity) String() string { return id.plan.String() + " " + strconv.Itoa(id.index) }

// parseShardIdentity is String's inverse.
func parseShardIdentity(s string) (shardIdentity, error) {
	spec, idx, ok := strings.Cut(s, " ")
	if !ok {
		return shardIdentity{}, fmt.Errorf("bad shard identity %q (want \"<plan> <index>\")", s)
	}
	plan, err := ParseShardPlan(spec)
	if err != nil {
		return shardIdentity{}, fmt.Errorf("bad shard identity %q: %v", s, err)
	}
	i, err := parseDigits(idx)
	if err != nil || i >= plan.Shards() {
		return shardIdentity{}, fmt.Errorf("bad shard identity %q: index %q (want 0..%d)", s, idx, plan.Shards()-1)
	}
	return shardIdentity{plan, i}, nil
}
