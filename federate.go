package bgpblackholing

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bgpblackholing/internal/analysis"
	"bgpblackholing/internal/stream"
)

// FederatedStore fans the Backend query surface out over N shard
// backends and merges the answers:
//
//	events        per-shard streams k-way merged on RecordKey (the
//	              global closing order), limits pushed down per shard
//	              and re-applied after the merge
//	figure4       per-shard entity sets unioned, then counted
//	legitimacy    per-shard histograms summed
//	stats         store shapes summed + a version-tagged per-shard block
//	healthz       per-shard probes
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
// (RecordSet.ShardsFailed, the X-Shards-Failed response header, the
// stats shards block). Only when every shard fails does a call error.
//
// FederatedStore itself implements Backend, so a federation can be
// served by NewRouterHandler, queried by bhquery, or even mounted as a
// shard of a larger federation.
type FederatedStore struct {
	backends []Backend
	counters []shardCounters
}

// shardCounters are the router's lifetime per-shard counters, exposed
// via /stats and Telemetry.ObserveFederation. The third per-shard
// counter, hedges, is kept by the RemoteBackend that launches them.
type shardCounters struct {
	requests atomic.Uint64
	failures atomic.Uint64
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
	return &FederatedStore{
		backends: backends,
		counters: make([]shardCounters, len(backends)),
	}
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

// fanOut runs fn against every shard concurrently, counting requests
// and failures. It returns the per-shard errors (nil for successes) and
// how many shards failed; err is non-nil only when every shard did —
// anything less is a partial answer, not an error.
func (f *FederatedStore) fanOut(fn func(i int, b Backend) error) (errs []error, failed int, err error) {
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
	// latency) fan out first, so they overlap the inline work.
	var wg sync.WaitGroup
	for i, b := range f.backends {
		if inProcess(b) {
			continue
		}
		wg.Add(1)
		go func(i int, b Backend) {
			defer wg.Done()
			call(i, b)
		}(i, b)
	}
	for i, b := range f.backends {
		if inProcess(b) {
			call(i, b)
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
	if failed == len(f.backends) {
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

// Records implements Backend: fan out with the limit pushed down, merge
// the answered sets as streams over their lines, and sum the accounting
// (shards partition the events, so totals add). The merged lines stay
// the shard sets' own.
func (f *FederatedStore) Records(ctx context.Context, q Query) (*RecordSet, error) {
	began := time.Now()
	sets := make([]*RecordSet, len(f.backends))
	_, failed, err := f.fanOut(func(i int, b Backend) error {
		rs, err := b.Records(ctx, q)
		sets[i] = rs
		return err
	})
	if err != nil {
		return nil, err
	}

	out := &RecordSet{Records: []RecordLine{}, ShardsFailed: failed} // an empty match is [], never null
	streams := make([]*RecordStream, len(sets))
	for i, rs := range sets {
		if rs == nil {
			continue
		}
		out.Total += rs.Total
		out.Scanned += rs.Scanned
		lines := rs.Records
		streams[i] = &RecordStream{next: func() (RecordLine, error) {
			if len(lines) == 0 {
				return RecordLine{}, io.EOF
			}
			rl := lines[0]
			lines = lines[1:]
			return rl, nil
		}}
	}
	merged := f.merge(streams, q.Limit)
	for {
		rl, err := merged.Next()
		if err != nil {
			break // io.EOF: a set's lines cannot fail
		}
		out.Records = append(out.Records, rl)
	}
	out.Elapsed = time.Since(began)
	return out, nil
}

// lineCursor is one shard's stream position in the merge.
type lineCursor struct {
	idx  int // shard index, for failure accounting
	src  *RecordStream
	head RecordLine
}

// RecordLines implements Backend: open every shard stream eagerly
// (so ShardsFailed is known before the first body byte), then merge,
// passing each shard's serialized bytes through verbatim — borrowed, not
// copied: a returned Line is the shard stream's own buffer.
func (f *FederatedStore) RecordLines(ctx context.Context, q Query) (*RecordStream, error) {
	streams := make([]*RecordStream, len(f.backends))
	_, failed, err := f.fanOut(func(i int, b Backend) error {
		s, err := b.RecordLines(ctx, q)
		streams[i] = s
		return err
	})
	if err != nil {
		return nil, err
	}
	merged := f.merge(streams, q.Limit)
	merged.ShardsFailed += failed
	return merged, nil
}

// merge is the federation's one merge: a k-way heap merge of the shards'
// streams (nil for a shard with none) on RecordKey, cut at limit when it
// is positive — limits are pushed down per shard and re-applied here,
// because the union of per-shard top-ks overshoots. Each shard's own
// order is trusted; equal heads go by shard index. A shard that fails (a
// read error, an oversize or malformed line) ends its contribution and is
// counted while the merge continues over the rest: in ShardsFailed when
// it cannot produce its first record, which the response headers can
// still report, and in the shard's failure counter either way. Closing
// the merged stream closes every shard's.
func (f *FederatedStore) merge(streams []*RecordStream, limit int) *RecordStream {
	h := stream.NewHeap(func(a, b lineCursor) bool {
		if a.head.Key == b.head.Key {
			return a.idx < b.idx
		}
		return a.head.Key.Less(b.head.Key)
	})
	// advance pushes a shard's next record, or drops the shard from the
	// merge at its end or its failure; only a failure is returned.
	advance := func(c lineCursor) error {
		rl, err := c.src.Next()
		if err == nil {
			c.head = rl
			h.Push(c)
			return nil
		}
		c.src.Close()
		if errors.Is(err, io.EOF) {
			return nil
		}
		f.counters[c.idx].failures.Add(1)
		return err
	}
	// Prime every stream: the merge needs each shard's head to pick a
	// global minimum.
	failed := 0
	for i, s := range streams {
		if s != nil && advance(lineCursor{idx: i, src: s}) != nil {
			failed++
		}
	}

	remaining := math.MaxInt
	if limit > 0 {
		remaining = limit
	}
	// A popped cursor's head may be borrowed from its shard's stream, so
	// the shard may only advance once the caller is done with the line: at
	// the start of the following call, not before returning.
	var popped lineCursor
	return &RecordStream{
		ShardsFailed: failed,
		next: func() (RecordLine, error) {
			if remaining <= 0 {
				return RecordLine{}, io.EOF
			}
			if popped.src != nil {
				// Headers are sent: a failure now shows in the shard's
				// counter, not in this response.
				_ = advance(popped)
				popped = lineCursor{}
			}
			if h.Len() == 0 {
				return RecordLine{}, io.EOF
			}
			popped = h.Pop()
			remaining--
			return popped.head, nil
		},
		close: func() {
			for _, s := range streams {
				if s != nil {
					s.Close()
				}
			}
		},
	}
}

// Figure4 implements Backend: every shard reports its per-day entity
// sets over the same window; the union is counted. Partial failures
// degrade (the counts cover the surviving shards; ShardsFailed says
// so) rather than erroring.
func (f *FederatedStore) Figure4(ctx context.Context, start time.Time, days int) (*Figure4Result, error) {
	sets, failed, err := f.figure4Union(ctx, start, days)
	if err != nil {
		return nil, err
	}
	return &Figure4Result{Series: sets.Finalize(), ShardsFailed: failed}, nil
}

// Figure4Sets implements Backend, letting a federation itself act as
// one shard of a larger federation.
func (f *FederatedStore) Figure4Sets(ctx context.Context, start time.Time, days int) (*Figure4Sets, error) {
	merged, _, err := f.figure4Union(ctx, start, days)
	if err != nil {
		return nil, err
	}
	sets := merged.Sets()
	return &sets, nil
}

func (f *FederatedStore) figure4Union(ctx context.Context, start time.Time, days int) (*analysis.Figure4Partial, int, error) {
	shardSets := make([]*Figure4Sets, len(f.backends))
	_, failed, err := f.fanOut(func(i int, b Backend) error {
		s, err := b.Figure4Sets(ctx, start, days)
		shardSets[i] = s
		return err
	})
	if err != nil {
		return nil, failed, err
	}
	merged := analysis.NewFigure4Partial(start, days)
	for _, s := range shardSets {
		if s == nil {
			continue
		}
		if err := merged.MergeSets(*s); err != nil {
			return nil, failed, err
		}
	}
	return merged, failed, nil
}

// LegitimacySummary implements Backend: per-shard histograms sum.
func (f *FederatedStore) LegitimacySummary(ctx context.Context, q Query) (*LegitimacySummary, error) {
	began := time.Now()
	sums := make([]*LegitimacySummary, len(f.backends))
	_, failed, err := f.fanOut(func(i int, b Backend) error {
		s, err := b.LegitimacySummary(ctx, q)
		sums[i] = s
		return err
	})
	if err != nil {
		return nil, err
	}
	out := newLegitimacySummary()
	out.ShardsFailed = failed
	for _, s := range sums {
		if s == nil {
			continue
		}
		out.Total += s.Total
		for k, v := range s.Legitimacy {
			out.Legitimacy[k] += v
		}
		for k, v := range s.RPKI {
			out.RPKI[k] += v
		}
		for k, v := range s.CommunityDoc {
			out.CommunityDoc[k] += v
		}
		for k, v := range s.Reasons {
			out.Reasons[k] += v
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
// several shards).
func (f *FederatedStore) Stats(ctx context.Context) (*BackendStats, error) {
	stats := make([]*BackendStats, len(f.backends))
	errs, failed, err := f.fanOut(func(i int, b Backend) error {
		s, err := b.Stats(ctx)
		stats[i] = s
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &BackendStats{Shards: &ShardsInfo{Version: ShardsInfoVersion, Failed: failed}}
	for i, b := range f.backends {
		row := ShardStat{
			Name:     b.Name(),
			Requests: f.counters[i].requests.Load(),
			Failures: f.counters[i].failures.Load(),
			Hedges:   hedges(b),
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
		row.Events = s.Events
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
// the federation is ok only when every shard is.
func (f *FederatedStore) Healthz(ctx context.Context) *ShardHealth {
	healths := make([]*ShardHealth, len(f.backends))
	f.fanOut(func(i int, b Backend) error {
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
	if len(checks) > 0 {
		out.Status = "degraded"
		out.Checks = checks
	}
	return out
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
	// String describes the plan for logs and docs.
	String() string
}

// TimeShardPlan partitions by closing time: shard = ⌊(End − Epoch) /
// Width⌋ mod N. Consecutive time windows land on consecutive shards
// round-robin, so a long capture spreads over all shards instead of
// filling them one by one.
type TimeShardPlan struct {
	// Epoch anchors window zero. The zero value (Unix epoch) is fine;
	// only the alignment matters.
	Epoch time.Time
	// Width is one window's span. Must be positive.
	Width time.Duration
	// N is the shard count. Must be positive.
	N int
}

// Shards implements ShardPlan.
func (p TimeShardPlan) Shards() int { return p.N }

// Shard implements ShardPlan.
func (p TimeShardPlan) Shard(ev *Event) int {
	w := int64(p.Width)
	if w <= 0 || p.N <= 0 {
		return 0
	}
	d := ev.End.Sub(p.Epoch)
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

// String implements ShardPlan.
func (p TimeShardPlan) String() string {
	return fmt.Sprintf("time(width=%s, n=%d)", p.Width, p.N)
}

// PrefixShardPlan partitions by prefix address: the top Bit bits of
// the event prefix's (family-native) address, mod N. This is a split
// of the patricia trie at depth Bit — all events under one depth-Bit
// subtree land on the same shard, so covered/covering queries for a
// prefix at or below that depth touch one shard. Both families hash
// independently (v4 from the 32-bit address, v6 from the top 64 bits).
type PrefixShardPlan struct {
	// Bit is the trie depth of the split (1..32). Must be positive.
	Bit int
	// N is the shard count. Must be positive.
	N int
}

// Shards implements ShardPlan.
func (p PrefixShardPlan) Shards() int { return p.N }

// Shard implements ShardPlan.
func (p PrefixShardPlan) Shard(ev *Event) int {
	if p.N <= 0 {
		return 0
	}
	bit := p.Bit
	if bit <= 0 {
		bit = 8
	}
	if bit > 32 {
		bit = 32
	}
	addr := ev.Prefix.Addr()
	var top uint64
	if addr.Is4() {
		a4 := addr.As4()
		v := uint64(a4[0])<<24 | uint64(a4[1])<<16 | uint64(a4[2])<<8 | uint64(a4[3])
		top = v >> (32 - uint(bit))
	} else {
		a16 := addr.As16()
		var v uint64
		for i := 0; i < 8; i++ {
			v = v<<8 | uint64(a16[i])
		}
		top = v >> (64 - uint(bit))
	}
	return int(top % uint64(p.N))
}

// String implements ShardPlan.
func (p PrefixShardPlan) String() string {
	return fmt.Sprintf("prefix(bit=%d, n=%d)", p.Bit, p.N)
}

// ParseShardPlan parses the CLI plan syntax:
//
//	time:<width>:<n>    e.g. time:168h:3  (weekly windows over 3 shards)
//	prefix:<bit>:<n>    e.g. prefix:8:4   (top octet over 4 shards)
func ParseShardPlan(s string) (ShardPlan, error) {
	parts := strings.SplitN(s, ":", 3)
	if len(parts) != 3 {
		return nil, fmt.Errorf("bad shard plan %q (want time:<width>:<n> or prefix:<bit>:<n>)", s)
	}
	n, err := parseCount(parts[2])
	if err != nil {
		return nil, fmt.Errorf("bad shard count in %q: %v", s, err)
	}
	switch parts[0] {
	case "time":
		w, err := time.ParseDuration(parts[1])
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad window width in %q", s)
		}
		return TimeShardPlan{Width: w, N: n}, nil
	case "prefix":
		bit, err := parseCount(parts[1])
		if err != nil || bit > 32 {
			return nil, fmt.Errorf("bad split bit in %q (want 1..32)", s)
		}
		return PrefixShardPlan{Bit: bit, N: n}, nil
	}
	return nil, fmt.Errorf("bad shard plan kind %q (want time or prefix)", parts[0])
}

// parseCount parses a plan's shard count or split bit: plain decimal
// digits (ParseUint takes no sign), 1 to 1<<20.
func parseCount(s string) (int, error) {
	n, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	if n == 0 || n > 1<<20 {
		return 0, fmt.Errorf("number %q out of range (want 1..%d)", s, 1<<20)
	}
	return int(n), nil
}
