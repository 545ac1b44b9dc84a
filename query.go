package bgpblackholing

import (
	"context"
	"encoding/json"
	"fmt"
	"iter"
	"math"
	"net/netip"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"bgpblackholing/internal/analysis"
	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/core"
	"bgpblackholing/internal/store"
)

// This file is the facade over the persistent event store
// (internal/store): detection results land once in a durable, indexed,
// segmented log and longitudinal queries — by prefix (exact, longest
// -prefix-match, covered, covering), time range, origin ASN, provider,
// duration and dictionary community — are answered from in-memory
// indexes in microseconds, without replaying raw BGP data. The paper's
// tables and figures regenerate directly from the store.

// Store is a persistent, indexed store of closed blackholing events:
// an append-only, segmented, checksummed binary log with atomic-rename
// commits and crash recovery, plus indexes (a patricia trie over
// prefixes, time buckets, per-user / per-provider / per-community
// postings) rebuilt on open. One process appends — typically a
// Detector via SinkToStore — while any number of goroutines query.
type Store struct {
	s *store.Store
	// ann, when set, powers Query.Enrich legitimacy annotation; atomic
	// because SetAnnotator may race concurrent queries.
	ann atomic.Pointer[Annotator]
	// qobs, when set by a handler's observeStore, receives query-path
	// telemetry; atomic for the same reason as ann.
	qobs atomic.Pointer[queryObs]
	// shard is the identity the store is stamped with (stamp), nil when
	// it has none: the slice of a sharded fleet's events Append keeps it
	// to. Atomic because SinkToShards may stamp while others append.
	shard atomic.Pointer[shardIdentity]
}

// SetAnnotator attaches a legitimacy annotator (see NewAnnotator and
// Pipeline.Annotator): queries with Enrich set then return per-event
// RPKI validity, community documentation status and a combined verdict.
// A nil annotator turns enrichment back off. Safe to call while other
// goroutines query.
func (st *Store) SetAnnotator(a *Annotator) { st.ann.Store(a) }

// Annotator returns the attached legitimacy annotator, or nil.
func (st *Store) Annotator() *Annotator { return st.ann.Load() }

// StoreOptions tunes OpenStoreWith. Its zero Policy compacts merge-all.
type StoreOptions = store.Options

// SyncPolicy is the store's group-commit fsync policy (StoreOptions.Sync):
// batch fsyncs every N appended records or every Interval, whichever
// comes first (EveryN 1 is one fsync per append batch); the zero value
// only at seal, Sync and Close. See ParseSyncPolicy for the flag syntax.
type SyncPolicy = store.SyncPolicy

// StoreStats describes a store's shape (Store.Stats).
type StoreStats = store.Stats

// CompactStats describes one compaction (Store.Compact).
type CompactStats = store.CompactStats

// CompactionPolicy selects which segments a compaction pass may merge:
// time-partitioned segments (Partition), LSM-style size-ratio runs
// (SizeRatio / MinRun), or the seal-and-dedupe pass (MergeAll, or the
// zero policy). See Store.Compact and ParseCompactionPolicy.
type CompactionPolicy = store.Policy

// PrefixMode selects how Query.Prefix matches stored prefixes.
type PrefixMode = store.PrefixMode

// Prefix match modes.
const (
	// PrefixExact matches events for exactly the query prefix.
	PrefixExact = store.PrefixExact
	// PrefixLPM matches events for the longest stored prefix containing
	// the query ("who blackholes this address").
	PrefixLPM = store.PrefixLPM
	// PrefixCovered matches every stored prefix inside the query ("all
	// blackholed more-specifics of this /16").
	PrefixCovered = store.PrefixCovered
	// PrefixCovering matches every stored prefix containing the query
	// (the chain of covering aggregates).
	PrefixCovering = store.PrefixCovering
)

// OpenStore opens (or creates) the event store in dir for reading and
// appending, replaying the log and rebuilding the indexes. A tail torn
// by a crash is truncated to the last intact record.
func OpenStore(dir string) (*Store, error) {
	return OpenStoreWith(dir, StoreOptions{})
}

// OpenStoreReadOnly opens an existing store for querying only: nothing
// on disk is modified, and Append / Compact fail.
func OpenStoreReadOnly(dir string) (*Store, error) {
	return OpenStoreWith(dir, StoreOptions{ReadOnly: true})
}

// ReplicaReport says what one ReplicateStore pass shipped.
type ReplicaReport = store.ReplicaReport

// ReplicateStore one-shot syncs the store directory srcDir into
// dstDir: sealed segments and sidecars copy once, the active segment
// re-ships as it grows, and files superseded by compaction are
// retired. Safe against a live source (segments are CRC-framed, so a
// torn tail costs the replica only the newest events until the next
// pass). The replica is served by OpenStoreReadOnly — the shape a
// federated read tier fans out to.
func ReplicateStore(srcDir, dstDir string) (*ReplicaReport, error) {
	return store.Replicate(srcDir, dstDir)
}

// OpenStoreWith opens a store with explicit options — segment size and
// the background compactor threshold (CompactSegments > 0 merges
// sealed segments and drops superseded flush duplicates continuously).
func OpenStoreWith(dir string, opts StoreOptions) (*Store, error) {
	s, err := store.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	st := &Store{s: s}
	if line := s.Identity(); line != "" {
		id, err := parseShardIdentity(line)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("store %s: %w", dir, err)
		}
		st.shard.Store(&id)
	}
	return st, nil
}

// Append persists events in order. Call Sync (or Close) for
// durability; SinkToStore does both. A store stamped as one shard of a
// plan (SinkToShards) refuses a batch holding an event the plan files
// on another shard, whole.
func (st *Store) Append(events ...*Event) error {
	if id := st.shard.Load(); id != nil {
		if err := id.owns(slices.Values(events)); err != nil {
			return err
		}
	}
	return st.s.Append(events...)
}

// owns reports the first of events the plan files on another shard.
func (id *shardIdentity) owns(events iter.Seq[*Event]) error {
	for ev := range events {
		if k := id.plan.Shard(ev); k != id.index {
			return fmt.Errorf("store is shard %q: event for %s belongs to shard %d", id, ev.Prefix, k)
		}
	}
	return nil
}

// stamp makes the store shard index of plan, durably (one small file
// beside the writer lock, see docs/FORMAT.md): from then on, and after
// every reopen, it advertises that identity in its Stats and refuses
// events the plan files elsewhere. A store may already hold events when
// it is stamped, provided they are all its own. Stamping the identity it
// already has is a no-op; any other is refused — a new plan is a new set
// of directories.
func (st *Store) stamp(plan ShardPlan, index int) error {
	id := &shardIdentity{plan, index}
	if st.shard.Load() != nil {
		return st.s.SetIdentity(id.String()) // nil for the identity it has, ErrIdentity for another
	}
	if err := id.owns(st.s.All()); err != nil {
		return err
	}
	if err := st.s.SetIdentity(id.String()); err != nil {
		return err
	}
	st.shard.Store(id)
	return nil
}

// Sync flushes appended events to stable storage.
func (st *Store) Sync() error { return st.s.Sync() }

// Close syncs and closes the store.
func (st *Store) Close() error { return st.s.Close() }

// Len returns the number of stored events.
func (st *Store) Len() int { return st.s.Len() }

// Stats snapshots the store's shape.
func (st *Store) Stats() StoreStats { return st.s.Stats() }

// Compact runs one compaction pass under policy. The zero policy, like
// MergeAll, is the seal-and-dedupe pass (the active segment is sealed,
// every partition merges into one segment, superseded flush duplicates
// are dropped) — the pass the background compactor runs for a zero
// StoreOptions.Policy. Set Partition and/or SizeRatio/MinRun for
// LSM-style tiering in which cold, settled segments are never rewritten
// (CompactStats.Skipped names them).
func (st *Store) Compact(policy CompactionPolicy) (CompactStats, error) {
	return st.s.Compact(policy)
}

// DeletePrefix erases a prefix's history — GDPR-style: every stored
// event whose prefix lies inside prefix (including exact matches) and,
// when upTo is non-zero, ended at or before upTo disappears from
// queries immediately; its bytes leave the disk at the next compaction
// of its segment's partition. The tombstone is durable and stays in
// force for later appends and reopens. Returns the number of events
// erased now.
func (st *Store) DeletePrefix(prefix netip.Prefix, upTo time.Time) (int, error) {
	return st.s.DeletePrefix(prefix, upTo)
}

// Query selects stored events; the zero value matches everything.
type Query struct {
	// From / To bound the event span: an event matches when [Start,
	// End] overlaps [From, To]. Zero means unbounded on that side.
	From, To time.Time
	// Prefix, when valid, constrains by prefix under Mode (PrefixExact,
	// PrefixLPM, PrefixCovered, PrefixCovering).
	Prefix netip.Prefix
	Mode   PrefixMode
	// OriginASN matches events whose inferred blackholing users include
	// this ASN — the paper's per-origin slicing. Zero means any.
	OriginASN ASN
	// Provider, when non-nil, matches events inferring this provider.
	Provider *ProviderRef
	// Community, when non-zero, matches events carrying this dictionary
	// community.
	Community Community
	// MinDuration / MaxDuration bound the event duration (zero = unbounded).
	MinDuration, MaxDuration time.Duration
	// Limit caps returned events (0 = unlimited); Total still counts
	// every match.
	Limit int
	// Enrich asks for legitimacy annotation of every returned event:
	// RPKI validity per inferred origin, documentation status per
	// matched community, and a combined verdict. Requires an annotator
	// on the store (Store.SetAnnotator); ignored otherwise.
	Enrich bool
}

// QueryResult is one query's outcome.
type QueryResult struct {
	// Events are the matches in append (closing) order.
	Events []*Event
	// Annotations, present only when Query.Enrich was set and the store
	// has an annotator, parallels Events with the legitimacy view of
	// each match.
	Annotations []Annotation
	// Total counts all matches, ignoring Limit.
	Total int
	// Scanned counts candidate events examined — the narrowest index
	// posting set, not the store size.
	Scanned int
	// Elapsed is the query's wall-clock execution time.
	Elapsed time.Duration
}

// filter is the Query → internal/store translation.
func (q Query) filter() store.Filter {
	return store.Filter{
		From:        q.From,
		To:          q.To,
		Prefix:      q.Prefix,
		Mode:        q.Mode,
		User:        q.OriginASN,
		Provider:    q.Provider,
		Community:   q.Community,
		MinDuration: q.MinDuration,
		MaxDuration: q.MaxDuration,
		Limit:       q.Limit,
	}
}

// streamed is the elapsed a streamed query passes to observeQuery: it
// counts, but the consumer paces the iteration, so it has no whole-call
// latency to observe.
const streamed time.Duration = -1

// observeQuery reports one answered query to the telemetry observeStore
// installed, if any.
func (st *Store) observeQuery(enriched bool, elapsed time.Duration) {
	qo := st.qobs.Load()
	if qo == nil {
		return
	}
	total, seconds := qo.total, qo.seconds
	if enriched {
		total, seconds = qo.enrichedTotal, qo.enrichedSeconds
	}
	total.Inc()
	if elapsed != streamed {
		seconds.Observe(elapsed.Seconds())
	}
}

// Query answers a longitudinal query from the in-memory indexes; no
// raw update data is touched and nothing is replayed.
func (st *Store) Query(q Query) *QueryResult {
	began := time.Now()
	res := st.s.Query(q.filter())
	out := &QueryResult{Events: res.Events, Total: res.Total, Scanned: res.Scanned}
	ann := st.ann.Load()
	if q.Enrich && ann != nil {
		out.Annotations = make([]Annotation, len(res.Events))
		for i, ev := range res.Events {
			out.Annotations[i] = ann.Annotate(ev)
		}
	}
	out.Elapsed = time.Since(began)
	st.observeQuery(q.Enrich && ann != nil, out.Elapsed)
	return out
}

// QuerySeq answers the same query as Query, but as an iterator: events
// stream one at a time in append (closing) order without materializing
// the result set. Enrichment is the consumer's concern here: annotate
// yielded events with Annotator.Annotate as they stream.
func (st *Store) QuerySeq(q Query) iter.Seq[*Event] {
	st.observeQuery(false, streamed)
	return st.s.QuerySeq(q.filter())
}

// ---------------------------------------------------------------------
// Store-backed tables and figures: the paper's evaluation directly from
// the persisted events, no replay.

// Figure4 computes the daily longitudinal series from the store. When
// start is aligned to a UTC midnight the store's materialized per-day
// aggregate view answers in O(days) — no event scan; otherwise it
// falls back to the one-pass scan. Both paths produce identical
// numbers (the alignment is exactly what makes scan day-bucketing
// coincide with calendar-day overlap).
func (st *Store) Figure4(start time.Time, days int) []DailyPoint {
	series, _ := st.figure4(context.Background(), start, days) // only a cancelled scan fails
	return series
}

// figure4 is Figure4 under ctx: a scan stops with ctx.Err() once ctx is
// cancelled.
func (st *Store) figure4(ctx context.Context, start time.Time, days int) ([]DailyPoint, error) {
	if counts, ok := st.s.DailyCounts(start, days); ok {
		out := make([]DailyPoint, days)
		for d := range out {
			out[d] = DailyPoint{
				Day:       start.Add(time.Duration(d) * 24 * time.Hour),
				Providers: counts[d].Providers,
				Users:     counts[d].Users,
				Prefixes:  counts[d].Prefixes,
			}
		}
		return out, nil
	}
	u := analysis.NewFigure4Union(start, days)
	if err := st.scan(ctx, Query{}, u.Observe); err != nil {
		return nil, err
	}
	return u.Finalize(), nil
}

// scan is the store's one aggregate walk: observe sees every event
// matching q, in append order, and the walk stops with ctx.Err() once
// ctx is cancelled. It counts no query; its callers do.
func (st *Store) scan(ctx context.Context, q Query, observe func(*Event)) error {
	done := ctx.Done()
	for ev := range st.s.QuerySeq(q.filter()) {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		observe(ev)
	}
	return nil
}

// Figure8 computes the raw and grouped duration distributions from the
// store, under ctx.
func (st *Store) Figure8(ctx context.Context, timeout time.Duration) (ungrouped, grouped []time.Duration, err error) {
	var events []*Event
	if err := st.scan(ctx, Query{}, func(ev *Event) { events = append(events, ev) }); err != nil {
		return nil, nil, err
	}
	ungrouped, grouped = analysis.Figure8(events, timeout)
	return ungrouped, grouped, nil
}

// Table3FromStore computes the blackhole visibility overview (Table 3)
// from persisted events, under ctx.
func (p *Pipeline) Table3FromStore(ctx context.Context, st *Store) ([]Table3Row, error) {
	t := analysis.NewTable3Partial(p.Deploy)
	if err := st.scan(ctx, Query{}, t.Observe); err != nil {
		return nil, err
	}
	return t.Finalize(), nil
}

// Table4FromStore computes visibility by provider type (Table 4) from
// persisted events, under ctx.
func (p *Pipeline) Table4FromStore(ctx context.Context, st *Store) ([]Table4Row, error) {
	t := analysis.NewTable4Partial(p.Topo, p.Deploy)
	if err := st.scan(ctx, Query{}, t.Observe); err != nil {
		return nil, err
	}
	return t.Finalize(), nil
}

// ---------------------------------------------------------------------
// Wire representation: the JSON shape served by the HTTP API and
// consumed by bhquery.

// EventRecord is the JSON-friendly projection of an Event: its sets
// become lists (the string ones in string order), providers render in
// their canonical "AS123" / "ixp:4" notation.
type EventRecord struct {
	Prefix          string    `json:"prefix"`
	Start           time.Time `json:"start"`
	End             time.Time `json:"end"`
	DurationSeconds float64   `json:"duration_seconds"`
	StartUnknown    bool      `json:"start_unknown,omitempty"`
	Providers       []string  `json:"providers,omitempty"`
	Users           []uint32  `json:"users,omitempty"`
	Communities     []string  `json:"communities,omitempty"`
	Platforms       []string  `json:"platforms,omitempty"`
	Peers           int       `json:"peers"`
	Detections      int       `json:"detections"`
	DirectFeed      bool      `json:"direct_feed,omitempty"`
	SawNoExport     bool      `json:"saw_no_export,omitempty"`

	// Seq is the event's global closing sequence number (Event.Seq),
	// the total-order key federated queries merge shard streams on.
	// Zero (and absent on the wire) for events written before seq
	// stamping or built by hand.
	Seq uint64 `json:"seq,omitempty"`

	// Legitimacy enrichment (query-time, opt-in): absent unless the
	// record was built with an annotation (newEventRecordEnriched /
	// enrich=1), so un-enriched responses are byte-identical to the
	// pre-enrichment wire format.
	RPKI              []OriginValidity `json:"rpki,omitempty"`
	CommunityDoc      []CommunityDoc   `json:"community_doc,omitempty"`
	Legitimacy        string           `json:"legitimacy,omitempty"`
	LegitimacyReasons []string         `json:"legitimacy_reasons,omitempty"`
}

// NewEventRecord projects an event into its wire representation.
func NewEventRecord(ev *Event) EventRecord {
	r := EventRecord{
		Prefix:          ev.Prefix.String(),
		Start:           ev.Start.UTC(),
		End:             ev.End.UTC(),
		DurationSeconds: ev.Duration().Seconds(),
		StartUnknown:    ev.StartUnknown,
		Providers:       wireStrings(ev.Providers),
		Communities:     wireStrings(ev.Communities),
		Platforms:       wireStrings(ev.Platforms),
		Peers:           len(ev.Peers),
		Detections:      ev.Detections,
		DirectFeed:      ev.DirectFeed,
		SawNoExport:     ev.SawNoExport,
		Seq:             ev.Seq,
	}
	for _, u := range ev.Users {
		r.Users = append(r.Users, uint32(u))
	}
	return r
}

// wireStrings renders a set's members in the order of the wire's string
// lists (see appendSortedStrings).
func wireStrings[T fmt.Stringer](set []T) []string {
	var out []string
	for _, m := range set {
		out = append(out, m.String())
	}
	sort.Strings(out)
	return out
}

// newEventRecordEnriched projects an event with its legitimacy
// annotation attached: the rpki, community_doc, legitimacy and
// legitimacy_reasons fields appear on the wire.
func newEventRecordEnriched(ev *Event, ann Annotation) EventRecord {
	r := NewEventRecord(ev)
	r.RPKI = ann.RPKI
	r.CommunityDoc = ann.Communities
	r.Legitimacy = ann.Legitimacy
	r.LegitimacyReasons = ann.Reasons
	return r
}

// AppendRecordLine appends ev's record line — the bytes a store serves
// for it on /events?format=ndjson, without the newline — to dst.
func AppendRecordLine(dst []byte, ev *Event) ([]byte, error) {
	dst, _, err := appendEventLine(dst, ev, Annotation{})
	return dst, err
}

// appendEventLine is the one project → encode step of the read path: it
// appends ev's record line (no trailing newline) to dst, with ann's
// fields when ann is not the zero Annotation, and returns the line's
// merge key. The line is byte for byte json.Marshal(
// newEventRecordEnriched(ev, ann)) — field order, the omitempty rules,
// number formats — written straight from the event: no record, no
// reflection, and one allocation, the key's prefix. What json.Marshal
// formats specially or refuses (a year outside [0,9999], a duration
// outside [1e-6, 1e21) or not finite, a string that needs escaping) is
// handed to it, so those bytes and errors are the library's own.
// TestRecordLineMatchesJSON fails when EventRecord or an enrichment
// struct changes shape under this function. Nothing about ev is kept:
// an event the store erases is held by no read-path state.
func appendEventLine(dst []byte, ev *Event, ann Annotation) ([]byte, RecordKey, error) {
	mark := len(dst)
	dst = append(dst, `{"prefix":"`...)
	at := len(dst)
	if dst = ev.Prefix.AppendTo(dst); !ev.Prefix.IsValid() {
		dst = append(dst[:at], "invalid Prefix"...) // Prefix.String's word for the zero Prefix too, where AppendTo has none
	}
	key := RecordKey{End: ev.End.UnixNano(), Seq: ev.Seq, Start: ev.Start.UnixNano(), Prefix: string(dst[at:])}
	b, err := appendStamp(append(dst, `","start":"`...), ev.Start)
	if err == nil {
		b, err = appendStamp(append(b, `","end":"`...), ev.End)
	}
	span := ev.Duration()
	if abs := math.Abs(span.Seconds()); err != nil || !(abs == 0 || abs >= 1e-6 && abs < 1e21) {
		b, err = json.Marshal(newEventRecordEnriched(ev, ann))
		return append(dst[:mark], b...), key, err
	}
	if dst = append(b, `","duration_seconds":`...); span%time.Second == 0 {
		dst = strconv.AppendInt(dst, int64(span/time.Second), 10) // what AppendFloat writes for a whole number below 2^53
	} else {
		dst = strconv.AppendFloat(dst, span.Seconds(), 'f', -1, 64)
	}
	if ev.StartUnknown {
		dst = append(dst, `,"start_unknown":true`...)
	}
	dst = appendSortedStrings(dst, `,"providers":[`, ev.Providers, ProviderRef.TextLess)
	if len(ev.Users) > 0 {
		dst = append(dst, `,"users":[`...)
		for _, u := range ev.Users {
			dst = append(strconv.AppendUint(dst, uint64(u), 10), ',')
		}
		dst[len(dst)-1] = ']' // over the last element's comma
	}
	dst = appendSortedStrings(dst, `,"communities":[`, ev.Communities, Community.TextLess)
	dst = appendSortedStrings(dst, `,"platforms":[`, ev.Platforms, Platform.TextLess)
	dst = strconv.AppendInt(append(dst, `,"peers":`...), int64(len(ev.Peers)), 10)
	dst = strconv.AppendInt(append(dst, `,"detections":`...), int64(ev.Detections), 10)
	if ev.DirectFeed {
		dst = append(dst, `,"direct_feed":true`...)
	}
	if ev.SawNoExport {
		dst = append(dst, `,"saw_no_export":true`...)
	}
	if ev.Seq != 0 {
		dst = strconv.AppendUint(append(dst, `,"seq":`...), ev.Seq, 10)
	}
	if len(ann.RPKI) > 0 {
		dst = append(dst, `,"rpki":[`...)
		for _, v := range ann.RPKI {
			dst = strconv.AppendUint(append(dst, `{"origin":`...), uint64(v.Origin), 10)
			dst = append(appendJSONString(append(dst, `,"state":`...), v.State), '}', ',')
		}
		dst[len(dst)-1] = ']'
	}
	if len(ann.Communities) > 0 {
		dst = append(dst, `,"community_doc":[`...)
		for _, c := range ann.Communities {
			dst = appendJSONString(append(dst, `{"community":`...), c.Community)
			dst = appendJSONString(append(dst, `,"doc":`...), c.Doc)
			if c.MaxPrefixLen != 0 {
				dst = strconv.AppendInt(append(dst, `,"max_prefix_len":`...), int64(c.MaxPrefixLen), 10)
			}
			dst = strconv.AppendBool(append(dst, `,"within_max_len":`...), c.WithinMaxLen)
			dst = append(dst, '}', ',')
		}
		dst[len(dst)-1] = ']'
	}
	if ann.Legitimacy != "" {
		dst = appendJSONString(append(dst, `,"legitimacy":`...), ann.Legitimacy)
	}
	if len(ann.Reasons) > 0 {
		dst = append(dst, `,"legitimacy_reasons":[`...)
		for _, s := range ann.Reasons {
			dst = append(appendJSONString(dst, s), ',')
		}
		dst[len(dst)-1] = ']'
	}
	return append(dst, '}'), key, nil
}

// layoutKey reads the key of a line laid out as appendEventLine writes
// it with no enrichment: member names in the writer's order, plain
// strings, JSON numbers, RFC 3339 UTC times, no space, nothing after the
// close. Such a line is valid JSON naming each key field once, so its key
// is scanLineKey's. On any other byte it gives up, and the line is the
// general scan's: an enriched line is, at once, for it alone ends with a
// list or a string.
func layoutKey(b []byte) (key RecordKey, ok bool) {
	if n := len(b); n < 2 || b[n-2] == ']' || b[n-2] == '"' {
		return RecordKey{}, false
	}
	r := layout{b: b, ok: true}
	prefix := r.str(`{"prefix":`)
	key.Start = r.stamp(`,"start":`)
	key.End = r.stamp(`,"end":`)
	r.num(`,"duration_seconds":`)
	r.opt(`,"start_unknown":true`)
	r.list(`,"providers":[`, 's')
	r.list(`,"users":[`, 'n')
	r.list(`,"communities":[`, 's')
	r.list(`,"platforms":[`, 's')
	r.num(`,"peers":`)
	r.num(`,"detections":`)
	r.opt(`,"direct_feed":true`)
	r.opt(`,"saw_no_export":true`)
	if r.opt(`,"seq":`) { // what both ParseUint and JSON read: 0, or up to 19 digits and no leading zero
		end := skipDigits(b, r.i)
		r.ok = r.ok && end > r.i && end-r.i <= 19 && (b[r.i] != '0' || end == r.i+1)
		key.Seq, r.i = digits(b[r.i:end]), end
	}
	if !r.lit("}") || r.i != len(b) {
		return RecordKey{}, false
	}
	key.Prefix = string(prefix)
	return key, true
}

// layout is layoutKey's cursor: each read moves i past what it matched,
// or clears ok, after which every read is a no-op. A value's read takes
// the literal before it: the member's name, or "" for a list element.
type layout struct {
	b  []byte
	i  int
	ok bool
}

// lit reads s, which the line must have next, and reports r.ok.
func (r *layout) lit(s string) bool {
	r.ok = r.opt(s)
	return r.ok
}

// opt reads s if the line has it next, and reports whether it did.
func (r *layout) opt(s string) bool {
	if b := r.b[r.i:]; !r.ok || len(b) < len(s) || string(b[:len(s)]) != s {
		return false
	}
	r.i += len(s)
	return true
}

// str reads name and a plain string (skipString's), and returns the
// bytes between its quotes.
func (r *layout) str(name string) (s []byte) {
	end, plain := skipString(r.b, r.i+len(name))
	if r.ok = r.lit(name) && plain; r.ok {
		s, r.i = r.b[r.i+1:end-1], end
	}
	return s
}

// num reads name and a JSON number.
func (r *layout) num(name string) {
	end := -1
	if r.lit(name) && r.i < len(r.b) && (r.b[r.i] == '-' || '0' <= r.b[r.i] && r.b[r.i] <= '9') {
		end = skipScalar(r.b, r.i)
	}
	r.i, r.ok = max(end, r.i), end >= 0
}

// list reads an optional member whose opener is open: a non-empty list
// of plain strings ('s') or of numbers ('n').
func (r *layout) list(open string, kind byte) {
	for more := r.opt(open); more; more = !r.opt("]") && r.lit(",") {
		if kind == 'n' {
			r.num("")
		} else {
			r.str("")
		}
	}
}

// stamp reads name and a time written as "YYYY-MM-DDTHH:MM:SS[.F]Z",
// its fields in time.Parse's ranges — the day within its month's length,
// the leap day in leap years only — and F read to the nanosecond as
// time.Parse reads it, and returns its UnixNano: the instant
// Time.UnmarshalJSON reads.
func (r *layout) stamp(name string) int64 {
	s := r.b[min(r.i+len(name), len(r.b)):]
	z, ns := 20, uint64(0) // z: the index of the 'Z'
	if len(s) > 21 && s[20] == '.' {
		// a fraction, of which time.Parse reads nine digits
		z = skipDigits(s, 21)
		ns = digits(s[21:min(z, 30)])
		for k := z; k < 30; k++ {
			ns *= 10
		}
	}
	if !r.lit(name) || z == 21 || len(s) < z+2 || s[0] != '"' || s[5] != '-' || s[8] != '-' || s[11] != 'T' ||
		s[14] != ':' || s[17] != ':' || s[z] != 'Z' || s[z+1] != '"' {
		r.ok = false
		return 0
	}
	y, mo, d := digits(s[1:5]), digits(s[6:8]), digits(s[9:11])
	h, mi, sec := digits(s[12:14]), digits(s[15:17]), digits(s[18:20])
	if y > 9999 || mo-1 > 11 || d == 0 || d > monthDays(y, mo) || h > 23 || mi > 59 || sec > 59 {
		r.ok = false
		return 0
	}
	r.i += z + 2
	// days from civil, on 400-year eras counted from -0400-03-01 so that
	// every year here is past the first; 865565 days later is 1970-01-01
	yy, m := int64(y)+399+int64(mo+9)/12, int64(mo+9)%12 // m: months since March
	days := yy/400*146097 + yy%400*365 + yy%400/4 - yy%400/100 + (153*m+2)/5 + int64(d) - 1 - 865565
	return (days*86400+int64(h*3600+mi*60+sec))*1e9 + int64(ns) // wraps as Time.UnixNano does
}

// monthDays is the length of month mo (1–12) of year y.
func monthDays(y, mo uint64) uint64 {
	if mo == 2 && y%4 == 0 && (y%100 != 0 || y%400 == 0) {
		return 29
	}
	return uint64([12]uint8{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}[mo-1])
}

// digits is the decimal value of s, or a value past every field's range
// if s holds a non-digit.
func digits(s []byte) (v uint64) {
	for _, c := range s {
		if c -= '0'; c > 9 {
			return 1 << 16
		}
		v = v*10 + uint64(c)
	}
	return v
}

// appendSortedStrings appends an omitempty string-list field — open is
// its `,"name":[` opener — listing set's members in the byte order of
// their text ("AS10" before "AS9"), which less, the type's TextLess,
// tells from the values: the event holds them in numeric order. They are
// the system's own renderings of numbers and platform names — nothing
// JSON escapes.
func appendSortedStrings[T interface{ AppendTo([]byte) []byte }](dst []byte, open string, set []T, less func(T, T) bool) []byte {
	if len(set) == 0 {
		return dst
	}
	var buf [32]T
	sorted := append(buf[:0], set...)
	for i := 1; i < len(sorted); i++ { // an insertion sort: the lists are a handful long
		for j := i; j > 0 && less(sorted[j], sorted[j-1]); j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	dst = append(dst, open...)
	for _, m := range sorted {
		dst = append(m.AppendTo(append(dst, '"')), '"', ',')
	}
	dst[len(dst)-1] = ']'
	return dst
}

// appendStamp appends t as Time.AppendText writes it in UTC, and its
// error. A whole second from 1970 to 9999 is written from Unix() by
// civil-from-days arithmetic (H. Hinnant's, on 400-year eras counted
// from 0000-03-01); any other instant is the library's.
func appendStamp(dst []byte, t time.Time) ([]byte, error) {
	secs := t.Unix()
	if t.Nanosecond() != 0 || secs < 0 || secs > 253402300799 { // 9999-12-31T23:59:59Z
		return t.UTC().AppendText(dst)
	}
	day, hms := secs/86400+719468, secs%86400 // days since 0000-03-01, seconds into the day
	era, doe := day/146097, day%146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153 // months since March
	d, m, y := doy-(153*mp+2)/5+1, (mp+2)%12+1, era*400+yoe+(mp+2)/12
	return append(dst, byte('0'+y/1000), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10), '-',
		byte('0'+m/10), byte('0'+m%10), '-', byte('0'+d/10), byte('0'+d%10), 'T',
		byte('0'+hms/36000), byte('0'+hms/3600%10), ':', byte('0'+hms/600%6), byte('0'+hms/60%10), ':',
		byte('0'+hms/10%6), byte('0'+hms%10), 'Z'), nil
}

// appendJSONString appends s as a JSON string. Every string the system
// renders (prefixes, "AS3356", "3356:666", platform and verdict names)
// is ASCII that encoding/json copies between quotes; anything it would
// escape — quotes, backslashes, control bytes, < > &, non-ASCII — is
// left to it.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// ParseCompactionPolicy parses a compaction policy spec, the format
// cmd/bhserve's -compact-policy flag and bhquery's admin verbs use:
//
//	merge-all (or all)     seal-and-dedupe: seal the active segment, merge
//	                       every segment per partition, drop superseded
//	                       flush duplicates
//	tiered                 steady state: size-ratio 4, runs of 4, 30-day
//	                       partitions; settled segments are never rewritten
//	tiered,partition=60d,ratio=3,min-run=2
//
// The tiered options: partition is a Go duration ("720h") or a day
// count ("30d", 0 disables time partitioning), ratio bounds a run's
// largest-to-smallest segment size, min-run is the run length that
// triggers a merge.
func ParseCompactionPolicy(s string) (CompactionPolicy, error) {
	parts := strings.Split(strings.TrimSpace(s), ",")
	switch parts[0] {
	case "", "all", "merge-all":
		if len(parts) > 1 {
			return CompactionPolicy{}, fmt.Errorf("policy %q takes no options", parts[0])
		}
		return CompactionPolicy{MergeAll: true}, nil
	case "tiered":
	default:
		return CompactionPolicy{}, fmt.Errorf("bad compaction policy %q (want merge-all or tiered[,partition=30d,ratio=4,min-run=4])", s)
	}
	pol := CompactionPolicy{Partition: 30 * 24 * time.Hour, SizeRatio: 4, MinRun: 4}
	for _, opt := range parts[1:] {
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return CompactionPolicy{}, fmt.Errorf("bad policy option %q (want key=value)", opt)
		}
		switch k {
		case "partition":
			d, err := parseDaysOrDuration(v)
			if err != nil || d < 0 {
				return CompactionPolicy{}, fmt.Errorf("bad partition %q (want a duration like 720h or 30d)", v)
			}
			pol.Partition = d
		case "ratio":
			r, err := strconv.ParseFloat(v, 64)
			if err != nil || r <= 1 {
				return CompactionPolicy{}, fmt.Errorf("bad ratio %q (want > 1)", v)
			}
			pol.SizeRatio = r
		case "min-run":
			n, err := strconv.Atoi(v)
			if err != nil || n < 2 {
				return CompactionPolicy{}, fmt.Errorf("bad min-run %q (want >= 2)", v)
			}
			pol.MinRun = n
		default:
			return CompactionPolicy{}, fmt.Errorf("unknown policy option %q (want partition, ratio or min-run)", k)
		}
	}
	return pol, nil
}

// ParseSyncPolicy parses a group-commit fsync policy spec, the format
// cmd/bhserve's -sync-policy flag uses:
//
//	close                 sync only at seal, explicit Sync and Close
//	                      (the zero value — fastest, crash loses the
//	                      whole unsynced segment tail)
//	always                fsync after every append batch ({EveryN: 1})
//	group                 every 1000 records or 200ms, whichever first
//	group,every=500,interval=100ms
//
// The group options: every is a record count (0 disables the count
// trigger), interval a Go duration (0 disables the deadline).
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	parts := strings.Split(strings.TrimSpace(s), ",")
	switch parts[0] {
	case "", "close":
		if len(parts) > 1 {
			return SyncPolicy{}, fmt.Errorf("policy %q takes no options", parts[0])
		}
		return SyncPolicy{}, nil
	case "always":
		if len(parts) > 1 {
			return SyncPolicy{}, fmt.Errorf("policy %q takes no options", parts[0])
		}
		return SyncPolicy{EveryN: 1}, nil
	case "group":
	default:
		return SyncPolicy{}, fmt.Errorf("bad sync policy %q (want close, always or group[,every=1000,interval=200ms])", s)
	}
	pol := SyncPolicy{EveryN: 1000, Interval: 200 * time.Millisecond}
	for _, opt := range parts[1:] {
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return SyncPolicy{}, fmt.Errorf("bad policy option %q (want key=value)", opt)
		}
		switch k {
		case "every":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return SyncPolicy{}, fmt.Errorf("bad every %q (want a record count)", v)
			}
			pol.EveryN = n
		case "interval":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return SyncPolicy{}, fmt.Errorf("bad interval %q (want a duration like 200ms)", v)
			}
			pol.Interval = d
		default:
			return SyncPolicy{}, fmt.Errorf("unknown policy option %q (want every or interval)", k)
		}
	}
	if pol.EveryN == 0 && pol.Interval == 0 {
		return SyncPolicy{}, fmt.Errorf("sync policy %q disables both triggers; use close instead", s)
	}
	return pol, nil
}

// parseDaysOrDuration accepts "30d" day counts alongside Go durations.
func parseDaysOrDuration(s string) (time.Duration, error) {
	if days, ok := strings.CutSuffix(s, "d"); ok {
		n, err := strconv.Atoi(days)
		if err != nil {
			return 0, err
		}
		return time.Duration(n) * 24 * time.Hour, nil
	}
	return time.ParseDuration(s)
}

// ---------------------------------------------------------------------
// The Query ⇄ URL codec: ParseQuery reads the /events parameter set,
// queryParams writes it, both by walking queryFields.

// queryFields has a row per /events filter parameter, one for each Query
// field: the parameter's name, the reader that sets the field from its
// text, and the printer that renders the field back, "" when it is unset.
// ParseQuery(queryParams(q)) == q holds row by row — a router forwards
// exactly the query it was asked. Times print with their sub-second part:
// a filter boundary must not move on its way to a remote shard.
var queryFields = []struct {
	name  string
	read  func(q *Query, s string) error
	print func(q *Query) string
}{
	{"from", func(q *Query, s string) (err error) { q.From, err = time.Parse(time.RFC3339, s); return err },
		func(q *Query) string { return timeText(q.From) }},
	{"to", func(q *Query, s string) (err error) { q.To, err = time.Parse(time.RFC3339, s); return err },
		func(q *Query) string { return timeText(q.To) }},
	{"prefix", func(q *Query, s string) (err error) { q.Prefix, err = store.ParsePrefix(s); return err },
		func(q *Query) string { return textIf(q.Prefix.IsValid(), q.Prefix) }},
	{"mode", func(q *Query, s string) (err error) { q.Mode, err = store.ParsePrefixMode(s); return err },
		func(q *Query) string { return textIf(q.Mode != PrefixExact, q.Mode) }},
	{"origin", func(q *Query, s string) error {
		asn, err := strconv.ParseUint(s, 10, 32)
		q.OriginASN = ASN(asn)
		return err
	}, func(q *Query) string { return textIf(q.OriginASN != 0, q.OriginASN) }},
	{"provider", func(q *Query, s string) error {
		pr, err := core.ParseProviderRef(s)
		q.Provider = &pr
		return err
	}, func(q *Query) string { return textIf(q.Provider != nil, q.Provider) }},
	{"community", func(q *Query, s string) (err error) { q.Community, err = bgp.ParseCommunity(s); return err },
		func(q *Query) string { return textIf(q.Community != 0, q.Community) }},
	{"min_duration", func(q *Query, s string) (err error) { q.MinDuration, err = durationBound(s); return err },
		func(q *Query) string { return textIf(q.MinDuration > 0, q.MinDuration) }},
	{"max_duration", func(q *Query, s string) (err error) { q.MaxDuration, err = durationBound(s); return err },
		func(q *Query) string { return textIf(q.MaxDuration > 0, q.MaxDuration) }},
	{"limit", func(q *Query, s string) (err error) {
		if q.Limit, err = strconv.Atoi(s); err != nil || q.Limit < 0 {
			return fmt.Errorf("bad value %q", s)
		}
		return nil
	}, func(q *Query) string { return textIf(q.Limit > 0, q.Limit) }},
	{"enrich", func(q *Query, s string) (err error) {
		if q.Enrich, err = strconv.ParseBool(s); err != nil {
			return fmt.Errorf("bad value %q", s)
		}
		return nil
	}, func(q *Query) string { return textIf(q.Enrich, 1) }},
}

// ParseQuery reads a Query from the /events filter parameters (from, to,
// prefix, mode, origin, provider, community, min_duration, max_duration,
// limit, enrich) and ignores any other; an empty one is unset. Its error
// names the parameter. It is the one reader of a Query from text: the
// HTTP API's and bhquery's.
func ParseQuery(v url.Values) (Query, error) {
	var q Query
	for _, f := range queryFields {
		if s := v.Get(f.name); s != "" {
			if err := f.read(&q, s); err != nil {
				return Query{}, fmt.Errorf("%s: %v", f.name, err)
			}
		}
	}
	return q, nil
}

// queryParams renders a Query as the /events parameter set.
func queryParams(q Query) url.Values {
	params := url.Values{}
	for _, f := range queryFields {
		if s := f.print(&q); s != "" {
			params.Set(f.name, s)
		}
	}
	return params
}

// textIf is a printer's text: v's, when its field is set.
func textIf[T any](set bool, v T) string {
	if !set {
		return ""
	}
	return fmt.Sprint(v)
}

// timeText prints a time bound, "" for the zero time.
func timeText(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.Format(time.RFC3339Nano)
}

// durationBound reads a duration bound, which may not be negative.
func durationBound(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err == nil && d < 0 {
		err = fmt.Errorf("negative duration %q", s)
	}
	return d, err
}
