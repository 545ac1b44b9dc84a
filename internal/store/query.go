package store

import (
	"fmt"
	"iter"
	"net/netip"
	"slices"
	"strings"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/core"
)

// PrefixMode selects how Filter.Prefix matches stored event prefixes.
type PrefixMode int

const (
	// PrefixExact matches events for exactly the query prefix.
	PrefixExact PrefixMode = iota
	// PrefixLPM matches events for the longest stored prefix containing
	// the query prefix (a point lookup: "who blackholes this address").
	// An alert rule sees one event at a time, with no stored set to pick
	// the longest from: there lpm fires when the event's prefix contains
	// one of the rule's prefixes, a covering aggregate included.
	PrefixLPM
	// PrefixCovered matches events for every stored prefix inside the
	// query prefix ("all blackholed more-specifics of this /16").
	PrefixCovered
	// PrefixCovering matches events for every stored prefix containing
	// the query prefix (the whole chain of covering aggregates).
	PrefixCovering
)

var prefixModeNames = [...]string{"exact", "lpm", "covered", "covering"}

// String is the mode's name — in the query parameter and the alert rule
// syntax alike — or mode(N) for a value that is no mode.
func (m PrefixMode) String() string {
	if m >= 0 && int(m) < len(prefixModeNames) {
		return prefixModeNames[m]
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParsePrefixMode reads a mode's name in any case; "" is exact.
func ParsePrefixMode(s string) (PrefixMode, error) {
	if s == "" {
		return PrefixExact, nil
	}
	if i := slices.Index(prefixModeNames[:], strings.ToLower(s)); i >= 0 {
		return PrefixMode(i), nil
	}
	return PrefixExact, fmt.Errorf("bad prefix mode %q (want exact, lpm, covered or covering)", s)
}

// ParsePrefix reads a prefix, or a bare address as its host prefix (the
// point-lookup shape).
func ParsePrefix(s string) (netip.Prefix, error) {
	if p, err := netip.ParsePrefix(s); err == nil {
		return p, nil
	}
	a, err := netip.ParseAddr(s)
	if err != nil {
		return netip.Prefix{}, fmt.Errorf("bad prefix %q", s)
	}
	return netip.PrefixFrom(a, a.BitLen()), nil
}

// Filter selects events. Zero-valued fields don't constrain; the time
// range matches events whose [Start, End] span overlaps [From, To].
type Filter struct {
	// From / To bound the event span (inclusive overlap). A zero To
	// means "no upper bound", a zero From "no lower bound".
	From, To time.Time
	// Prefix, when valid, constrains by prefix under Mode.
	Prefix netip.Prefix
	Mode   PrefixMode
	// User matches events whose inferred blackholing users include this
	// ASN — the paper's per-origin slicing. Zero means any.
	User bgp.ASN
	// Provider, when non-nil, matches events inferring this provider.
	Provider *core.ProviderRef
	// Community, when non-zero, matches events that carried this
	// dictionary community.
	Community bgp.Community
	// MinDuration / MaxDuration bound the event duration (Max zero
	// means unbounded). Dump-seeded events (StartUnknown) participate
	// with their observed span.
	MinDuration, MaxDuration time.Duration
	// Limit caps the returned events (0 = unlimited). Total still
	// counts every match.
	Limit int
}

// Result is a query's outcome.
type Result struct {
	// Events are the matches, in append (closing) order.
	Events []*core.Event
	// Total counts all matches, ignoring Limit.
	Total int
	// Scanned counts the candidate events examined — the size of the
	// narrowest index posting set consulted, not the store size.
	Scanned int
}

// Query runs a filter against the in-memory indexes. The narrowest
// applicable index (prefix trie, then user / provider / community
// postings, then time buckets) supplies the candidate set; remaining
// filters verify each candidate. No raw BGP data is touched. Query is
// the read walk folded into a Result: the read lock is held only while
// the walk takes its snapshot, never while it matches, so a long query
// holds up no append — and no query queued behind that append.
func (s *Store) Query(f Filter) Result {
	c := s.walk(f)
	res := Result{Scanned: c.scanned}
	c.each(func(ev *core.Event) bool {
		res.Total++
		if f.Limit <= 0 || len(res.Events) < f.Limit {
			res.Events = append(res.Events, ev)
		}
		return true
	})
	return res
}

// QuerySeq answers the same filter as Query, but as an iterator: events
// are yielded one at a time, in append (closing) order, without ever
// materializing the full result set — the HTTP layer's NDJSON streaming
// drains it incrementally, so an uncapped query over a production-scale
// store stays O(1) in memory. It is the read walk cut at Limit: the
// snapshot is taken when QuerySeq is called, so a slow consumer never
// blocks appends and sees none of them. Total/Scanned accounting is
// Query's job.
func (s *Store) QuerySeq(f Filter) iter.Seq[*core.Event] {
	c := s.walk(f)
	return func(yield func(*core.Event) bool) {
		yielded := 0
		c.each(func(ev *core.Event) bool {
			yielded++
			return yield(ev) && (c.f.Limit <= 0 || yielded < c.f.Limit)
		})
	}
}

// cursor is the store's one read walk over a filter: the slots and the
// candidate ordinals as they stood under the read lock (Store.walk),
// matched without it (each). Both are the cursor's own — the slots are
// copy-on-write and the candidates a copy — so appends, erasures,
// hydrations and compactions after the snapshot do not reach it.
type cursor struct {
	f       Filter
	slots   []slot
	ords    []int32 // the candidates, when an index applies
	all     bool    // no index applies: every slot is a candidate
	scanned int
}

// walk takes a cursor's snapshot: it hydrates what the filter can touch,
// then, under the read lock, the slots, the candidates and the count of
// live events they stand for.
func (s *Store) walk(f Filter) cursor {
	s.ensureHydrated(f)
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := cursor{f: f, slots: s.snapshot().slots}
	if c.ords, c.all = s.candidates(f); c.all {
		c.scanned = s.live
	} else {
		c.scanned = len(c.ords)
	}
	return c
}

// each yields the cursor's matches in append order until yield returns
// false. A nil slot is a dead event (tombstoned or superseded); index
// postings no longer reference those, but the full scan walks every
// ordinal.
func (c *cursor) each(yield func(*core.Event) bool) {
	n := len(c.ords)
	if c.all {
		n = len(c.slots)
	}
	for i := range n {
		ord := i
		if !c.all {
			ord = int(c.ords[i])
		}
		if ev := c.slots[ord].ev; ev != nil && matches(ev, c.f) && !yield(ev) {
			return
		}
	}
}

// candidates picks the narrowest index posting set for the filter, as a
// list of its own: a cursor reads its candidates without the lock, and
// hydration inserts ordinals into postings lists in place. all is true
// when no index applies (full scan).
func (s *Store) candidates(f Filter) (ords []int32, all bool) {
	switch {
	case f.Prefix.IsValid():
		return s.prefixCandidates(f), false
	case f.User != 0:
		return slices.Clone(s.byUser[f.User]), false
	case f.Provider != nil:
		return slices.Clone(s.byProvider[*f.Provider]), false
	case f.Community != 0:
		return slices.Clone(s.byCommunity[f.Community]), false
	case !f.From.IsZero() || !f.To.IsZero():
		return s.timeCandidates(f), false
	}
	return nil, true
}

// prefixCandidates resolves the prefix constraint through the trie and
// returns the union of the matched postings, in ordinal order.
func (s *Store) prefixCandidates(f Filter) []int32 {
	var lists [][]int32
	switch f.Mode {
	case PrefixExact:
		return slices.Clone(s.trie.Exact(f.Prefix))
	case PrefixLPM:
		_, ords, _ := s.trie.LPM(f.Prefix)
		return slices.Clone(ords)
	case PrefixCovered:
		for _, m := range s.trie.Covered(f.Prefix) {
			lists = append(lists, m.Ords)
		}
	case PrefixCovering:
		for _, m := range s.trie.Covering(f.Prefix) {
			lists = append(lists, m.Ords)
		}
	}
	return mergeOrds(lists)
}

// timeCandidates unions the day buckets overlapping [From, To].
func (s *Store) timeCandidates(f Filter) []int32 {
	from, to := s.dayWindow(f)
	var lists [][]int32
	for d := from; d <= to; d++ {
		if ords := s.byDay[d]; len(ords) > 0 {
			lists = append(lists, ords)
		}
	}
	return mergeOrds(lists)
}

// dayWindow is the filter's [From, To] in unix days, an open side
// bounded by the store's own span: empty (from > to) when there is none.
func (s *Store) dayWindow(f Filter) (from, to int64) {
	lo, hi := f.From, f.To
	if lo.IsZero() {
		lo = s.minStart
	}
	if hi.IsZero() {
		hi = s.maxEnd
	}
	if lo.IsZero() || hi.IsZero() || hi.Before(lo) {
		return 1, 0
	}
	return unixDay(lo), unixDay(hi)
}

// mergeOrds unions sorted postings lists into one new sorted,
// deduplicated list.
func mergeOrds(lists [][]int32) []int32 {
	out := slices.Concat(lists...)
	if len(lists) > 1 {
		slices.Sort(out)
		out = slices.Compact(out)
	}
	return out
}

// matches applies every filter dimension to one event.
func matches(ev *core.Event, f Filter) bool {
	if !f.From.IsZero() && ev.End.Before(f.From) {
		return false
	}
	if !f.To.IsZero() && ev.Start.After(f.To) {
		return false
	}
	if f.Prefix.IsValid() && !prefixMatches(ev.Prefix, f) {
		return false
	}
	if f.User != 0 && !slices.Contains(ev.Users, f.User) {
		return false
	}
	if f.Provider != nil && !slices.Contains(ev.Providers, *f.Provider) {
		return false
	}
	if f.Community != 0 && !slices.Contains(ev.Communities, f.Community) {
		return false
	}
	if f.MinDuration > 0 && ev.Duration() < f.MinDuration {
		return false
	}
	if f.MaxDuration > 0 && ev.Duration() > f.MaxDuration {
		return false
	}
	return true
}

// prefixMatches re-verifies the prefix constraint on one event (the
// trie's candidate set is authoritative, but verification keeps Query
// correct even over a full scan).
func prefixMatches(got netip.Prefix, f Filter) bool {
	q := f.Prefix.Masked()
	got = got.Masked()
	switch f.Mode {
	case PrefixExact:
		return got == q
	case PrefixLPM, PrefixCovering:
		// An LPM candidate set is already narrowed to the longest match;
		// verification accepts any stored prefix containing q.
		return got.Bits() <= q.Bits() && got.Contains(q.Addr())
	case PrefixCovered:
		return got.Bits() >= q.Bits() && q.Contains(got.Addr())
	}
	return false
}
