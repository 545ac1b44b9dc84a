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
// filters verify each candidate. No raw BGP data is touched.
func (s *Store) Query(f Filter) Result {
	s.ensureHydrated(f)
	s.mu.RLock()
	defer s.mu.RUnlock()

	cands, all := s.candidates(f)
	res := Result{}
	if all {
		res.Scanned = s.live
		for ord := range s.slots {
			s.consider(&res, int32(ord), f)
		}
		return res
	}
	res.Scanned = len(cands)
	for _, ord := range cands {
		s.consider(&res, ord, f)
	}
	return res
}

// QuerySeq answers the same filter as Query, but as an iterator: events
// are yielded one at a time, in append (closing) order, without ever
// materializing the full result set — the HTTP layer's NDJSON streaming
// drains it incrementally, so an uncapped query over a production-scale
// store stays O(1) in memory. The candidate set and event slots are
// snapshotted under the read lock, then iteration proceeds without it
// (events are immutable and the slot slice is copy-on-write), so a slow
// consumer never blocks appends. Limit is honoured; Total/Scanned
// accounting is Query's job.
func (s *Store) QuerySeq(f Filter) iter.Seq[*core.Event] {
	s.ensureHydrated(f)
	s.mu.RLock()
	slots := s.snapshot().slots
	cands, all := s.candidates(f)
	if !all {
		// Postings lists are mutated in place by later appends and
		// erasures; the snapshot must not alias them.
		cands = slices.Clone(cands)
	}
	s.mu.RUnlock()
	return func(yield func(*core.Event) bool) {
		yielded := 0
		emit := func(ord int32) bool {
			ev := slots[ord].ev
			if ev == nil || !matches(ev, f) {
				return true
			}
			if !yield(ev) {
				return false
			}
			yielded++
			return f.Limit <= 0 || yielded < f.Limit
		}
		if all {
			for ord := range slots {
				if !emit(int32(ord)) {
					return
				}
			}
			return
		}
		for _, ord := range cands {
			if !emit(ord) {
				return
			}
		}
	}
}

// consider applies the full filter to one candidate ordinal. A nil slot
// is a dead event (tombstoned or superseded); index postings no longer
// reference those, but the full-scan path walks every ordinal.
func (s *Store) consider(res *Result, ord int32, f Filter) {
	ev := s.slots[ord].ev
	if ev == nil || !matches(ev, f) {
		return
	}
	res.Total++
	if f.Limit <= 0 || len(res.Events) < f.Limit {
		res.Events = append(res.Events, ev)
	}
}

// candidates picks the narrowest index posting set for the filter; all
// is true when no index applies (full scan).
func (s *Store) candidates(f Filter) (ords []int32, all bool) {
	if f.Prefix.IsValid() {
		return s.prefixCandidates(f), false
	}
	if f.User != 0 {
		return s.byUser[f.User], false
	}
	if f.Provider != nil {
		return s.byProvider[*f.Provider], false
	}
	if f.Community != 0 {
		return s.byCommunity[f.Community], false
	}
	if !f.From.IsZero() || !f.To.IsZero() {
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
		if ords := s.trie.Exact(f.Prefix); ords != nil {
			lists = append(lists, ords)
		}
	case PrefixLPM:
		if _, ords, ok := s.trie.LPM(f.Prefix); ok {
			lists = append(lists, ords)
		}
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
	from, to := f.From, f.To
	if from.IsZero() {
		from = s.minStart
	}
	if to.IsZero() {
		to = s.maxEnd
	}
	if from.IsZero() || to.IsZero() || to.Before(from) {
		return nil
	}
	var lists [][]int32
	for d := unixDay(from); d <= unixDay(to); d++ {
		if ords := s.byDay[d]; len(ords) > 0 {
			lists = append(lists, ords)
		}
	}
	return mergeOrds(lists)
}

// mergeOrds unions sorted postings lists into one sorted, deduplicated
// list. Single-list unions are returned as-is (no copy).
func mergeOrds(lists [][]int32) []int32 {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]int32, 0, total)
	for _, l := range lists {
		out = append(out, l...)
	}
	slices.Sort(out)
	return slices.Compact(out)
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
	case PrefixLPM:
		// Candidate sets already narrowed to the single longest match;
		// for verification accept any stored prefix containing q.
		return got.Bits() <= q.Bits() && got.Contains(q.Addr())
	case PrefixCovered:
		return got.Bits() >= q.Bits() && q.Contains(got.Addr())
	case PrefixCovering:
		return got.Bits() <= q.Bits() && got.Contains(q.Addr())
	}
	return false
}
