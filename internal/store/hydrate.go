package store

import (
	"fmt"
	"net/netip"
	"slices"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/core"
)

// On-demand hydration for the sealed segments open left cold and the
// materialized per-day aggregate view behind DailyCounts. The contract
// throughout: a query against a cold store returns bytes identical to
// the same query against a fully warm store — pruning may only skip
// segments that provably cannot contribute to the filter's candidate
// posting set.

// insertOrd inserts ord into the sorted postings list l. The append
// path always inserts the largest ordinal seen so far, so the common
// case is a single compare; hydration of an older segment's reserved
// block pays the binary search.
func insertOrd(l []int32, ord int32) []int32 {
	if n := len(l); n == 0 || l[n-1] < ord {
		return append(l, ord)
	}
	at, _ := slices.BinarySearch(l, ord)
	return slices.Insert(l, at, ord)
}

// removeOrd returns l without ord. The result never shares l's tail:
// a snapshot may still be reading l.
func removeOrd(l []int32, ord int32) []int32 {
	if i := slices.Index(l, ord); i >= 0 {
		return append(l[:i:i], l[i+1:]...)
	}
	return l
}

// postings rewrites, with edit, every postings list ev is filed under —
// its prefix's in the trie, its users', providers' and communities', and
// those of the days it spans: the one walk of the five index dimensions.
// A list edit empties goes, with its key.
func (s *Store) postings(ev *core.Event, edit func([]int32) []int32) {
	s.trie.Edit(ev.Prefix, edit)
	for _, u := range ev.Users {
		editPosting(s.byUser, u, edit)
	}
	for _, pr := range ev.Providers {
		editPosting(s.byProvider, pr, edit)
	}
	for _, c := range ev.Communities {
		editPosting(s.byCommunity, c, edit)
	}
	for d := unixDay(ev.Start); d <= unixDay(ev.End); d++ {
		editPosting(s.byDay, d, edit)
	}
}

func editPosting[K comparable](m map[K][]int32, k K, edit func([]int32) []int32) {
	if l := edit(m[k]); len(l) == 0 {
		delete(m, k)
	} else {
		m[k] = l
	}
}

// indexAt indexes ev at a reserved ordinal: the slot already exists
// (nil) and was accounted live at reservation time. index reserves the
// next one; hydration fills a block reserved at open, so later ordinals
// may already populate the postings lists and every insertion keeps
// them sorted. The caller holds the write lock and, when snapshots may
// be live, cloned s.slots.
func (s *Store) indexAt(ev *core.Event, ord int32) {
	s.slots[ord].ev = ev
	s.postings(ev, func(l []int32) []int32 { return insertOrd(l, ord) })
	if s.minStart.IsZero() || ev.Start.Before(s.minStart) {
		s.minStart = ev.Start
	}
	if ev.End.After(s.maxEnd) {
		s.maxEnd = ev.End
	}
	s.dayAdd(ev)
}

// segTouches mirrors candidates' index precedence over a lazy
// segment's summary: it prunes on exactly the one dimension that will
// supply the candidate posting set, so a hydrated-on-demand store's
// postings — and Result.Scanned — stay byte-identical to an
// always-warm store's.
func (s *Store) segTouches(m *segSummary, f Filter) bool {
	if f.Prefix.IsValid() {
		return m.mayMatchPrefix(f.Prefix, f.Mode)
	}
	if f.User != 0 {
		var kb [10]byte
		return m.users.mayContain(bloomUserKey(kb[:0], uint64(f.User)))
	}
	if f.Provider != nil {
		var kb [24]byte
		return m.providers.mayContain(bloomProviderKey(kb[:0], *f.Provider))
	}
	if f.Community != 0 {
		var kb [10]byte
		return m.communities.mayContain(bloomUserKey(kb[:0], uint64(f.Community)))
	}
	if !f.From.IsZero() || !f.To.IsZero() {
		from, to := f.From, f.To
		if from.IsZero() {
			from = s.minStart
		}
		if to.IsZero() {
			to = s.maxEnd
		}
		if from.IsZero() || to.IsZero() || to.Before(from) {
			return false
		}
		return m.mayMatchTime(unixDay(from), unixDay(to))
	}
	return true
}

// ensureHydrated decodes every lazy segment the filter could touch —
// all of them for the zero Filter (full scans, All, Figure 8: anything
// that touches the whole store by definition). The common case — no
// cold segments left, or none the filter's primary index dimension can
// reach — costs a read-locked sweep over segment summaries and touches
// no file.
func (s *Store) ensureHydrated(f Filter) {
	s.mu.RLock()
	need := false
	if s.coldSegs > 0 && !s.closed {
		for i := range s.sealed {
			if s.sealed[i].lazy && s.segTouches(s.sealed[i].sum, f) {
				need = true
				break
			}
		}
	}
	s.mu.RUnlock()
	if !need {
		return
	}
	s.mu.Lock()
	s.hydrateWhereLocked(func(sf *segFile) bool { return s.segTouches(sf.sum, f) })
	s.mu.Unlock()
}

// hydrateWhereLocked hydrates the lazy segments matching pred under
// the held write lock. The sealed set is re-examined under the lock (a
// concurrent hydration or compaction may have gotten there first), and
// s.slots is copy-on-write-cloned once per batch so snapshots handed
// out by All and QuerySeq never observe slots mutating.
func (s *Store) hydrateWhereLocked(pred func(*segFile) bool) {
	if s.closed {
		return
	}
	cloned := false
	for i := range s.sealed {
		if !s.sealed[i].lazy || !pred(&s.sealed[i]) {
			continue
		}
		if !cloned {
			s.slots = slices.Clone(s.slots)
			cloned = true
		}
		s.hydrateSegLocked(&s.sealed[i])
	}
}

// hydrateSegLocked decodes lazy sealed segment sf and indexes its live
// events into the ordinal block reserved at open. A read failure keeps
// the segment lazy (the next touching query retries); decode failures
// or a sidecar/file mismatch mark the segment hydrated with the
// unaccounted slots dead, so the store degrades to partial data
// instead of wedging. Either failure is parked for Health. Caller
// holds the write lock with s.slots cloned.
func (s *Store) hydrateSegLocked(sf *segFile) {
	sc, done, err := s.scanSegmentFile(sf.path)
	if err != nil {
		s.hydrateErr = fmt.Errorf("hydrate %s: %w", sf.path, err)
		return
	}
	defer done()
	m := sf.sum
	next := sf.base
	// Records the sidecar marked dead reserved no ordinal; sealed
	// segments are immutable, so none past its count is belt and braces.
	skip := func(k int) bool { return k >= m.events || m.deadBit(k) }
	err = s.replay(sc.records, skip, func(ev *core.Event, dead bool) {
		ord := next
		next++
		s.hydratedEvents++
		if dead {
			// A tombstone the staleness check could not see killed this
			// event after the sidecar was written; the reserved slot
			// stays dead. (DeletePrefix hydrates before appending, so
			// this is defensive.)
			sf.dead++
			s.live--
			return
		}
		s.indexAt(ev, ord)
	})
	if err != nil {
		s.hydrateErr = fmt.Errorf("hydrate %s: %w", sf.path, err)
	}
	if short := sf.base + sf.n - next; short > 0 {
		// Fewer live records than the sidecar promised: the file lost
		// data behind the summary's back. The remaining reserved slots
		// stay nil (dead) and the store reports the loss via Health.
		s.live -= int(short)
		if s.hydrateErr == nil {
			s.hydrateErr = fmt.Errorf("hydrate %s: sidecar promised %d live events, found %d", sf.path, sf.n, next-sf.base)
		}
	}
	sf.lazy, sf.sum = false, nil
	s.coldSegs--
	s.hydratedSegs++
	s.inst.Hydrations.Inc()
}

// dayAgg is one day's slice of the materialized aggregate view: a
// refcount per distinct provider, user and victim prefix over the live
// events overlapping that day. The distinct-set sizes are exactly what
// analysis.Figure4Seq computes per day, so len() answers /figure4 in O(1)
// per day. Figure 4 tells providers apart by their String form; named
// providers are keyed here by the value that form spells (dayProvider),
// and printed when a view is asked for.
type dayAgg struct {
	providers map[core.ProviderRef]int
	users     map[bgp.ASN]int
	prefixes  map[netip.Prefix]int
}

// dayProvider is pr without what ProviderRef.String does not print: two
// references Figure 4 would count once are one key.
func dayProvider(pr core.ProviderRef) core.ProviderRef {
	if pr.Kind == core.ProviderIXP {
		return core.ProviderRef{Kind: core.ProviderIXP, IXPID: pr.IXPID}
	}
	return core.ProviderRef{Kind: core.ProviderAS, ASN: pr.ASN}
}

// dayAdd credits ev to every day its span overlaps. Caller holds the
// write lock (index/indexAt path).
func (s *Store) dayAdd(ev *core.Event) {
	for d := unixDay(ev.Start); d <= unixDay(ev.End); d++ {
		a := s.days[d]
		if a == nil {
			a = &dayAgg{
				providers: map[core.ProviderRef]int{},
				users:     map[bgp.ASN]int{},
				prefixes:  map[netip.Prefix]int{},
			}
			s.days[d] = a
		}
		for _, pr := range ev.Providers {
			a.providers[dayProvider(pr)]++
		}
		for _, u := range ev.Users {
			a.users[u]++
		}
		a.prefixes[ev.Prefix]++
	}
}

// dayRemove is dayAdd's inverse (unindex path).
func (s *Store) dayRemove(ev *core.Event) {
	for d := unixDay(ev.Start); d <= unixDay(ev.End); d++ {
		a := s.days[d]
		if a == nil {
			continue
		}
		for _, pr := range ev.Providers {
			decEntry(a.providers, dayProvider(pr))
		}
		for _, u := range ev.Users {
			decEntry(a.users, u)
		}
		decEntry(a.prefixes, ev.Prefix)
		if len(a.providers)+len(a.users)+len(a.prefixes) == 0 {
			delete(s.days, d)
		}
	}
}

// decEntry decrements a refcount, deleting the key at zero so len()
// stays the distinct-element count.
func decEntry[K comparable](m map[K]int, k K) {
	if n := m[k] - 1; n <= 0 {
		delete(m, k)
	} else {
		m[k] = n
	}
}

// DayCount is one day of the materialized aggregate view: the distinct
// providers, blackholing users and victim prefixes over the live
// events overlapping that UTC day.
type DayCount struct {
	Providers, Users, Prefixes int
}

// DailyCounts answers `days` consecutive UTC days starting at start
// from the materialized view, in O(days) — the same numbers a full
// scan through analysis.Figure4Seq produces, provided start is aligned
// to a UTC midnight (that alignment is what makes scan day-bucketing
// coincide with calendar-day overlap). ok is false when start is not
// day-aligned or days is not positive; callers fall back to the scan
// path then.
func (s *Store) DailyCounts(start time.Time, days int) ([]DayCount, bool) {
	if !s.hydrateDays(start, days) {
		return nil, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	d0 := unixDay(start)
	out := make([]DayCount, days)
	for d := range out {
		if a := s.days[d0+int64(d)]; a != nil {
			out[d] = DayCount{
				Providers: len(a.providers),
				Users:     len(a.users),
				Prefixes:  len(a.prefixes),
			}
		}
	}
	return out, true
}

// hydrateDays is the precondition DailyCounts and DailySets share: it
// reports whether the view can answer the window (start on a UTC
// midnight, days positive) and, when it can, hydrates the cold segments
// overlapping it — only events overlapping the window contribute, so
// the time dimension bounds which segments must be read.
func (s *Store) hydrateDays(start time.Time, days int) bool {
	const dayNanos = int64(24 * time.Hour)
	if days <= 0 || start.UnixNano()%dayNanos != 0 {
		return false
	}
	end := start.Add(time.Duration(days)*24*time.Hour - time.Nanosecond)
	s.ensureHydrated(Filter{From: start, To: end})
	return true
}

// DaySets is DailySets' answer, in the element types of
// analysis.Figure4Sets: Providers and Prefixes name each distinct member
// of the window once, in no particular order, and a day lists its members
// as indices into them (its users as AS numbers), in no particular order
// either.
type DaySets struct {
	Providers, Prefixes                 []string
	DayProviders, DayUsers, DayPrefixes [][]uint32
}

// DailySets is DailyCounts with the members listed instead of counted:
// per day the distinct providers, users and victim prefixes of the live
// events overlapping it — once put in order (analysis.NewFigure4Sets),
// exactly analysis.Figure4Union.Sets over a scan of the store, read
// from the view in O(members) with no event touched, and no provider or
// prefix printed more than once. It is what a federation asks of each shard,
// since sets union where counts cannot. ok is false under DailyCounts'
// conditions, and the caller scans.
func (s *Store) DailySets(start time.Time, days int) (DaySets, bool) {
	if !s.hydrateDays(start, days) {
		return DaySets{}, false
	}
	d0 := unixDay(start)
	out := DaySets{
		DayProviders: make([][]uint32, days),
		DayUsers:     make([][]uint32, days),
		DayPrefixes:  make([][]uint32, days),
	}
	providers, prefixes := nameTable[core.ProviderRef]{}, nameTable[netip.Prefix]{}
	s.mu.RLock()
	var members int // every day's lists slice one allocation
	for d := range days {
		if a := s.days[d0+int64(d)]; a != nil {
			members += len(a.providers) + len(a.users) + len(a.prefixes)
		}
	}
	flat := make([]uint32, 0, members)
	for d := range days {
		a := s.days[d0+int64(d)]
		if a == nil {
			a = &dayAgg{}
		}
		from := len(flat)
		for pr := range a.providers {
			flat = append(flat, providers.id(pr))
		}
		out.DayProviders[d], from = flat[from:len(flat):len(flat)], len(flat)
		for u := range a.users {
			flat = append(flat, uint32(u))
		}
		out.DayUsers[d], from = flat[from:len(flat):len(flat)], len(flat)
		for p := range a.prefixes {
			flat = append(flat, prefixes.id(p))
		}
		out.DayPrefixes[d] = flat[from:len(flat):len(flat)]
	}
	s.mu.RUnlock()
	// Printed outside the lock: appends need not wait for it.
	out.Providers, out.Prefixes = providers.names(), prefixes.names()
	return out, true
}

// nameTable gives each distinct member of a window an id, first seen
// first, and names them all once at the end.
type nameTable[K interface {
	comparable
	String() string
}] struct {
	ids  map[K]uint32
	keys []K
}

func (t *nameTable[K]) id(k K) uint32 {
	id, ok := t.ids[k]
	if !ok {
		if t.ids == nil {
			t.ids = map[K]uint32{}
		}
		id = uint32(len(t.keys))
		t.ids[k], t.keys = id, append(t.keys, k)
	}
	return id
}

func (t *nameTable[K]) names() []string {
	names := make([]string, len(t.keys))
	for i, k := range t.keys {
		names[i] = k.String()
	}
	return names
}
