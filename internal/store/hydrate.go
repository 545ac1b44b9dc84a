package store

import (
	"fmt"
	"math"
	"slices"
	"time"

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
	s.dayCount(ev, 1)
}

// segTouches mirrors candidates' index precedence over a lazy
// segment's summary: it prunes on exactly the one dimension that will
// supply the candidate posting set, so a hydrated-on-demand store's
// postings — and Result.Scanned — stay byte-identical to an
// always-warm store's.
func (s *Store) segTouches(m *segSummary, f Filter) bool {
	switch {
	case f.Prefix.IsValid():
		return m.mayMatchPrefix(f.Prefix, f.Mode)
	case f.User != 0:
		var kb [10]byte
		return m.users.mayContain(bloomUserKey(kb[:0], uint64(f.User)))
	case f.Provider != nil:
		var kb [24]byte
		return m.providers.mayContain(bloomProviderKey(kb[:0], *f.Provider))
	case f.Community != 0:
		var kb [10]byte
		return m.communities.mayContain(bloomUserKey(kb[:0], uint64(f.Community)))
	case !f.From.IsZero() || !f.To.IsZero():
		from, to := s.dayWindow(f)
		return from <= to && m.mayMatchTime(from, to)
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
// s.slots is copy-on-write-cloned once per batch so the read walk's
// snapshots never observe slots mutating.
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

// dayAgg is one day's slice of the materialized aggregate view: the
// distinct providers, users and victim prefixes over the live events
// overlapping that day, each with the number of those events that name
// it, in ascending id order. The set sizes are exactly what
// analysis.Figure4Union counts per day, so len() answers /figure4 in O(1)
// per day. Users are their AS numbers; providers and prefixes are ids of
// the store's intern tables (Store.provs, Store.pfxs), which print each
// name once, when it is first indexed.
type dayAgg struct {
	providers, users, prefixes []member
}

// member is one id of a day's set and its refcount.
type member struct{ id, refs uint32 }

// intern gives each distinct key the store ever indexed a dense id and
// its name, printed once. It only grows: a key whose last event goes
// keeps its id, and gets it back when an event names it again.
type intern[K interface {
	comparable
	String() string
}] struct {
	ids   map[K]uint32
	names []string
}

func (t *intern[K]) id(k K) uint32 {
	id, ok := t.ids[k]
	if !ok {
		id = uint32(len(t.names))
		t.ids[k], t.names = id, append(t.names, k.String())
	}
	return id
}

// dayProvider is pr without what ProviderRef.String does not print: two
// references Figure 4 would count once are one key.
func dayProvider(pr core.ProviderRef) core.ProviderRef {
	if pr.Kind == core.ProviderIXP {
		return core.ProviderRef{Kind: core.ProviderIXP, IXPID: pr.IXPID}
	}
	return core.ProviderRef{Kind: core.ProviderAS, ASN: pr.ASN}
}

// dayCount credits ev (delta 1, the index path) to every day its span
// overlaps, or takes it back (delta -1, unindex): a member goes at
// refcount zero, and a day with none left leaves s.days. Caller holds
// the write lock.
func (s *Store) dayCount(ev *core.Event, delta int) {
	pfx, provs := s.pfxs.id(ev.Prefix), make([]uint32, 0, 4)
	for _, pr := range ev.Providers {
		provs = append(provs, s.provs.id(dayProvider(pr)))
	}
	for d := unixDay(ev.Start); d <= unixDay(ev.End); d++ {
		a := s.days[d]
		if a == nil {
			a = &dayAgg{}
			s.days[d] = a
		}
		for _, id := range provs {
			a.providers = count(a.providers, id, delta)
		}
		for _, u := range ev.Users {
			a.users = count(a.users, uint32(u), delta)
		}
		a.prefixes = count(a.prefixes, pfx, delta)
		if len(a.providers)+len(a.users)+len(a.prefixes) == 0 {
			delete(s.days, d)
		}
	}
}

// count adds delta to id's refcount in ms, inserting id at one and
// dropping it at zero. An id interned after every other one in ms, what
// an append mostly brings, takes one compare.
func count(ms []member, id uint32, delta int) []member {
	i, j := 0, len(ms)
	if j > 0 && ms[j-1].id < id {
		i = j
	}
	for i < j { // the first member not below id
		if h := int(uint(i+j) >> 1); ms[h].id < id {
			i = h + 1
		} else {
			j = h
		}
	}
	switch found := i < len(ms) && ms[i].id == id; {
	case !found && delta > 0:
		return slices.Insert(ms, i, member{id, 1})
	case !found:
		return ms
	case int(ms[i].refs)+delta == 0:
		return slices.Delete(ms, i, i+1)
	}
	ms[i].refs = uint32(int(ms[i].refs) + delta)
	return ms
}

// DayCount is one day of the materialized aggregate view: the distinct
// providers, blackholing users and victim prefixes over the live
// events overlapping that UTC day.
type DayCount struct {
	Providers, Users, Prefixes int
}

// DailyCounts answers `days` consecutive UTC days starting at start
// from the materialized view, in O(days) — the same numbers a full
// scan into analysis.Figure4Union produces, provided start is aligned
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

// DaySets is DailySets' answer, what analysis.NewFigure4Sets takes:
// Providers and Prefixes name each distinct member
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
// from the view in O(members) with no event touched and no name
// printed. It is what a federation asks of each shard,
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	var members int // every day's lists slice one allocation
	provs, pfxs := window{lo: math.MaxUint32}, window{lo: math.MaxUint32}
	for d := range days {
		if a := s.days[d0+int64(d)]; a != nil {
			members += len(a.providers) + len(a.users) + len(a.prefixes)
			provs.cover(a.providers)
			pfxs.cover(a.prefixes)
		}
	}
	flat := make([]uint32, 0, members)
	provs.ids = make([]uint32, max(provs.hi, provs.lo)-provs.lo) // lo > hi: no member
	pfxs.ids = make([]uint32, max(pfxs.hi, pfxs.lo)-pfxs.lo)
	for d := range days {
		a := s.days[d0+int64(d)]
		if a == nil {
			a = &dayAgg{}
		}
		from := len(flat)
		flat = provs.renumber(flat, a.providers, &out.Providers, s.provs.names)
		out.DayProviders[d], from = flat[from:len(flat):len(flat)], len(flat)
		for _, m := range a.users {
			flat = append(flat, m.id)
		}
		out.DayUsers[d], from = flat[from:len(flat):len(flat)], len(flat)
		flat = pfxs.renumber(flat, a.prefixes, &out.Prefixes, s.pfxs.names)
		out.DayPrefixes[d] = flat[from:len(flat):len(flat)]
	}
	return out, true
}

// window renumbers one intern table's store ids into a DailySets
// window's own, through a dense slice over only the ids [lo, hi) its
// days hold: ids are interned in order, so a short window spans few.
type window struct {
	lo, hi uint32
	ids    []uint32 // a store id's window id plus one, at id-lo: zero until named
}

// cover widens the span to ms's ids, ascending: the first and last bound it.
func (w *window) cover(ms []member) {
	if len(ms) > 0 {
		w.lo, w.hi = min(w.lo, ms[0].id), max(w.hi, ms[len(ms)-1].id+1)
	}
}

// renumber appends the window ids of ms to flat, naming a store id in
// the window's table the first time the window meets it.
func (w *window) renumber(flat []uint32, ms []member, names *[]string, all []string) []uint32 {
	for _, m := range ms {
		i := m.id - w.lo
		if w.ids[i] == 0 {
			*names = append(*names, all[m.id])
			w.ids[i] = uint32(len(*names))
		}
		flat = append(flat, w.ids[i]-1)
	}
	return flat
}
