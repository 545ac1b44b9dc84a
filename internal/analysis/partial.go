package analysis

import (
	"fmt"
	"math/bits"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/core"
	"bgpblackholing/internal/topology"
)

// Mergeable aggregates. The figures count *distinct* providers, users and
// prefixes, so their state keeps the sets (bounded by the distinct-entity
// count, not the event count): states computed per shard union into the
// whole's, and only Finalize counts. Figure 4 federates through
// Figure4Union; it and the Table 3/4 partials are also the one loop of
// their aggregate, over a slice or the store's scan. The Figure 8 and
// Table 3/4 partials obey the same law, Finalize(Observe(events)) ==
// Finalize(Merge(Observe(shard1), …)) for any partition of the events, but
// only their tests merge them: a router answers those routes 501.

// ---------------------------------------------------------------------
// Figure 4

// Figure4Sets is the wire form of the Figure 4 state, the shape a
// shard's /figure4?shape=sets endpoint returns so the router can union
// shards before counting. (Counts alone — the []DailyPoint shape — cannot
// merge: the same provider active on two shards must not count twice.)
// Each distinct provider, user and prefix of the window is named once, in
// a table, with its active days as spans: two numbers for a run of days.
type Figure4Sets struct {
	Start time.Time `json:"start"`
	Days  int       `json:"days"`
	// ShardsFailed counts the shards a federation's sets miss, at any depth.
	ShardsFailed int `json:"shards_failed"`
	// Providers, Users (AS numbers) and Prefixes are the tables: every
	// member of any day, once, ascending.
	Providers []string `json:"providers"`
	Users     []uint32 `json:"users"`
	Prefixes  []string `json:"prefixes"`
	// ProviderDays[i] is Providers[i]'s days: [first, last] pairs, first ≤
	// last < Days, ascending, neither overlapping nor touching; one or more.
	ProviderDays [][]uint32 `json:"provider_days"`
	UserDays     [][]uint32 `json:"user_days"`
	PrefixDays   [][]uint32 `json:"prefix_days"`
}

// NewFigure4Sets puts per-day members, as indices into providers and
// prefixes or AS numbers, one list per day of the window and no member
// twice in one, into the wire form's one spelling, sorting in place.
func NewFigure4Sets(start time.Time, providers, prefixes []string, dayProviders, dayUsers, dayPrefixes [][]uint32) Figure4Sets {
	users, userRank := userTable(dayUsers)
	return Figure4Sets{
		Start: start, Days: len(dayUsers),
		Providers: providers, Users: users, Prefixes: prefixes,
		ProviderDays: daySpans(dayProviders, rankTable(providers)),
		UserDays:     daySpans(dayUsers, userRank),
		PrefixDays:   daySpans(dayPrefixes, rankTable(prefixes)),
	}
}

// rankTable sorts names and returns each id's rank: where names[id] went.
func rankTable(names []string) []uint32 {
	order := make([]uint32, len(names)) // order[rank] is the id that sorts there
	for id := range order {
		order[id] = uint32(id)
	}
	slices.SortFunc(order, func(a, b uint32) int { return strings.Compare(names[a], names[b]) })
	rank, sorted := make([]uint32, len(names)), make([]string, len(names))
	for r, id := range order {
		rank[id], sorted[r] = uint32(r), names[id]
	}
	copy(names, sorted)
	return rank
}

// userTable returns the days' AS numbers once each, ascending, rewrites
// them as ids in the order met, and returns each id's rank.
func userTable(days [][]uint32) (users, rank []uint32) {
	ids := map[uint32]uint32{}
	for _, day := range days {
		for i, asn := range day {
			id, ok := ids[asn]
			if !ok {
				id, ids[asn], users = uint32(len(users)), uint32(len(users)), append(users, asn)
			}
			day[i] = id
		}
	}
	rank = make([]uint32, len(users))
	sorted := slices.Sorted(slices.Values(users))
	for id, asn := range users {
		r, _ := slices.BinarySearch(sorted, asn)
		rank[id] = uint32(r)
	}
	return sorted, rank
}

// daySpans turns per-day lists of ids into each id's days as spans, listed
// by rank, in one allocation: a pass counts the runs, a second writes.
func daySpans(days [][]uint32, rank []uint32) [][]uint32 {
	n := len(rank)
	from, last := make([]uint32, n+1), make([]uint32, n) // last[i]: i's last active day, plus two
	for d, day := range days {
		for _, i := range day {
			if last[i] != uint32(d)+1 {
				from[i+1] += 2
			}
			last[i] = uint32(d) + 2
		}
	}
	for i := range n {
		from[i+1] += from[i] // i's spans are flat[from[i]:from[i+1]]
	}
	flat, at := make([]uint32, from[n]), slices.Clone(from[:n]) // last is past each id's first day
	for d, day := range days {
		for _, i := range day {
			if p := at[i]; last[i] == uint32(d)+1 {
				flat[p-1]++
			} else {
				flat[p], flat[p+1], at[i] = uint32(d), uint32(d), p+2
			}
			last[i] = uint32(d) + 2
		}
	}
	out := make([][]uint32, n)
	for i, r := range rank {
		out[r] = flat[from[i]:from[i+1]:from[i+1]]
	}
	return out
}

// appendBits appends the indices of the bits set in words, ascending.
func appendBits(dst []uint32, words []uint64) []uint32 {
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, uint32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return dst
}

// Figure4Union is Figure 4's accumulator: per day of the window
// [start, start+days), the distinct providers, users and prefixes. It
// takes events (Observe) and shards' wire forms (Add) alike. Each
// dimension gives every distinct member one id, the first time an event
// or a shard names it, and keeps a bitset of ids per day; Finalize counts
// bits.
type Figure4Union struct {
	Start time.Time
	Days  int

	providers, prefixes daySets[string]
	users               daySets[uint32]
}

// NewFigure4Union returns an empty union over [start, start+days).
func NewFigure4Union(start time.Time, days int) *Figure4Union {
	u := &Figure4Union{Start: start, Days: max(days, 0)}
	u.providers.days, u.prefixes.days, u.users.days = u.Days, u.Days, u.Days
	return u
}

// Observe credits ev to every day of the window its span overlaps: the
// days it starts before the end of and ends at or after the start of.
func (u *Figure4Union) Observe(ev *core.Event) {
	d0 := max(floorDays(ev.Start.Sub(u.Start)), 0)
	d1 := min(floorDays(ev.End.Sub(u.Start)), u.Days-1)
	if d0 > d1 {
		return // before any id: the tables name members of some day only
	}
	for _, pr := range ev.Providers {
		u.providers.mark(d0, d1, u.providers.id(pr.String()))
	}
	for _, asn := range ev.Users {
		u.users.mark(d0, d1, u.users.id(uint32(asn)))
	}
	u.prefixes.mark(d0, d1, u.prefixes.id(ev.Prefix.String()))
}

// Add unions sets over any window a whole number of days from u's into
// u's days, dropping the days outside u's window. The sets are trusted to
// be well formed, as NewFigure4Sets makes them and a router reads them.
func (u *Figure4Union) Add(s *Figure4Sets) error {
	// In seconds, not a Duration, which saturates past 292 years.
	off := s.Start.Unix() - u.Start.Unix()
	if s.Days > 0 && (off%(24*60*60) != 0 || s.Start.Nanosecond() != u.Start.Nanosecond()) { // no days: no member
		return fmt.Errorf("analysis: figure4 sets from %v are not whole days from %v", s.Start, u.Start)
	}
	shift := int(off / (24 * 60 * 60))
	u.providers.add(s.Providers, s.ProviderDays, shift)
	u.users.add(s.Users, s.UserDays, shift)
	u.prefixes.add(s.Prefixes, s.PrefixDays, shift)
	return nil
}

// Finalize collapses the sets to the daily series.
func (u *Figure4Union) Finalize() []DailyPoint {
	if u.Days <= 0 {
		return nil
	}
	out := make([]DailyPoint, u.Days)
	for d := range out {
		out[d] = DailyPoint{
			Day:       u.Start.Add(time.Duration(d) * 24 * time.Hour),
			Providers: u.providers.count(d),
			Users:     u.users.count(d),
			Prefixes:  u.prefixes.count(d),
		}
	}
	return out
}

// Sets exports the union in wire form: a store's scan, or a federation
// answering as one shard of a larger one.
func (u *Figure4Union) Sets() Figure4Sets {
	dayUsers := u.users.members()
	for _, day := range dayUsers {
		for i, id := range day {
			day[i] = u.users.keys[id]
		}
	}
	return NewFigure4Sets(u.Start, slices.Clone(u.providers.keys), slices.Clone(u.prefixes.keys),
		u.providers.members(), dayUsers, u.prefixes.members())
}

// daySets is one dimension of a Figure4Union: an id per distinct member
// and, per day, a bitset over the ids. Only the days from the first to the
// last that has held a member have a bitset, all in one slice: a window
// of a century with members on three days costs three.
type daySets[K comparable] struct {
	ids   map[K]uint32
	keys  []K      // keys[id] is the member
	days  int      // the window's
	first int      // the first day with a bitset
	rows  int      // how many days from first on have one
	width int      // words per day
	bits  []uint64 // day first+r's bitset is bits[r*width : (r+1)*width]
}

func (s *daySets[K]) id(k K) uint32 {
	id, ok := s.ids[k]
	if !ok {
		if s.ids == nil {
			s.ids = map[K]uint32{}
		}
		id = uint32(len(s.keys))
		s.ids[k] = id
		s.keys = append(s.keys, k)
	}
	return id
}

// row is day d's bitset, nil if d has none.
func (s *daySets[K]) row(d int) []uint64 {
	if r := d - s.first; r >= 0 && r < s.rows {
		return s.bits[r*s.width : (r+1)*s.width]
	}
	return nil
}

// reserve lays the bitsets out again, if they must grow, so that days lo
// to hi have one of width words or more.
func (s *daySets[K]) reserve(lo, hi, width int) {
	if s.rows > 0 {
		lo, hi, width = min(lo, s.first), max(hi, s.first+s.rows-1), max(width, s.width)
		if lo == s.first && hi-lo+1 == s.rows && width == s.width {
			return
		}
	}
	bits := make([]uint64, (hi-lo+1)*width)
	for d := s.first; d < s.first+s.rows; d++ {
		copy(bits[(d-lo)*width:], s.row(d))
	}
	s.first, s.rows, s.width, s.bits = lo, hi-lo+1, width, bits
}

// mark sets id's bit on days lo to hi. Members arrive one by one, so what
// must grow at least doubles: the copies add up to one layout.
func (s *daySets[K]) mark(lo, hi int, id uint32) {
	first, last, width := lo, hi, int(id>>6)+1
	if lo < s.first {
		first = max(min(lo, s.first-s.rows), 0)
	}
	if end := s.first + s.rows - 1; hi > end {
		last = min(max(hi, end+s.rows), s.days-1)
	}
	if width > s.width {
		width = max(width, 2*s.width)
	}
	s.reserve(first, last, width)
	for d := lo; d <= hi; d++ {
		s.bits[(d-s.first)*s.width+int(id>>6)] |= 1 << (id & 63)
	}
}

// add unions one table of sets in at day offset shift, laying the
// bitsets out once, wide enough for every member to be new.
func (s *daySets[K]) add(names []K, spans [][]uint32, shift int) {
	if s.ids == nil {
		s.ids = make(map[K]uint32, len(names)) // the first shard's table is most of the union's
	}
	s.keys = slices.Grow(s.keys, len(names))
	clip := func(sp []uint32, j int) (lo, hi int) {
		return max(int(sp[j])+shift, 0), min(int(sp[j+1])+shift, s.days-1)
	}
	lo, hi := s.days, -1
	for _, sp := range spans {
		a, _ := clip(sp, 0)
		_, b := clip(sp, len(sp)-2)
		lo, hi = min(lo, a), max(hi, b)
	}
	if lo > hi {
		return
	}
	s.reserve(lo, hi, (len(s.keys)+len(names)+63)/64)
	for i, k := range names {
		id := -1 // named on the member's first day in the window
		for j := 0; j < len(spans[i]); j += 2 {
			if a, b := clip(spans[i], j); a <= b {
				if id < 0 {
					id = int(s.id(k))
				}
				for d := a; d <= b; d++ {
					s.bits[(d-s.first)*s.width+id>>6] |= 1 << (id & 63)
				}
			}
		}
	}
}

func (s *daySets[K]) count(day int) (n int) {
	for _, word := range s.row(day) {
		n += bits.OnesCount64(word)
	}
	return n
}

// members lists each day's ids, ascending and never nil.
func (s *daySets[K]) members() [][]uint32 {
	out := make([][]uint32, s.days)
	for d := range out {
		out[d] = appendBits(make([]uint32, 0, s.count(d)), s.row(d))
	}
	return out
}

// ---------------------------------------------------------------------
// Figure 8

// EventSkeleton is the minimal projection of an event that Figure 8
// (duration distributions, raw and 5-minute-grouped) depends on —
// grouping reads only the prefix and the time span. Seq carries the
// global closing order so a merged skeleton set finalizes in the same
// canonical order regardless of which shard contributed what.
type EventSkeleton struct {
	Seq          uint64       `json:"seq"`
	Prefix       netip.Prefix `json:"prefix"`
	Start        time.Time    `json:"start"`
	End          time.Time    `json:"end"`
	StartUnknown bool         `json:"start_unknown,omitempty"`
}

// Figure8Partial accumulates event skeletons; merging concatenates.
type Figure8Partial struct {
	Skeletons []EventSkeleton `json:"skeletons"`
}

// Observe records ev's skeleton.
func (p *Figure8Partial) Observe(ev *core.Event) {
	p.Skeletons = append(p.Skeletons, EventSkeleton{
		Seq:          ev.Seq,
		Prefix:       ev.Prefix,
		Start:        ev.Start,
		End:          ev.End,
		StartUnknown: ev.StartUnknown,
	})
}

// Merge appends o's skeletons.
func (p *Figure8Partial) Merge(o *Figure8Partial) {
	p.Skeletons = append(p.Skeletons, o.Skeletons...)
}

// Finalize reconstitutes synthetic events in canonical global order
// (seq, end, start, prefix — the federation merge key, RecordKey.Less)
// and computes the two Figure 8 distributions.
func (p *Figure8Partial) Finalize(timeout time.Duration) (ungrouped, grouped []time.Duration) {
	sk := slices.Clone(p.Skeletons)
	sort.Slice(sk, func(i, j int) bool {
		a, b := &sk[i], &sk[j]
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		if !a.End.Equal(b.End) {
			return a.End.Before(b.End)
		}
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		return a.Prefix.String() < b.Prefix.String()
	})
	events := make([]*core.Event, len(sk))
	for i, s := range sk {
		events[i] = &core.Event{
			Seq:          s.Seq,
			Prefix:       s.Prefix,
			Start:        s.Start,
			End:          s.End,
			StartUnknown: s.StartUnknown,
		}
	}
	return Figure8(events, timeout)
}

// ---------------------------------------------------------------------
// Tables 3 and 4

// visibilitySets is the distinct-entity state one source (platform,
// provider kind, or the ALL row) accumulates for the visibility tables.
type visibilitySets struct {
	providers map[core.ProviderRef]bool
	users     map[bgp.ASN]bool
	prefixes  map[netip.Prefix]bool
	direct    map[core.ProviderRef]bool
}

func newVisibilitySets() *visibilitySets {
	return &visibilitySets{
		providers: map[core.ProviderRef]bool{},
		users:     map[bgp.ASN]bool{},
		prefixes:  map[netip.Prefix]bool{},
		direct:    map[core.ProviderRef]bool{},
	}
}

func (s *visibilitySets) merge(o *visibilitySets) {
	for k := range o.providers {
		s.providers[k] = true
	}
	for k := range o.users {
		s.users[k] = true
	}
	for k := range o.prefixes {
		s.prefixes[k] = true
	}
	for k := range o.direct {
		s.direct[k] = true
	}
}

// Table3Partial is the mergeable state behind Table 3 (per-platform
// blackhole visibility). The uniqueness columns are computed only at
// Finalize, from the merged per-platform sets — per-shard "unique"
// counts would be wrong (an entity unique on shard A may also appear
// on shard B), which is exactly why the partial keeps sets.
type Table3Partial struct {
	deploy *collector.Deployment
	per    map[collector.Platform]*visibilitySets
	all    *visibilitySets
}

// NewTable3Partial returns an empty partial. deploy resolves the
// direct-feed column when non-nil (static deployment sessions);
// otherwise per-event DirectProviders evidence is used.
func NewTable3Partial(deploy *collector.Deployment) *Table3Partial {
	p := &Table3Partial{
		deploy: deploy,
		per:    map[collector.Platform]*visibilitySets{},
		all:    newVisibilitySets(),
	}
	for _, pl := range collector.Platforms() {
		p.per[pl] = newVisibilitySets()
	}
	return p
}

// isDirectFor resolves the direct-feed property for one provider.
func isDirectFor(deploy *collector.Deployment, p collector.Platform, pr core.ProviderRef, ev *core.Event) bool {
	if deploy == nil {
		return slices.Contains(ev.DirectProviders, pr)
	}
	if pr.Kind == core.ProviderIXP {
		return deploy.HasRSFeed(p, pr.IXPID)
	}
	return deploy.HasDirectFeed(p, pr.ASN)
}

// Observe credits ev to the platforms that evidenced it.
func (p *Table3Partial) Observe(ev *core.Event) {
	for _, pl := range collector.Platforms() {
		if !slices.Contains(ev.Platforms, pl) {
			continue
		}
		s := p.per[pl]
		for _, pr := range core.Find(ev.ProvidersByPlatform, pl) {
			s.providers[pr] = true
			if isDirectFor(p.deploy, pl, pr, ev) {
				s.direct[pr] = true
			}
		}
		for _, u := range core.Find(ev.UsersByPlatform, pl) {
			s.users[u] = true
		}
		s.prefixes[ev.Prefix] = true
	}
	for _, pr := range ev.Providers {
		p.all.providers[pr] = true
		if isDirectFor(p.deploy, -1, pr, ev) {
			p.all.direct[pr] = true
		}
	}
	for _, u := range ev.Users {
		p.all.users[u] = true
	}
	p.all.prefixes[ev.Prefix] = true
}

// Merge unions o into p.
func (p *Table3Partial) Merge(o *Table3Partial) {
	for pl, s := range o.per {
		if p.per[pl] == nil {
			p.per[pl] = newVisibilitySets()
		}
		p.per[pl].merge(s)
	}
	p.all.merge(o.all)
}

// uniqueTo counts the members of self's set that no other platform sees
// — a cross-platform uniqueness column.
func uniqueTo[K comparable](p *Table3Partial, self collector.Platform, set func(*visibilitySets) map[K]bool) int {
	n, platforms := 0, collector.Platforms()
	for k := range set(p.per[self]) {
		only := true
		for _, q := range platforms {
			if q != self && set(p.per[q])[k] {
				only = false
				break
			}
		}
		if only {
			n++
		}
	}
	return n
}

// Finalize computes the table, including the cross-platform uniqueness
// columns, from the merged sets.
func (p *Table3Partial) Finalize() []Table3Row {
	var out []Table3Row
	for _, pl := range collector.Platforms() {
		s := p.per[pl]
		row := Table3Row{
			Source:          pl.String(),
			Providers:       len(s.providers),
			UniqueProviders: uniqueTo(p, pl, func(s *visibilitySets) map[core.ProviderRef]bool { return s.providers }),
			Users:           len(s.users),
			UniqueUsers:     uniqueTo(p, pl, func(s *visibilitySets) map[bgp.ASN]bool { return s.users }),
			Prefixes:        len(s.prefixes),
			UniquePrefixes:  uniqueTo(p, pl, func(s *visibilitySets) map[netip.Prefix]bool { return s.prefixes }),
		}
		if len(s.providers) > 0 {
			row.DirectFeedFrac = float64(len(s.direct)) / float64(len(s.providers))
		}
		out = append(out, row)
	}
	allRow := Table3Row{
		Source:    "ALL",
		Providers: len(p.all.providers),
		Users:     len(p.all.users),
		Prefixes:  len(p.all.prefixes),
	}
	if len(p.all.providers) > 0 {
		allRow.DirectFeedFrac = float64(len(p.all.direct)) / float64(len(p.all.providers))
	}
	out = append(out, allRow)
	return out
}

// Table4Partial is the mergeable state behind Table 4 (visibility by
// provider network type).
type Table4Partial struct {
	topo   *topology.Topology
	deploy *collector.Deployment
	per    map[topology.Kind]*visibilitySets
}

// NewTable4Partial returns an empty partial.
func NewTable4Partial(topo *topology.Topology, deploy *collector.Deployment) *Table4Partial {
	return &Table4Partial{topo: topo, deploy: deploy, per: map[topology.Kind]*visibilitySets{}}
}

func (p *Table4Partial) get(k topology.Kind) *visibilitySets {
	if p.per[k] == nil {
		p.per[k] = newVisibilitySets()
	}
	return p.per[k]
}

// Observe credits ev's providers to their network-type rows.
func (p *Table4Partial) Observe(ev *core.Event) {
	for _, pr := range ev.Providers {
		k := topology.KindIXP
		if pr.Kind == core.ProviderAS {
			k = topology.KindUnknown
			if as := p.topo.AS(pr.ASN); as != nil {
				k = as.Kind()
			}
		}
		s := p.get(k)
		s.providers[pr] = true
		if isDirectFor(p.deploy, -1, pr, ev) {
			s.direct[pr] = true
		}
		// Users are credited to the provider they were inferred with,
		// not to every provider of the event.
		for _, u := range core.Find(ev.ProviderUsers, pr) {
			s.users[u] = true
		}
		s.prefixes[ev.Prefix] = true
	}
}

// Merge unions o into p.
func (p *Table4Partial) Merge(o *Table4Partial) {
	for k, s := range o.per {
		p.get(k).merge(s)
	}
}

// Finalize computes the table from the merged sets.
func (p *Table4Partial) Finalize() []Table4Row {
	var out []Table4Row
	for _, k := range topology.Kinds() {
		s := p.per[k]
		if s == nil {
			out = append(out, Table4Row{Type: k})
			continue
		}
		row := Table4Row{
			Type:      k,
			Providers: len(s.providers),
			Users:     len(s.users),
			Prefixes:  len(s.prefixes),
		}
		if len(s.providers) > 0 {
			row.DirectFeedFrac = float64(len(s.direct)) / float64(len(s.providers))
		}
		out = append(out, row)
	}
	return out
}
