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
// whole's, and only Finalize counts. Figure 4 federates, through
// Figure4Union, its one accumulator. The Figure 8 and Table 3/4 partials
// obey the same law, Finalize(Observe(events)) ==
// Finalize(Merge(Observe(shard1), …)) for any partition of the events, but
// only their tests merge them: a router answers those routes 501.

// ---------------------------------------------------------------------
// Figure 4

// Figure4Sets is the wire form of the Figure 4 state, the shape a
// shard's /figure4?shape=sets endpoint returns so the router can union
// shards before counting. (Counts alone — the []DailyPoint shape — cannot
// merge: the same provider active on two shards must not count twice.)
// Each distinct provider and prefix of the window is named once, in a
// table; a day lists its members as indices into the tables, so a name
// active on two hundred days crosses the wire once.
type Figure4Sets struct {
	Start time.Time `json:"start"`
	Days  int       `json:"days"`
	// ShardsFailed counts the shards a federation's sets miss, at any depth.
	ShardsFailed int `json:"shards_failed"`
	// Providers and Prefixes are the tables: every member of any day,
	// once, ascending.
	Providers []string `json:"providers"`
	Prefixes  []string `json:"prefixes"`
	// DayProviders[d] and DayPrefixes[d] are day d's members as ascending
	// indices into the tables, DayUsers[d] its users as ascending AS
	// numbers. Each holds Days lists, none nil.
	DayProviders [][]uint32 `json:"day_providers"`
	DayUsers     [][]uint32 `json:"day_users"`
	DayPrefixes  [][]uint32 `json:"day_prefixes"`
}

// NewFigure4Sets puts per-day members collected in any order into the
// wire form's one spelling: providers and prefixes name each member once
// in any order, dayProviders and dayPrefixes index them, and all three
// day slices hold one list per day of the window. The tables are sorted
// in place, the indices rewritten to match, and every day's list sorted.
func NewFigure4Sets(start time.Time, providers, prefixes []string, dayProviders, dayUsers, dayPrefixes [][]uint32) Figure4Sets {
	rankTable(providers, dayProviders)
	rankTable(prefixes, dayPrefixes)
	for _, day := range dayUsers {
		slices.Sort(day)
	}
	return Figure4Sets{
		Start: start, Days: len(dayUsers),
		Providers: providers, Prefixes: prefixes,
		DayProviders: dayProviders, DayUsers: dayUsers, DayPrefixes: dayPrefixes,
	}
}

// rankTable sorts names and rewrites each day's ids — indices into names
// as it was, no id twice in a day — into ascending indices into names as
// it now is.
func rankTable(names []string, days [][]uint32) {
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
	// A day's ranks go through a bitset and come out ascending: a pass over
	// the day and one over the table's width, where sorting it cost more
	// than everything else here.
	seen := make([]uint64, (len(names)+63)/64)
	for _, day := range days {
		for _, id := range day {
			r := rank[id]
			seen[r>>6] |= 1 << (r & 63)
		}
		appendBits(day[:0], seen) // as many as the day had: it fills the same memory
		clear(seen)
	}
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
// takes events (Observe) and shards' wire forms (Add) alike, and unions
// only over one window: a router computes the window first, then asks
// every shard for it. Each dimension gives every distinct member one id,
// the first time an event or a shard names it, and keeps a bitset of ids
// per day; Finalize counts bits.
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

// Add unions one shard's sets into u. The windows must match exactly. The
// sets are trusted to be well formed — every index inside its table — as
// NewFigure4Sets makes them and a router's reader checks them.
func (u *Figure4Union) Add(s *Figure4Sets) error {
	if !s.Start.Equal(u.Start) || s.Days != u.Days {
		return fmt.Errorf("analysis: figure4 window mismatch: %v/%dd vs %v/%dd", u.Start, u.Days, s.Start, s.Days)
	}
	if len(s.DayProviders) != u.Days || len(s.DayUsers) != u.Days || len(s.DayPrefixes) != u.Days {
		return fmt.Errorf("analysis: figure4 sets list %d/%d/%d days, want %d", len(s.DayProviders), len(s.DayUsers), len(s.DayPrefixes), u.Days)
	}
	u.providers.addTable(s.Providers, s.DayProviders)
	u.prefixes.addTable(s.Prefixes, s.DayPrefixes)
	for d, day := range s.DayUsers {
		for _, asn := range day {
			u.users.mark(d, d, u.users.id(asn))
		}
	}
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

// addTable unions one shard's days, lists of indices into names, in.
func (s *daySets[K]) addTable(names []K, days [][]uint32) {
	if s.ids == nil {
		s.ids = make(map[K]uint32, len(names)) // the first shard's table is most of the union's
	}
	global := make([]uint32, len(names))
	for i, k := range names {
		global[i] = s.id(k)
	}
	lo, hi := slices.IndexFunc(days, func(day []uint32) bool { return len(day) > 0 }), len(days)-1
	if lo < 0 {
		return // no day has a member
	}
	for len(days[hi]) == 0 {
		hi--
	}
	s.reserve(lo, hi, (len(s.keys)+63)/64)
	for d := lo; d <= hi; d++ {
		row := s.row(d)
		for _, i := range days[d] {
			id := global[i]
			row[id>>6] |= 1 << (id & 63)
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
