package analysis

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/core"
	"bgpblackholing/internal/dataplane"
	"bgpblackholing/internal/dictionary"
	"bgpblackholing/internal/scans"
	"bgpblackholing/internal/topology"
)

// Figure2Point is one (community, prefix length) cell of Figure 2: the
// fraction of the community's occurrences at that prefix length.
type Figure2Point struct {
	Community   bgp.Community
	IsBlackhole bool
	PrefixLen   int
	Fraction    float64
}

// Figure2 derives the occurrence-fraction surface of Figure 2 from the
// inference collector's statistics, labelling each community blackhole
// or non-blackhole via the documented dictionary.
func Figure2(stats map[bgp.Community]*dictionary.CommunityStats, dict *dictionary.Dictionary) []Figure2Point {
	var comms []bgp.Community
	for c := range stats {
		comms = append(comms, c)
	}
	sort.Slice(comms, func(i, j int) bool { return comms[i] < comms[j] })
	var out []Figure2Point
	for _, c := range comms {
		s := stats[c]
		isBH := dict.Lookup(c) != nil
		// Figure 2 compares the two *documented* dictionaries: blackhole
		// communities and the second dictionary of non-blackhole
		// (relationship/TE) communities. Undocumented values are not
		// plotted.
		if !isBH && !dict.IsNonBlackhole(c) {
			continue
		}
		for _, l := range sortedLenKeys(s.LenCounts) {
			out = append(out, Figure2Point{
				Community:   c,
				IsBlackhole: isBH,
				PrefixLen:   l,
				Fraction:    s.FractionAtLen(l),
			})
		}
	}
	return out
}

func sortedLenKeys(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Figure2Summary condenses the surface into the paper's headline: the
// mass blackhole communities place on /32s vs the mass non-blackhole
// communities place on /24-or-shorter prefixes.
type Figure2SummaryRow struct {
	IsBlackhole        bool
	Communities        int
	MeanFracAt32       float64
	MeanFracAtOrPre24  float64
	MeanFracMoreSpec24 float64
}

// SummarizeFigure2 aggregates Figure 2 per community class.
func SummarizeFigure2(stats map[bgp.Community]*dictionary.CommunityStats, dict *dictionary.Dictionary) []Figure2SummaryRow {
	var rows [2]Figure2SummaryRow
	rows[0].IsBlackhole = false
	rows[1].IsBlackhole = true
	var n [2]int
	for c, s := range stats {
		idx := 0
		if dict.Lookup(c) != nil {
			idx = 1
		} else if !dict.IsNonBlackhole(c) {
			continue // undocumented: in neither dictionary
		}
		if s.Total == 0 {
			continue
		}
		n[idx]++
		rows[idx].MeanFracAt32 += s.FractionAtLen(32)
		rows[idx].MeanFracMoreSpec24 += s.FractionMoreSpecificThan24()
		rows[idx].MeanFracAtOrPre24 += 1 - s.FractionMoreSpecificThan24()
	}
	for i := range rows {
		rows[i].Communities = n[i]
		if n[i] > 0 {
			rows[i].MeanFracAt32 /= float64(n[i])
			rows[i].MeanFracAtOrPre24 /= float64(n[i])
			rows[i].MeanFracMoreSpec24 /= float64(n[i])
		}
	}
	return rows[:]
}

// DailyPoint is one day of the Figure 4 longitudinal series.
type DailyPoint struct {
	Day       time.Time
	Providers int
	Users     int
	Prefixes  int
}

// Figure4 computes the daily active providers, users and blackholed
// prefixes over the timeline: an event contributes to every day its
// span overlaps, observed into a Figure4Union (partial.go).
func Figure4(events []*core.Event, start time.Time, days int) []DailyPoint {
	u := NewFigure4Union(start, days)
	for _, ev := range events {
		u.Observe(ev)
	}
	return u.Finalize()
}

// floorDays is the number of whole 24-hour days in d, rounding toward
// negative infinity: an event ending before the window start lands on a
// negative day index (and contributes nothing), instead of being
// truncated toward day zero. With a UTC-midnight-aligned start this
// makes day bucketing exactly calendar-day overlap, which is what lets
// a store's materialized per-day view answer Figure 4 without a scan.
func floorDays(d time.Duration) int {
	const day = 24 * time.Hour
	q := d / day
	if d%day < 0 {
		q--
	}
	return int(q)
}

// Figure5a returns the per-provider blackholed prefix counts split into
// transit/access providers and IXPs (the two CDFs of Figure 5a).
func Figure5a(events []*core.Event, topo *topology.Topology) (transit, ixp []int) {
	perProvider := map[core.ProviderRef]map[netip.Prefix]bool{}
	for _, ev := range events {
		for _, pr := range ev.Providers {
			if perProvider[pr] == nil {
				perProvider[pr] = map[netip.Prefix]bool{}
			}
			perProvider[pr][ev.Prefix] = true
		}
	}
	var refs []core.ProviderRef
	for pr := range perProvider {
		refs = append(refs, pr)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].String() < refs[j].String() })
	for _, pr := range refs {
		n := len(perProvider[pr])
		if pr.Kind == core.ProviderIXP {
			ixp = append(ixp, n)
			continue
		}
		if as := topo.AS(pr.ASN); as != nil && as.Kind() == topology.KindTransitAccess {
			transit = append(transit, n)
		}
	}
	return transit, ixp
}

// Figure5b returns per-user blackholed prefix counts grouped by the
// user's network type (Figure 5b).
func Figure5b(events []*core.Event, topo *topology.Topology) map[topology.Kind][]int {
	perUser := map[bgp.ASN]map[netip.Prefix]bool{}
	for _, ev := range events {
		for _, u := range ev.Users {
			if perUser[u] == nil {
				perUser[u] = map[netip.Prefix]bool{}
			}
			perUser[u][ev.Prefix] = true
		}
	}
	var usersSorted []bgp.ASN
	for u := range perUser {
		usersSorted = append(usersSorted, u)
	}
	topology.SortASNs(usersSorted)
	out := map[topology.Kind][]int{}
	for _, u := range usersSorted {
		k := topology.KindUnknown
		if as := topo.AS(u); as != nil {
			k = as.Kind()
		}
		out[k] = append(out[k], len(perUser[u]))
	}
	return out
}

// Figure6 counts blackholing provider and user ASes per country.
func Figure6(events []*core.Event, topo *topology.Topology) (providers, users map[string]int) {
	provSet := map[bgp.ASN]bool{}
	userSet := map[bgp.ASN]bool{}
	ixpSet := map[int]bool{}
	for _, ev := range events {
		for _, pr := range ev.Providers {
			if pr.Kind == core.ProviderAS {
				provSet[pr.ASN] = true
			} else {
				ixpSet[pr.IXPID] = true
			}
		}
		for _, u := range ev.Users {
			userSet[u] = true
		}
	}
	providers = map[string]int{}
	users = map[string]int{}
	for asn := range provSet {
		if as := topo.AS(asn); as != nil {
			providers[as.Country]++
		}
	}
	for x := range ixpSet {
		if x >= 0 && x < len(topo.IXPs) {
			providers[topo.IXPs[x].Country]++
		}
	}
	for asn := range userSet {
		if as := topo.AS(asn); as != nil {
			users[as.Country]++
		}
	}
	return providers, users
}

// Figure7a profiles the services offered on blackholed prefixes: the
// count of prefixes per service plus the NONE bucket.
func Figure7a(events []*core.Event, seed int64) map[scans.Service]int {
	seen := map[netip.Prefix]bool{}
	out := map[scans.Service]int{}
	for _, ev := range events {
		if seen[ev.Prefix] || !ev.Prefix.Addr().Is4() {
			continue
		}
		seen[ev.Prefix] = true
		p := scans.Profile(ev.Prefix.Addr(), seed)
		if !p.HasAnyService() {
			out["NONE"]++
			continue
		}
		for svc := range p.Open {
			out[svc]++
		}
	}
	return out
}

// Figure7b histograms the number of blackholing providers per event.
func Figure7b(events []*core.Event) *Histogram {
	var samples []int
	for _, ev := range events {
		samples = append(samples, len(ev.Providers))
	}
	return NewHistogram(samples)
}

// Figure7c histograms the AS distance between collector and provider,
// one sample per (event, provider) using the best vantage point that
// observed the provider; key core.NoPath (-1) is the no-path (bundling)
// bucket, where the provider never appeared on any observed path.
func Figure7c(events []*core.Event) *Histogram {
	var samples []int
	for _, ev := range events {
		for _, d := range ev.ProviderDistances {
			samples = append(samples, d.Val)
		}
	}
	return NewHistogram(samples)
}

// Figure8 computes the two duration distributions of Figure 8a: raw
// (ungrouped) events and 5-minute-grouped periods.
func Figure8(events []*core.Event, timeout time.Duration) (ungrouped, grouped []time.Duration) {
	for _, ev := range events {
		if ev.StartUnknown {
			continue // dump-seeded events have no true start
		}
		ungrouped = append(ungrouped, ev.Duration())
	}
	for _, p := range core.Group(events, timeout) {
		grouped = append(grouped, p.Duration())
	}
	return ungrouped, grouped
}

// DurationRegimes buckets event durations into the paper's three
// regimes: short-lived (< 1 hour), long-lived (1 hour – 30 days) and
// very long-lived (> 30 days), Fig 8b.
type DurationRegimes struct {
	Short    int
	Long     int
	VeryLong int
}

// RegimesOf buckets durations.
func RegimesOf(durations []time.Duration) DurationRegimes {
	var out DurationRegimes
	for _, d := range durations {
		switch {
		case d < time.Hour:
			out.Short++
		case d < 30*24*time.Hour:
			out.Long++
		default:
			out.VeryLong++
		}
	}
	return out
}

// Figure9Sample is the diff summary for Figure 9(a,b).
type Figure9Sample struct {
	IPDiffs       []int // after-minus-during IP path lengths
	ASDiffs       []int // after-minus-during AS path lengths
	NeighborDiffs []int // neighbour-minus-blackholed IP lengths during
}

// Figure9ab aggregates path measurements into the diff distributions.
func Figure9ab(ms []dataplane.PathMeasurement) Figure9Sample {
	var out Figure9Sample
	for i := range ms {
		m := &ms[i]
		// Only events where the destination was reachable after the
		// blackholing count (§10 eliminates artefacts).
		if !m.After.Reached {
			continue
		}
		out.IPDiffs = append(out.IPDiffs, m.IPDiff())
		out.ASDiffs = append(out.ASDiffs, m.ASDiff())
		out.NeighborDiffs = append(out.NeighborDiffs, m.NeighborIPDiff())
	}
	return out
}

// FormatFigure4 renders the longitudinal series, a row every max(every, 1) days.
func FormatFigure4(series []DailyPoint, every int) string {
	header := []string{"Day", "#Providers", "#Users", "#Prefixes"}
	var cells [][]string
	for i := 0; i < len(series); i += max(every, 1) {
		p := series[i]
		cells = append(cells, []string{
			p.Day.Format("2006-01-02"),
			fmt.Sprint(p.Providers), fmt.Sprint(p.Users), fmt.Sprint(p.Prefixes),
		})
	}
	return FormatTable(header, cells)
}

// TopCountries returns the n largest entries of a country count map.
func TopCountries(counts map[string]int, n int) []struct {
	Country string
	Count   int
} {
	type kv struct {
		Country string
		Count   int
	}
	var all []kv
	for c, k := range counts {
		all = append(all, kv{c, k})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Country < all[j].Country
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]struct {
		Country string
		Count   int
	}, n)
	for i := 0; i < n; i++ {
		out[i] = struct {
			Country string
			Count   int
		}{all[i].Country, all[i].Count}
	}
	return out
}
