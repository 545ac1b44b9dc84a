package bgpblackholing

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (run with `go test -bench=. -benchmem`). Each
// benchmark prints the reproduced rows/series once, so the output can
// be compared side by side with the paper (EXPERIMENTS.md records that
// comparison). Expensive world-building and timeline replays are shared
// across benchmarks through sync.Once.

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"time"

	"bgpblackholing/internal/analysis"
	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/core"
	"bgpblackholing/internal/dataplane"
	"bgpblackholing/internal/topology"
	"bgpblackholing/internal/workload"
)

// benchOptions scales the world for benchmarking: large enough that the
// paper's shapes emerge, small enough for a laptop run.
func benchOptions() Options {
	return Options{Seed: 42, TopoScale: 0.3, CollectorScale: 0.25, EventScale: 0.4, Days: 850}
}

// Analysis window of Tables 3/4 and Figures 5-8: August 2016 – March
// 2017 = days 640-850 of the timeline.
const (
	windowFrom = 640
	windowTo   = 850
)

var bench struct {
	onceWorld  sync.Once
	p          *Pipeline
	onceWindow sync.Once
	window     *RunResult
	onceFull   sync.Once
	full       *RunResult
}

func benchPipeline(b *testing.B) *Pipeline {
	b.Helper()
	bench.onceWorld.Do(func() {
		p, err := NewPipeline(benchOptions())
		if err != nil {
			panic(err)
		}
		bench.p = p
	})
	return bench.p
}

// benchWindow replays the Aug 2016 – Mar 2017 analysis window once.
func benchWindow(b *testing.B) *RunResult {
	p := benchPipeline(b)
	bench.onceWindow.Do(func() {
		bench.window = replay(b, p, windowFrom, windowTo)
	})
	return bench.window
}

// benchFull replays the entire Dec 2014 – Mar 2017 timeline once.
func benchFull(b *testing.B) *RunResult {
	p := benchPipeline(b)
	bench.onceFull.Do(func() {
		bench.full = replay(b, p, 0, 850)
	})
	return bench.full
}

var printOnce sync.Map

func printReport(name, body string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n=== %s ===\n%s\n", name, body)
	}
}

// BenchmarkTable1DatasetOverview regenerates Table 1: the BGP dataset
// overview per collection platform.
func BenchmarkTable1DatasetOverview(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	var rows []analysis.Table1Row
	for i := 0; i < b.N; i++ {
		rows = p.Table1()
	}
	printReport("Table 1: BGP dataset overview", analysis.FormatTable1(rows))
}

// BenchmarkTable2CommunitiesDictionary regenerates Table 2: documented
// blackhole communities per network type, with inferred/undocumented
// counts in parentheses.
func BenchmarkTable2CommunitiesDictionary(b *testing.B) {
	p := benchPipeline(b)
	res := benchWindow(b)
	b.ResetTimer()
	var rows []analysis.Table2Row
	for i := 0; i < b.N; i++ {
		rows = p.Table2(res.InferStats)
	}
	printReport("Table 2: blackhole communities dictionary", analysis.FormatTable2(rows))
}

// BenchmarkTable3BlackholeVisibility regenerates Table 3: blackhole
// visibility per data source over Aug 2016 – Mar 2017.
func BenchmarkTable3BlackholeVisibility(b *testing.B) {
	p := benchPipeline(b)
	res := benchWindow(b)
	b.ResetTimer()
	var rows []analysis.Table3Row
	for i := 0; i < b.N; i++ {
		rows = p.Table3(res.Events)
	}
	printReport("Table 3: blackhole dataset overview", analysis.FormatTable3(rows))
}

// BenchmarkTable4VisibilityByType regenerates Table 4: blackhole
// visibility by provider network type.
func BenchmarkTable4VisibilityByType(b *testing.B) {
	p := benchPipeline(b)
	res := benchWindow(b)
	b.ResetTimer()
	var rows []analysis.Table4Row
	for i := 0; i < b.N; i++ {
		rows = p.Table4(res.Events)
	}
	printReport("Table 4: visibility by provider type", analysis.FormatTable4(rows))
}

// BenchmarkFigure2PrefixLengthFractions regenerates Figure 2: the
// prefix-length occurrence profile of blackhole vs non-blackhole
// communities.
func BenchmarkFigure2PrefixLengthFractions(b *testing.B) {
	p := benchPipeline(b)
	res := benchWindow(b)
	b.ResetTimer()
	var rows []analysis.Figure2SummaryRow
	for i := 0; i < b.N; i++ {
		rows = analysis.SummarizeFigure2(res.InferStats.Stats, p.Dict)
	}
	body := ""
	for _, r := range rows {
		label := "non-blackhole"
		if r.IsBlackhole {
			label = "blackhole"
		}
		body += fmt.Sprintf("%-14s communities=%-4d mean frac on /32 = %.2f, on <=/24 = %.2f, on >/24 = %.2f\n",
			label, r.Communities, r.MeanFracAt32, r.MeanFracAtOrPre24, r.MeanFracMoreSpec24)
	}
	body += fmt.Sprintf("inferred undocumented blackhole communities: %d\n", len(res.InferStats.Inferred))
	printReport("Figure 2: community prefix-length profile", body)
}

// BenchmarkFigure4LongitudinalGrowth regenerates Figure 4: daily
// blackholing providers, users and prefixes over Dec 2014 – Mar 2017,
// including the DDoS-correlated spikes.
func BenchmarkFigure4LongitudinalGrowth(b *testing.B) {
	res := benchFull(b)
	b.ResetTimer()
	var series []analysis.DailyPoint
	for i := 0; i < b.N; i++ {
		series = analysis.Figure4(res.Events, workload.TimelineStart, 850)
	}
	b.StopTimer()
	// Growth factors (30-day averages at both ends), as the paper
	// reports: providers ~2x, users ~4x, prefixes ~6x.
	avg := func(from, to int, f func(analysis.DailyPoint) int) float64 {
		s := 0
		for i := from; i < to; i++ {
			s += f(series[i])
		}
		return float64(s) / float64(to-from)
	}
	pv := func(p analysis.DailyPoint) int { return p.Providers }
	us := func(p analysis.DailyPoint) int { return p.Users }
	px := func(p analysis.DailyPoint) int { return p.Prefixes }
	body := fmt.Sprintf("providers/day: %.0f -> %.0f (x%.1f)\n",
		avg(30, 60, pv), avg(810, 840, pv), avg(810, 840, pv)/avg(30, 60, pv))
	body += fmt.Sprintf("users/day:     %.0f -> %.0f (x%.1f)\n",
		avg(30, 60, us), avg(810, 840, us), avg(810, 840, us)/avg(30, 60, us))
	body += fmt.Sprintf("prefixes/day:  %.0f -> %.0f (x%.1f)\n",
		avg(30, 60, px), avg(810, 840, px), avg(810, 840, px)/avg(30, 60, px))
	body += analysis.FormatFigure4(series, 85)
	printReport("Figure 4: longitudinal growth", body)
}

// BenchmarkFigure5PrefixCDFs regenerates Figure 5: CDFs of blackholed
// prefixes per provider (transit vs IXP) and per user type.
func BenchmarkFigure5PrefixCDFs(b *testing.B) {
	p := benchPipeline(b)
	res := benchWindow(b)
	b.ResetTimer()
	var transit, ixp []int
	var byKind map[topology.Kind][]int
	for i := 0; i < b.N; i++ {
		transit, ixp = analysis.Figure5a(res.Events, p.Topo)
		byKind = analysis.Figure5b(res.Events, p.Topo)
	}
	b.StopTimer()
	tc, xc := analysis.NewCDFInts(transit), analysis.NewCDFInts(ixp)
	body := fmt.Sprintf("providers: transit/access n=%d median=%.0f p90=%.0f | IXP n=%d median=%.0f p90=%.0f\n",
		tc.Len(), tc.Quantile(0.5), tc.Quantile(0.9), xc.Len(), xc.Quantile(0.5), xc.Quantile(0.9))
	for _, k := range topology.Kinds() {
		if len(byKind[k]) == 0 {
			continue
		}
		c := analysis.NewCDFInts(byKind[k])
		body += fmt.Sprintf("users %-22s n=%-4d median=%.0f p90=%.0f\n", k, c.Len(), c.Quantile(0.5), c.Quantile(0.9))
	}
	printReport("Figure 5: prefixes per provider/user CDFs", body)
}

// BenchmarkFigure6CountryDistribution regenerates Figure 6: blackholing
// provider and user ASes per country.
func BenchmarkFigure6CountryDistribution(b *testing.B) {
	p := benchPipeline(b)
	res := benchWindow(b)
	b.ResetTimer()
	var provs, users map[string]int
	for i := 0; i < b.N; i++ {
		provs, users = analysis.Figure6(res.Events, p.Topo)
	}
	b.StopTimer()
	body := "top provider countries: "
	for _, c := range analysis.TopCountries(provs, 5) {
		body += fmt.Sprintf("%s=%d ", c.Country, c.Count)
	}
	body += "\ntop user countries:     "
	for _, c := range analysis.TopCountries(users, 5) {
		body += fmt.Sprintf("%s=%d ", c.Country, c.Count)
	}
	printReport("Figure 6: per-country distribution", body+"\n")
}

// BenchmarkFigure7aServices regenerates Figure 7(a): services running on
// blackholed prefixes.
func BenchmarkFigure7aServices(b *testing.B) {
	res := benchWindow(b)
	b.ResetTimer()
	var counts map[string]int
	for i := 0; i < b.N; i++ {
		m := analysis.Figure7a(res.Events, 42)
		counts = map[string]int{}
		for k, v := range m {
			counts[string(k)] = v
		}
	}
	b.StopTimer()
	body := ""
	for _, svc := range []string{"HTTP", "HTTPS", "SSH", "FTP", "Telnet", "DNS", "NTP", "SMTP", "IMAP", "NONE"} {
		body += fmt.Sprintf("%-7s %d\n", svc, counts[svc])
	}
	printReport("Figure 7a: services on blackholed prefixes", body)
}

// BenchmarkFigure7bProvidersPerEvent regenerates Figure 7(b): the
// histogram of blackholing providers per event.
func BenchmarkFigure7bProvidersPerEvent(b *testing.B) {
	res := benchWindow(b)
	b.ResetTimer()
	var h *analysis.Histogram
	for i := 0; i < b.N; i++ {
		h = analysis.Figure7b(res.Events)
	}
	b.StopTimer()
	body := ""
	multi := 0.0
	for _, k := range h.Keys() {
		body += fmt.Sprintf("%2d providers: %d events (%.1f%%)\n", k, h.Bins[k], 100*h.Fraction(k))
		if k > 1 {
			multi += h.Fraction(k)
		}
	}
	body += fmt.Sprintf("multi-provider events: %.0f%% (paper: 28%%)\n", multi*100)
	printReport("Figure 7b: providers per blackholing event", body)
}

// BenchmarkFigure7cASDistance regenerates Figure 7(c): the AS distance
// between collector and blackholing provider, including the no-path
// (bundling) bucket.
func BenchmarkFigure7cASDistance(b *testing.B) {
	res := benchWindow(b)
	b.ResetTimer()
	var h *analysis.Histogram
	for i := 0; i < b.N; i++ {
		h = analysis.Figure7c(res.Events)
	}
	b.StopTimer()
	body := ""
	for _, k := range h.Keys() {
		label := fmt.Sprint(k)
		if k == core.NoPath {
			label = "no-path"
		}
		body += fmt.Sprintf("%-8s %8d (%.1f%%)\n", label, h.Bins[k], 100*h.Fraction(k))
	}
	printReport("Figure 7c: collector-provider AS distance", body)
}

// BenchmarkFigure8Durations regenerates Figure 8: event-duration CDFs
// (ungrouped vs 5-minute-grouped) and the duration regimes.
func BenchmarkFigure8Durations(b *testing.B) {
	res := benchWindow(b)
	b.ResetTimer()
	var ungrouped, grouped []time.Duration
	for i := 0; i < b.N; i++ {
		ungrouped, grouped = analysis.Figure8(res.Events, core.DefaultGroupTimeout)
	}
	b.StopTimer()
	cu, cg := analysis.NewCDFDurations(ungrouped), analysis.NewCDFDurations(grouped)
	body := fmt.Sprintf("ungrouped: n=%d  <=1min: %.0f%%  >16h: %.1f%%\n",
		cu.Len(), 100*cu.FractionAtOrBelow(60), 100*(1-cu.FractionAtOrBelow(16*3600)))
	body += fmt.Sprintf("grouped:   n=%d  <=1min: %.0f%%  >16h: %.1f%%\n",
		cg.Len(), 100*cg.FractionAtOrBelow(60), 100*(1-cg.FractionAtOrBelow(16*3600)))
	r := analysis.RegimesOf(ungrouped)
	body += fmt.Sprintf("regimes (ungrouped): short=%d long=%d very-long=%d\n", r.Short, r.Long, r.VeryLong)
	printReport("Figure 8: blackholing durations", body)
}

// dataplaneMeasurements runs the §10 traceroute campaign against the
// window's final-day events.
func dataplaneMeasurements(b *testing.B) []dataplane.PathMeasurement {
	p := benchPipeline(b)
	res := benchWindow(b)
	sim := &dataplane.Simulator{Topo: p.Topo}
	r := rand.New(rand.NewSource(42))
	var ms []dataplane.PathMeasurement
	n := 0
	// Merge the day's propagations per prefix: a victim probing ON/OFF
	// or blackholing at several providers accumulates one drop state.
	type merged struct {
		user bgp.ASN
		bh   *dataplane.BlackholeState
	}
	byPrefix := map[netip.Prefix]*merged{}
	var order []netip.Prefix
	for _, pr := range res.LastDayResults {
		if !pr.Prefix.IsValid() || !pr.Prefix.Addr().Is4() {
			continue
		}
		if len(pr.DroppingASes) == 0 && len(pr.DroppingIXPMembers) == 0 {
			continue
		}
		m := byPrefix[pr.Prefix]
		if m == nil {
			m = &merged{user: pr.User, bh: &dataplane.BlackholeState{
				Prefix:             pr.Prefix,
				DroppingASes:       map[bgp.ASN]bool{},
				DroppingIXPMembers: map[int]map[bgp.ASN]bool{},
			}}
			byPrefix[pr.Prefix] = m
			order = append(order, pr.Prefix)
		}
		for a := range pr.DroppingASes {
			m.bh.DroppingASes[a] = true
		}
		for xid, drops := range pr.DroppingIXPMembers {
			if m.bh.DroppingIXPMembers[xid] == nil {
				m.bh.DroppingIXPMembers[xid] = map[bgp.ASN]bool{}
			}
			for a := range drops {
				m.bh.DroppingIXPMembers[xid][a] = true
			}
		}
	}
	// Measure the well-covered events first: victims that blackholed at
	// every upstream are the ones whose mitigation §10 can observe.
	covered := func(m *merged) bool {
		as := p.Topo.AS(m.user)
		if as == nil || len(as.Providers) == 0 {
			return false
		}
		for _, prov := range as.Providers {
			if !m.bh.DroppingASes[prov] {
				return false
			}
		}
		return true
	}
	// Measure only well-covered events (victims that blackholed at every
	// upstream): these are the ones whose mitigation the paper's live
	// campaign could observe. Fall back to everything if none exist.
	for pass := 0; pass < 2 && n == 0; pass++ {
		for _, pfx := range order {
			if n >= 120 {
				break
			}
			m := byPrefix[pfx]
			if pass == 0 && !covered(m) {
				continue
			}
			ms = append(ms, sim.MeasureEvent(m.user, pfx, m.bh, r, 4)...)
			n++
		}
	}
	return ms
}

// BenchmarkFigure9aIPPaths regenerates Figure 9(a): IP-level path-length
// impact of blackholing.
func BenchmarkFigure9aIPPaths(b *testing.B) {
	ms := dataplaneMeasurements(b)
	b.ResetTimer()
	var sample analysis.Figure9Sample
	for i := 0; i < b.N; i++ {
		sample = analysis.Figure9ab(ms)
	}
	b.StopTimer()
	c := analysis.NewCDFInts(sample.IPDiffs)
	shorter := 1 - c.FractionAtOrBelow(0)
	body := fmt.Sprintf("paths: n=%d  mean IP-hop shortening=%.1f  shorter-during: %.0f%% (paper: 5.9 hops, >80%%)\n",
		c.Len(), c.Mean(), 100*shorter)
	printReport("Figure 9a: IP-level path impact", body)
}

// BenchmarkFigure9bASPaths regenerates Figure 9(b): AS-level path
// shortening.
func BenchmarkFigure9bASPaths(b *testing.B) {
	ms := dataplaneMeasurements(b)
	b.ResetTimer()
	var sample analysis.Figure9Sample
	for i := 0; i < b.N; i++ {
		sample = analysis.Figure9ab(ms)
	}
	b.StopTimer()
	c := analysis.NewCDFInts(sample.ASDiffs)
	body := fmt.Sprintf("paths: n=%d  mean AS-hop shortening=%.1f (paper: 2-4 AS hops)\n", c.Len(), c.Mean())
	printReport("Figure 9b: AS-level path impact", body)
}

// BenchmarkFigure9cIXPTraffic regenerates Figure 9(c): one week of IXP
// traffic toward blackholed prefixes, dropped vs forwarded.
func BenchmarkFigure9cIXPTraffic(b *testing.B) {
	p := benchPipeline(b)
	res := benchWindow(b)
	// Pick the largest blackholing IXP and victims blackholed there.
	var x *topology.IXP
	for _, cand := range p.Topo.BlackholingIXPs() {
		if x == nil || len(cand.Members) > len(x.Members) {
			x = cand
		}
	}
	var victims []dataplane.VictimSpec
	seen := map[netip.Prefix]bool{}
	for _, pr := range res.LastDayResults {
		if drops, ok := pr.DroppingIXPMembers[x.ID]; ok && len(victims) < 4 && !seen[pr.Prefix] {
			seen[pr.Prefix] = true
			victims = append(victims, dataplane.VictimSpec{Prefix: pr.Prefix, Honoring: drops})
		}
	}
	if len(victims) == 0 {
		// Synthetic fallback: all members honour.
		honor := map[bgp.ASN]bool{}
		for _, m := range x.Members {
			honor[m] = true
		}
		victims = append(victims, dataplane.VictimSpec{
			Prefix: netip.MustParsePrefix("31.0.0.1/32"), Honoring: honor})
	}
	victims = append(victims, dataplane.VictimSpec{
		Prefix: netip.MustParsePrefix("31.0.0.2/32"), ControlPlaneOnly: true})
	start := time.Date(2017, 3, 20, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	var series [][]dataplane.TrafficPoint
	for i := 0; i < b.N; i++ {
		series = dataplane.SimulateIXPTraffic(x, victims, start, 7*24*time.Hour, dataplane.DefaultIPFIXConfig())
	}
	b.StopTimer()
	body := ""
	for i, s := range series {
		kind := "blackholed"
		if victims[i].ControlPlaneOnly {
			kind = "control-plane only (misconfigured)"
		}
		body += fmt.Sprintf("prefix %-18s [%s] drop fraction over week: %.0f%%\n",
			victims[i].Prefix, kind, 100*dataplane.DropFraction(s))
	}
	printReport("Figure 9c: IXP traffic to blackholed prefixes", body)
}
