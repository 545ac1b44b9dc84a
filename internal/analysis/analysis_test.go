package analysis

import (
	"cmp"
	"net/netip"
	"strings"
	"testing"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/core"
	"bgpblackholing/internal/dataplane"
	"bgpblackholing/internal/dictionary"
	"bgpblackholing/internal/topology"
)

var t0 = time.Date(2016, 8, 1, 0, 0, 0, 0, time.UTC)

func mkEvent(prefix string, provider core.ProviderRef, user bgp.ASN, startMin, endMin int, platforms ...collector.Platform) *core.Event {
	ev := &core.Event{
		Prefix:        netip.MustParsePrefix(prefix),
		Start:         t0.Add(time.Duration(startMin) * time.Minute),
		End:           t0.Add(time.Duration(endMin) * time.Minute),
		Providers:     []core.ProviderRef{provider},
		Users:         []bgp.ASN{user},
		Platforms:     core.SetOf(cmp.Compare[collector.Platform], platforms...),
		ProviderUsers: []core.Keyed[core.ProviderRef, []bgp.ASN]{{Key: provider, Val: []bgp.ASN{user}}},
	}
	for _, p := range ev.Platforms {
		ev.ProvidersByPlatform = append(ev.ProvidersByPlatform, core.Keyed[collector.Platform, []core.ProviderRef]{Key: p, Val: []core.ProviderRef{provider}})
		ev.UsersByPlatform = append(ev.UsersByPlatform, core.Keyed[collector.Platform, []bgp.ASN]{Key: p, Val: []bgp.ASN{user}})
	}
	return ev
}

func asRef(asn bgp.ASN) core.ProviderRef { return core.ProviderRef{Kind: core.ProviderAS, ASN: asn} }
func ixpRef(id int) core.ProviderRef     { return core.ProviderRef{Kind: core.ProviderIXP, IXPID: id} }

func miniTopo() *topology.Topology {
	topo := &topology.Topology{ASes: map[bgp.ASN]*topology.AS{}}
	add := func(asn bgp.ASN, kind topology.Kind, country string) {
		topo.ASes[asn] = &topology.AS{ASN: asn, DeclaredKind: kind, CAIDAKind: kind, Country: country}
		topo.Order = append(topo.Order, asn)
	}
	add(100, topology.KindTransitAccess, "RU")
	add(150, topology.KindTransitAccess, "US")
	add(200, topology.KindContent, "DE")
	add(300, topology.KindEnterprise, "BR")
	topo.IXPs = []*topology.IXP{{ID: 0, Name: "IXP-0", Country: "DE",
		PeeringLAN: netip.MustParsePrefix("23.0.0.0/22")}}
	return topo
}

func TestCDF(t *testing.T) {
	c := NewCDFInts([]int{1, 2, 2, 3, 10})
	if c.Len() != 5 {
		t.Fatal("len")
	}
	if got := c.FractionAtOrBelow(2); got != 0.6 {
		t.Fatalf("F(2) = %v", got)
	}
	if got := c.FractionAtOrBelow(0); got != 0 {
		t.Fatalf("F(0) = %v", got)
	}
	if got := c.FractionAtOrBelow(10); got != 1 {
		t.Fatalf("F(10) = %v", got)
	}
	if got := c.Quantile(0.5); got != 2 {
		t.Fatalf("median = %v", got)
	}
	if got := c.Mean(); got != 3.6 {
		t.Fatalf("mean = %v", got)
	}
	var empty CDF
	if empty.FractionAtOrBelow(1) != 0 || empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty CDF should report zeros")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]int{-1, -1, 0, 1, 1, 1})
	if h.Total() != 6 {
		t.Fatal("total")
	}
	if h.Fraction(1) != 0.5 {
		t.Fatalf("fraction(1) = %v", h.Fraction(1))
	}
	keys := h.Keys()
	if len(keys) != 3 || keys[0] != -1 || keys[2] != 1 {
		t.Fatalf("keys = %v", keys)
	}
}

func TestTable3AttributionAndUniques(t *testing.T) {
	events := []*core.Event{
		mkEvent("31.0.0.1/32", asRef(100), 200, 0, 10, collector.PlatformRIS, collector.PlatformCDN),
		mkEvent("31.0.0.2/32", asRef(150), 300, 0, 10, collector.PlatformCDN),
		mkEvent("31.0.0.3/32", ixpRef(0), 200, 0, 10, collector.PlatformPCH),
	}
	events[0].DirectFeed = true
	events[0].DirectProviders = []core.ProviderRef{asRef(100)}
	rows := Table3(events, nil)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table3Row{}
	for _, r := range rows {
		byName[r.Source] = r
	}
	cdn := byName["CDN"]
	if cdn.Providers != 2 || cdn.Prefixes != 2 {
		t.Fatalf("CDN row = %+v", cdn)
	}
	// AS150 is CDN-only: one unique provider; user 300 CDN-only.
	if cdn.UniqueProviders != 1 || cdn.UniqueUsers != 1 || cdn.UniquePrefixes != 1 {
		t.Fatalf("CDN uniques = %+v", cdn)
	}
	pch := byName["PCH"]
	if pch.Providers != 1 || pch.UniquePrefixes != 1 {
		t.Fatalf("PCH row = %+v", pch)
	}
	all := byName["ALL"]
	if all.Providers != 3 || all.Users != 2 || all.Prefixes != 3 {
		t.Fatalf("ALL row = %+v", all)
	}
	if all.DirectFeedFrac <= 0 {
		t.Fatal("direct feed fraction missing")
	}
	if out := FormatTable3(rows); !strings.Contains(out, "ALL") {
		t.Fatal("format missing ALL row")
	}
}

func TestTable4GroupsByProviderType(t *testing.T) {
	topo := miniTopo()
	events := []*core.Event{
		mkEvent("31.0.0.1/32", asRef(100), 200, 0, 10, collector.PlatformRIS),
		mkEvent("31.0.0.2/32", asRef(100), 300, 0, 10, collector.PlatformRIS),
		mkEvent("31.0.0.3/32", ixpRef(0), 200, 0, 10, collector.PlatformPCH),
	}
	rows := Table4(events, topo, nil)
	byKind := map[topology.Kind]Table4Row{}
	for _, r := range rows {
		byKind[r.Type] = r
	}
	ta := byKind[topology.KindTransitAccess]
	if ta.Providers != 1 || ta.Users != 2 || ta.Prefixes != 2 {
		t.Fatalf("transit row = %+v", ta)
	}
	ixp := byKind[topology.KindIXP]
	if ixp.Providers != 1 || ixp.Prefixes != 1 {
		t.Fatalf("IXP row = %+v", ixp)
	}
	if out := FormatTable4(rows); !strings.Contains(out, "IXP") {
		t.Fatal("format")
	}
}

func TestFigure4DailyCounts(t *testing.T) {
	// Event spanning days 0-2 and another on day 1 only.
	ev1 := mkEvent("31.0.0.1/32", asRef(100), 200, 0, 3*24*60-1, collector.PlatformRIS)
	ev2 := mkEvent("31.0.0.2/32", asRef(150), 300, 24*60, 24*60+30, collector.PlatformRIS)
	series := Figure4([]*core.Event{ev1, ev2}, t0, 4)
	if len(series) != 4 {
		t.Fatal("series length")
	}
	if series[0].Prefixes != 1 || series[1].Prefixes != 2 || series[2].Prefixes != 1 || series[3].Prefixes != 0 {
		t.Fatalf("prefix series = %+v", series)
	}
	if series[1].Providers != 2 || series[1].Users != 2 {
		t.Fatalf("day1 = %+v", series[1])
	}
	daily := FormatFigure4(series, 1)
	if !strings.Contains(daily, "#Prefixes") || strings.Count(daily, "\n") != len(series)+2 {
		t.Fatalf("format:\n%s", daily)
	}
	// A step below one samples every day, as bhquery's -every 0 asks.
	for _, every := range []int{0, -1} {
		if out := FormatFigure4(series, every); out != daily {
			t.Fatalf("every=%d:\n%s\nwant the every-day table:\n%s", every, out, daily)
		}
	}
}

func TestFigure5Splits(t *testing.T) {
	topo := miniTopo()
	events := []*core.Event{
		mkEvent("31.0.0.1/32", asRef(100), 200, 0, 10, collector.PlatformRIS),
		mkEvent("31.0.0.2/32", asRef(100), 200, 0, 10, collector.PlatformRIS),
		mkEvent("31.0.0.3/32", ixpRef(0), 300, 0, 10, collector.PlatformPCH),
	}
	transit, ixp := Figure5a(events, topo)
	if len(transit) != 1 || transit[0] != 2 {
		t.Fatalf("transit = %v", transit)
	}
	if len(ixp) != 1 || ixp[0] != 1 {
		t.Fatalf("ixp = %v", ixp)
	}
	byKind := Figure5b(events, topo)
	if got := byKind[topology.KindContent]; len(got) != 1 || got[0] != 2 {
		t.Fatalf("content users = %v", got)
	}
	if got := byKind[topology.KindEnterprise]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("enterprise users = %v", got)
	}
}

func TestFigure6Countries(t *testing.T) {
	topo := miniTopo()
	events := []*core.Event{
		mkEvent("31.0.0.1/32", asRef(100), 200, 0, 10, collector.PlatformRIS),
		mkEvent("31.0.0.2/32", ixpRef(0), 300, 0, 10, collector.PlatformPCH),
	}
	provs, users := Figure6(events, topo)
	if provs["RU"] != 1 || provs["DE"] != 1 {
		t.Fatalf("providers = %v", provs)
	}
	if users["DE"] != 1 || users["BR"] != 1 {
		t.Fatalf("users = %v", users)
	}
	top := TopCountries(provs, 1)
	if len(top) != 1 {
		t.Fatal("top countries")
	}
}

func TestFigure7bc(t *testing.T) {
	ev1 := mkEvent("31.0.0.1/32", asRef(100), 200, 0, 10, collector.PlatformRIS)
	ev1.Providers = append(ev1.Providers, asRef(150))
	ev1.ProviderDistances = []core.Keyed[core.ProviderRef, int]{{Key: asRef(100), Val: 1}, {Key: asRef(150), Val: core.NoPath}}
	ev2 := mkEvent("31.0.0.2/32", asRef(100), 200, 0, 10, collector.PlatformRIS)
	ev2.ProviderDistances = []core.Keyed[core.ProviderRef, int]{{Key: asRef(100), Val: core.NoPath}}
	events := []*core.Event{ev1, ev2}

	h := Figure7b(events)
	if h.Bins[2] != 1 || h.Bins[1] != 1 {
		t.Fatalf("7b bins = %v", h.Bins)
	}
	hc := Figure7c(events)
	if hc.Bins[core.NoPath] != 2 || hc.Bins[1] != 1 {
		t.Fatalf("7c bins = %v", hc.Bins)
	}
}

func TestFigure7aServices(t *testing.T) {
	var events []*core.Event
	for i := 0; i < 500; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{31, byte(i >> 8), byte(i), 1}), 32)
		ev := mkEvent(p.String(), asRef(100), 200, 0, 10, collector.PlatformRIS)
		events = append(events, ev)
	}
	counts := Figure7a(events, 42)
	if counts["HTTP"] == 0 || counts["NONE"] == 0 {
		t.Fatalf("7a counts = %v", counts)
	}
	if counts["HTTP"] < counts["Telnet"] {
		t.Fatal("HTTP should dominate Telnet")
	}
}

func TestFigure8GroupingEffect(t *testing.T) {
	// Three 1-minute events 3 minutes apart: ungrouped all short,
	// grouped one long period.
	var events []*core.Event
	for i := 0; i < 3; i++ {
		events = append(events, mkEvent("31.0.0.1/32", asRef(100), 200, i*4, i*4+1, collector.PlatformRIS))
	}
	ungrouped, grouped := Figure8(events, core.DefaultGroupTimeout)
	if len(ungrouped) != 3 || len(grouped) != 1 {
		t.Fatalf("ungrouped=%d grouped=%d", len(ungrouped), len(grouped))
	}
	cdfU := NewCDFDurations(ungrouped)
	if cdfU.FractionAtOrBelow(60) != 1 {
		t.Fatal("all ungrouped should be <= 1 minute")
	}
	if grouped[0] != 9*time.Minute {
		t.Fatalf("grouped duration = %v", grouped[0])
	}
	regimes := RegimesOf(grouped)
	if regimes.Short != 1 {
		t.Fatalf("regimes = %+v", regimes)
	}
}

func TestFigure8SkipsDumpSeeded(t *testing.T) {
	ev := mkEvent("31.0.0.1/32", asRef(100), 200, 0, 10, collector.PlatformRIS)
	ev.StartUnknown = true
	ungrouped, _ := Figure8([]*core.Event{ev}, core.DefaultGroupTimeout)
	if len(ungrouped) != 0 {
		t.Fatal("dump-seeded event counted in duration CDF")
	}
}

func TestFigure9abFiltersUnreachableAfter(t *testing.T) {
	ms := []dataplane.PathMeasurement{
		{
			During: dataplane.TraceResult{Hops: make([]dataplane.Hop, 3)},
			After:  dataplane.TraceResult{Hops: make([]dataplane.Hop, 9), Reached: true},
		},
		{
			During: dataplane.TraceResult{Hops: make([]dataplane.Hop, 3)},
			After:  dataplane.TraceResult{Hops: make([]dataplane.Hop, 4), Reached: false},
		},
	}
	out := Figure9ab(ms)
	if len(out.IPDiffs) != 1 || out.IPDiffs[0] != 6 {
		t.Fatalf("IP diffs = %v", out.IPDiffs)
	}
}

func TestFigure2Summary(t *testing.T) {
	d := dictionary.New()
	// Register one blackhole community via a synthetic corpus-free path:
	// use the collector to observe, with a dictionary that knows 100:666.
	docs := []struct{}{}
	_ = docs
	// Build dictionary with one entry through FromCorpus-equivalent: use
	// AddPrivate (exercises the private-communication path).
	d.AddPrivate(bgp.MakeCommunity(100, 666), 100, 32)
	d.AddNonBlackhole(bgp.MakeCommunity(100, 120), 100)
	col := dictionary.NewCollector(d)
	// Blackhole community on /32s; TE community on /24s.
	for i := 0; i < 10; i++ {
		col.Observe(&bgp.Update{
			Announced:   []netip.Prefix{netip.MustParsePrefix("31.0.0.1/32")},
			Communities: []bgp.Community{bgp.MakeCommunity(100, 666)},
		})
		col.Observe(&bgp.Update{
			Announced:   []netip.Prefix{netip.MustParsePrefix("31.0.0.0/24")},
			Communities: []bgp.Community{bgp.MakeCommunity(100, 120)},
		})
	}
	res := col.Infer()
	points := Figure2(res.Stats, d)
	if len(points) != 2 {
		t.Fatalf("points = %+v", points)
	}
	rows := SummarizeFigure2(res.Stats, d)
	if len(rows) != 2 {
		t.Fatal("summary rows")
	}
	var bh, te Figure2SummaryRow
	for _, r := range rows {
		if r.IsBlackhole {
			bh = r
		} else {
			te = r
		}
	}
	if bh.MeanFracAt32 != 1 {
		t.Fatalf("blackhole /32 mass = %v", bh.MeanFracAt32)
	}
	if te.MeanFracAtOrPre24 != 1 {
		t.Fatalf("TE /24 mass = %v", te.MeanFracAtOrPre24)
	}
}

func TestFormatTableAlignment(t *testing.T) {
	out := FormatTable([]string{"A", "BBBB"}, [][]string{{"xx", "y"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
}
