package dictionary

import (
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/topology"
	"bgpblackholing/internal/workload"
)

func announce(prefix string, comms ...bgp.Community) *bgp.Update {
	return &bgp.Update{
		Announced:   []netip.Prefix{netip.MustParsePrefix(prefix)},
		Communities: comms,
	}
}

func knownDict() *Dictionary {
	d := New()
	d.addEntry(bgp.MakeCommunity(3356, 9999), topology.DocIRR, 3356, -1, 32, "")
	return d
}

func TestInferFindsUndocumentedBlackholeCommunity(t *testing.T) {
	d := knownDict()
	c := NewCollector(d)
	undoc := bgp.MakeCommunity(7018, 666)
	known := bgp.MakeCommunity(3356, 9999)
	// Bundled announcements: undocumented community rides along with the
	// known one, always on /32s (distinct victims; repeated identical
	// applications count once).
	for i := 0; i < 5; i++ {
		c.Observe(announce(fmt.Sprintf("192.0.2.%d/32", i+1), known, undoc))
	}
	res := c.Infer()
	if len(res.Inferred) != 1 {
		t.Fatalf("inferred %d communities, want 1", len(res.Inferred))
	}
	e := res.Inferred[0]
	if e.Community != undoc || e.Providers[0] != 7018 {
		t.Fatalf("inferred %+v", e)
	}
}

func TestInferRejectsWithoutCoOccurrence(t *testing.T) {
	d := knownDict()
	c := NewCollector(d)
	undoc := bgp.MakeCommunity(7018, 666)
	for i := 0; i < 5; i++ {
		c.Observe(announce("192.0.2.1/32", undoc))
	}
	if res := c.Infer(); len(res.Inferred) != 0 {
		t.Fatalf("inferred %v without co-occurrence", res.Inferred)
	}
}

func TestInferRejectsCoarsePrefixUsage(t *testing.T) {
	d := knownDict()
	c := NewCollector(d)
	te := bgp.MakeCommunity(7018, 100)
	known := bgp.MakeCommunity(3356, 9999)
	// TE community mostly on /24 and shorter; one bundled /32.
	for i := 0; i < 10; i++ {
		c.Observe(announce("198.51.100.0/24", te))
	}
	c.Observe(announce("192.0.2.1/32", known, te))
	if res := c.Infer(); len(res.Inferred) != 0 {
		t.Fatalf("inferred %v for a /24-dominant community", res.Inferred)
	}
}

func TestInferRejectsPrivateASNHighBits(t *testing.T) {
	d := knownDict()
	c := NewCollector(d)
	known := bgp.MakeCommunity(3356, 9999)
	private := bgp.MakeCommunity(65001, 666) // 65001 is a private ASN
	zero := bgp.MakeCommunity(0, 667)
	for i := 0; i < 5; i++ {
		c.Observe(announce("192.0.2.1/32", known, private, zero))
	}
	if res := c.Infer(); len(res.Inferred) != 0 {
		t.Fatalf("inferred %v despite non-public high bits", res.Inferred)
	}
}

func TestInferRejectsDocumentedNonBlackhole(t *testing.T) {
	d := knownDict()
	peering := bgp.MakeCommunity(7018, 666)
	d.nonBlackhole[peering] = []bgp.ASN{7018}
	c := NewCollector(d)
	known := bgp.MakeCommunity(3356, 9999)
	for i := 0; i < 5; i++ {
		c.Observe(announce("192.0.2.1/32", known, peering))
	}
	if res := c.Infer(); len(res.Inferred) != 0 {
		t.Fatalf("inferred %v despite non-blackhole documentation", res.Inferred)
	}
}

func TestInferRequiresMinimumSupport(t *testing.T) {
	d := knownDict()
	c := NewCollector(d)
	known := bgp.MakeCommunity(3356, 9999)
	undoc := bgp.MakeCommunity(7018, 666)
	c.Observe(announce("192.0.2.1/32", known, undoc)) // only 1 occurrence
	if res := c.Infer(); len(res.Inferred) != 0 {
		t.Fatalf("inferred %v below support threshold", res.Inferred)
	}
}

func TestStatsFractions(t *testing.T) {
	d := knownDict()
	c := NewCollector(d)
	comm := bgp.MakeCommunity(7018, 100)
	c.Observe(announce("198.51.100.0/24", comm))
	c.Observe(announce("203.0.113.0/24", comm))
	c.Observe(announce("192.0.2.1/32", comm))
	// A duplicate application is counted once.
	c.Observe(announce("192.0.2.1/32", comm))
	s := c.stats[comm]
	if s.Total != 3 {
		t.Fatalf("total = %d", s.Total)
	}
	if got := s.FractionAtLen(24); got < 0.66 || got > 0.67 {
		t.Fatalf("FractionAtLen(24) = %v", got)
	}
	if got := s.FractionMoreSpecificThan24(); got < 0.33 || got > 0.34 {
		t.Fatalf("FractionMoreSpecificThan24 = %v", got)
	}
	var empty CommunityStats
	if empty.FractionAtLen(32) != 0 || empty.FractionMoreSpecificThan24() != 0 {
		t.Fatal("zero-total stats should report 0")
	}
}

func TestObserveIgnoresWithdrawalsAndBareAnnouncements(t *testing.T) {
	d := knownDict()
	c := NewCollector(d)
	c.Observe(&bgp.Update{Withdrawn: []netip.Prefix{netip.MustParsePrefix("192.0.2.0/24")}})
	c.Observe(announce("192.0.2.1/32")) // no communities
	if len(c.stats) != 0 {
		t.Fatalf("stats = %v, want empty", c.stats)
	}
}

// observeReference is Observe before seen was packed: a filtered IPv4
// copy of every update, deduplicated on (community, netip.Prefix).
func observeReference(d *Dictionary, stats map[bgp.Community]*CommunityStats, seen map[struct {
	c bgp.Community
	p netip.Prefix
}]bool, u *bgp.Update) {
	var v4 []netip.Prefix
	for _, p := range u.Announced {
		if p.Addr().Is4() {
			v4 = append(v4, p)
		}
	}
	if len(v4) == 0 || len(u.Communities) == 0 {
		return
	}
	hasKnown := false
	for _, comm := range u.Communities {
		hasKnown = hasKnown || d.Lookup(comm) != nil
	}
	for _, comm := range u.Communities {
		s := stats[comm]
		if s == nil {
			s = &CommunityStats{Community: comm, LenCounts: map[int]int{}}
			stats[comm] = s
		}
		for _, p := range v4 {
			key := struct {
				c bgp.Community
				p netip.Prefix
			}{comm, p}
			if !seen[key] {
				seen[key] = true
				s.LenCounts[p.Bits()]++
				s.Total++
			}
		}
		if hasKnown && d.Lookup(comm) == nil {
			s.CoOccurredWithKnown = true
		}
	}
}

// replayUpdates is a ten-day replay plus a window of ordinary churn, with
// every third announcement folded into one multi-prefix update with its
// successor, an IPv6 prefix and its own first address at /31, masked and
// not, so the corpus mixes v4/v6, single/multi-prefix updates and one
// address at several lengths.
func replayUpdates(t *testing.T, topo *topology.Topology) []*bgp.Update {
	t.Helper()
	dep := collector.Deploy(topo, collector.DefaultConfig().Scaled(0.2))
	sc := workload.NewScenario(topo, workload.DefaultConfig().Scaled(0.3))
	obs := dep.OrdinaryUpdates(workload.TimelineStart, 5000)
	for day := 640; day < 650; day++ {
		o, _ := workload.Materialize(dep, topo, sc.IntentsForDay(day), 42)
		obs = append(obs, o...)
	}
	v6 := netip.MustParsePrefix("2001:db8::1/128")
	var out []*bgp.Update
	for i, o := range obs {
		u := o.Update
		if i%3 == 0 && i+1 < len(obs) && len(u.Announced) > 0 {
			m := *u
			at31 := netip.PrefixFrom(u.Announced[0].Addr(), 31)
			m.Announced = append(append(slices.Clone(u.Announced), v6, at31, at31.Masked()), obs[i+1].Update.Announced...)
			u = &m
		}
		out = append(out, u)
	}
	return out
}

// TestObserveMatchesPrefixKeyedReference checks the packed seen key
// against the netip.Prefix-keyed dedup it replaced, over one replay.
func TestObserveMatchesPrefixKeyedReference(t *testing.T) {
	topo, docs := worldAndCorpus(t)
	d := FromCorpus(docs)
	d.AddPrivateFromTopology(topo)
	c := NewCollector(d)
	ref := &Collector{dict: d, stats: map[bgp.Community]*CommunityStats{}}
	refSeen := map[struct {
		c bgp.Community
		p netip.Prefix
	}]bool{}
	multi, v6 := 0, 0
	for _, u := range replayUpdates(t, topo) {
		c.Observe(u)
		observeReference(d, ref.stats, refSeen, u)
		if len(u.Announced) > 1 {
			multi++
		}
		if slices.ContainsFunc(u.Announced, func(p netip.Prefix) bool { return p.Addr().Is6() }) {
			v6++
		}
	}
	got, want := c.Infer(), ref.Infer()
	if multi == 0 || v6 == 0 || len(want.Stats) == 0 || len(want.Inferred) == 0 {
		t.Fatalf("replay too thin: %d multi-prefix, %d v6 updates, %d communities, %d inferred",
			multi, v6, len(want.Stats), len(want.Inferred))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Infer() differs from the netip.Prefix-keyed reference")
	}
}

// TestObserveSeenAllocatesNothing: a (community, prefix) application the
// collector has seen costs no allocation, whatever else the update holds.
func TestObserveSeenAllocatesNothing(t *testing.T) {
	c := NewCollector(knownDict())
	u := &bgp.Update{
		Announced: []netip.Prefix{netip.MustParsePrefix("192.0.2.1/32"),
			netip.MustParsePrefix("2001:db8::1/128"), netip.MustParsePrefix("198.51.100.0/24")},
		Communities: []bgp.Community{bgp.MakeCommunity(3356, 9999), bgp.MakeCommunity(7018, 666)},
	}
	c.Observe(u)
	if n := testing.AllocsPerRun(100, func() { c.Observe(u) }); n != 0 {
		t.Fatalf("Observe of a seen update: %v allocs, want 0", n)
	}
}
