package core

import (
	"net/netip"
	"slices"
	"testing"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/dictionary"
	"bgpblackholing/internal/irr"
	"bgpblackholing/internal/stream"
	"bgpblackholing/internal/topology"
)

var t0 = time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)

// testWorld builds a minimal topology + hand-made dictionary:
//   - AS 100: documented blackholing provider, community 100:666
//   - AS 150: second provider sharing community 0:666 with AS 100
//   - IXP 0: route server AS 59000, LAN 23.0.0.0/22, community 65535:666
func testWorld() (*topology.Topology, *dictionary.Dictionary) {
	topo := &topology.Topology{ASes: map[bgp.ASN]*topology.AS{}}
	for _, asn := range []bgp.ASN{100, 150, 200, 300} {
		topo.ASes[asn] = &topology.AS{ASN: asn, Country: "DE",
			DeclaredKind: topology.KindTransitAccess, CAIDAKind: topology.KindTransitAccess}
		topo.Order = append(topo.Order, asn)
	}
	topo.IXPs = []*topology.IXP{{
		ID: 0, Name: "IXP-0", RouteServerASN: 59000,
		PeeringLAN:      netip.MustParsePrefix("23.0.0.0/22"),
		Members:         []bgp.ASN{200, 300},
		BlackholingIPv4: netip.MustParseAddr("23.0.0.66"),
		Blackholing: &topology.BlackholeService{
			Communities: []bgp.Community{bgp.CommunityBlackhole}, MaxPrefixLen: 32},
	}}

	// Build the dictionary from a tiny synthetic corpus so the test also
	// exercises the extraction path.
	docs := []irr.Document{
		{Source: irr.SourceIRR, ASN: 100, IXPID: -1,
			Text: "aut-num: AS100\nremarks: 100:666 blackhole\nremarks: 0:666 legacy null-route community\n"},
		{Source: irr.SourceIRR, ASN: 150, IXPID: -1,
			Text: "aut-num: AS150\nremarks: 0:666 null route\n"},
		{Source: irr.SourceWeb, ASN: 0, IXPID: 0,
			Text: "IXP-0 offers blackholing. Announce with community 65535:666.\n"},
	}
	dict := dictionary.FromCorpus(docs)
	return topo, dict
}

func announce(peerIP string, peerAS bgp.ASN, offset time.Duration, prefix string, path []bgp.ASN, comms ...bgp.Community) *bgp.Update {
	return &bgp.Update{
		Time:        t0.Add(offset),
		PeerIP:      netip.MustParseAddr(peerIP),
		PeerAS:      peerAS,
		Announced:   []netip.Prefix{netip.MustParsePrefix(prefix)},
		Path:        bgp.NewPath(path...),
		Communities: comms,
	}
}

func withdraw(peerIP string, peerAS bgp.ASN, offset time.Duration, prefix string) *bgp.Update {
	return &bgp.Update{
		Time:      t0.Add(offset),
		PeerIP:    netip.MustParseAddr(peerIP),
		PeerAS:    peerAS,
		Withdrawn: []netip.Prefix{netip.MustParsePrefix(prefix)},
	}
}

func TestClassifyProviderOnPath(t *testing.T) {
	topo, dict := testWorld()
	e := NewEngine(dict, topo)
	u := announce("22.0.1.1", 100, 0, "31.0.0.1/32",
		[]bgp.ASN{100, 200}, bgp.MakeCommunity(100, 666))
	det := e.Classify(u)
	if det == nil {
		t.Fatal("no detection")
	}
	if len(det.Providers) != 1 {
		t.Fatalf("providers = %v", det.Providers)
	}
	inf := det.Providers[0]
	if inf.Provider != (ProviderRef{Kind: ProviderAS, ASN: 100}) {
		t.Fatalf("provider = %v", inf.Provider)
	}
	if inf.User != 200 {
		t.Fatalf("user = %v, want 200 (hop before provider)", inf.User)
	}
	if inf.ASDistance != 1 {
		t.Fatalf("distance = %d, want 1 (collector peers with provider)", inf.ASDistance)
	}
}

// TestClassifyLargeCommunity: an update tagged only with a documented
// RFC 8092 large community is a blackholing announcement (§4.1). The
// provider is the AS whose document lists the community, the user is
// the hop before it, and the event's community is the large one's global
// and first local field as a standard community.
func TestClassifyLargeCommunity(t *testing.T) {
	topo, _ := testWorld()
	lc := bgp.LargeCommunity{Global: 64512, Local1: 666, Local2: 0}
	dict := dictionary.FromCorpus([]irr.Document{{Source: irr.SourceIRR, ASN: 64512, IXPID: -1,
		Text: "aut-num: AS64512\nremarks: 64512:666:0 blackhole (large community format)\n"}})
	if dict.LookupLarge(lc) == nil || len(dict.Entries()) != 0 {
		t.Fatalf("the corpus documents %d large and %d standard entries, want the large %v alone", len(dict.LargeEntries()), len(dict.Entries()), lc)
	}
	u := announce("22.0.1.1", 64512, 0, "31.0.0.1/32", []bgp.ASN{64512, 200})
	u.LargeCommunities = []bgp.LargeCommunity{lc}
	det := NewEngine(dict, topo).Classify(u)
	want := ProviderInference{Provider: ProviderRef{Kind: ProviderAS, ASN: 64512}, User: 200, Community: bgp.MakeCommunity(64512, 666), ASDistance: 1}
	if det == nil || len(det.Providers) != 1 || det.Providers[0] != want {
		t.Fatalf("an update tagged %v: %+v, want the one inference %+v", lc, det, want)
	}
}

func TestClassifyBundledNoPath(t *testing.T) {
	topo, dict := testWorld()
	e := NewEngine(dict, topo)
	// Observed via a peer that is NOT the provider; provider 100 absent
	// from path — community bundling (§4.2, Fig 3).
	u := announce("22.0.2.1", 300, 0, "31.0.0.1/32",
		[]bgp.ASN{300, 200}, bgp.MakeCommunity(100, 666))
	det := e.Classify(u)
	if det == nil {
		t.Fatal("bundled announcement not detected")
	}
	inf := det.Providers[0]
	if inf.ASDistance != NoPath {
		t.Fatalf("distance = %d, want NoPath", inf.ASDistance)
	}
	if inf.User != 200 {
		t.Fatalf("user = %v, want path origin 200", inf.User)
	}
}

func TestClassifyAmbiguousSharedCommunity(t *testing.T) {
	topo, dict := testWorld()
	e := NewEngine(dict, topo)
	shared := bgp.MakeCommunity(0, 666) // honoured by AS 100 and AS 150

	// Provider 150 on path: resolves to 150 only.
	u := announce("22.0.2.1", 150, 0, "31.0.0.1/32", []bgp.ASN{150, 200}, shared)
	det := e.Classify(u)
	if det == nil || len(det.Providers) != 1 {
		t.Fatalf("det = %+v", det)
	}
	if det.Providers[0].Provider.ASN != 150 {
		t.Fatalf("provider = %v, want 150", det.Providers[0].Provider)
	}

	// Neither candidate on path: the update is not considered (§4.2).
	u = announce("22.0.2.1", 300, 0, "31.0.0.1/32", []bgp.ASN{300, 200}, shared)
	if det := e.Classify(u); det != nil {
		t.Fatalf("ambiguous community wrongly classified: %+v", det)
	}
}

func TestClassifyIXPViaRouteServerASN(t *testing.T) {
	topo, dict := testWorld()
	e := NewEngine(dict, topo)
	u := announce("22.0.3.1", 59000, 0, "31.0.0.1/32",
		[]bgp.ASN{59000, 200}, bgp.CommunityBlackhole)
	det := e.Classify(u)
	if det == nil {
		t.Fatal("IXP blackholing not detected")
	}
	inf := det.Providers[0]
	if inf.Provider != (ProviderRef{Kind: ProviderIXP, IXPID: 0}) {
		t.Fatalf("provider = %v", inf.Provider)
	}
	if inf.User != 200 || inf.ASDistance != 0 {
		t.Fatalf("user=%v dist=%d", inf.User, inf.ASDistance)
	}
}

func TestClassifyIXPViaPeerIP(t *testing.T) {
	topo, dict := testWorld()
	e := NewEngine(dict, topo)
	// Transparent route server: RS ASN absent, but the peer IP lies in
	// the IXP LAN; user is the peer-as.
	u := announce("23.0.0.10", 200, 0, "31.0.0.1/32",
		[]bgp.ASN{200}, bgp.CommunityBlackhole)
	det := e.Classify(u)
	if det == nil {
		t.Fatal("transparent RS blackholing not detected")
	}
	inf := det.Providers[0]
	if inf.Provider.Kind != ProviderIXP || inf.User != 200 || inf.ASDistance != 0 {
		t.Fatalf("inf = %+v", inf)
	}
}

func TestClassifyIXPNotTraversed(t *testing.T) {
	topo, dict := testWorld()
	e := NewEngine(dict, topo)
	// 65535:666 but neither RS on path nor peer IP in any LAN: no
	// provider can be confirmed.
	u := announce("22.0.9.1", 300, 0, "31.0.0.1/32",
		[]bgp.ASN{300, 200}, bgp.CommunityBlackhole)
	if det := e.Classify(u); det != nil {
		t.Fatalf("unconfirmed IXP community classified: %+v", det)
	}
}

func TestClassifyIgnoresUnknownAndPlainUpdates(t *testing.T) {
	topo, dict := testWorld()
	e := NewEngine(dict, topo)
	if det := e.Classify(announce("22.0.1.1", 100, 0, "31.0.0.1/32", []bgp.ASN{100, 200})); det != nil {
		t.Fatal("update without communities classified")
	}
	if det := e.Classify(announce("22.0.1.1", 100, 0, "31.0.0.1/32",
		[]bgp.ASN{100, 200}, bgp.MakeCommunity(100, 100))); det != nil {
		t.Fatal("unknown community classified")
	}
}

func TestClassifyPrependingRemoved(t *testing.T) {
	topo, dict := testWorld()
	e := NewEngine(dict, topo)
	u := announce("22.0.1.1", 100, 0, "31.0.0.1/32",
		[]bgp.ASN{100, 100, 100, 200, 200}, bgp.MakeCommunity(100, 666))
	det := e.Classify(u)
	if det == nil || det.Providers[0].User != 200 {
		t.Fatalf("prepending not removed: %+v", det)
	}
	if det.Providers[0].ASDistance != 1 {
		t.Fatalf("distance = %d with prepending", det.Providers[0].ASDistance)
	}
}

func TestEventLifecycleExplicitWithdrawal(t *testing.T) {
	topo, dict := testWorld()
	e := NewEngine(dict, topo)
	bh := bgp.MakeCommunity(100, 666)
	e.ProcessUpdate(announce("22.0.1.1", 100, 0, "31.0.0.1/32", []bgp.ASN{100, 200}, bh), "rrc00", collector.PlatformRIS)
	if e.ActiveCount() != 1 {
		t.Fatalf("active = %d", e.ActiveCount())
	}
	e.ProcessUpdate(withdraw("22.0.1.1", 100, 10*time.Minute, "31.0.0.1/32"), "rrc00", collector.PlatformRIS)
	if e.ActiveCount() != 0 {
		t.Fatal("event still active after withdrawal")
	}
	evs := e.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %d", len(evs))
	}
	ev := evs[0]
	if ev.Duration() != 10*time.Minute {
		t.Fatalf("duration = %v", ev.Duration())
	}
	if !slices.Contains(ev.Providers, ProviderRef{Kind: ProviderAS, ASN: 100}) {
		t.Fatal("provider missing on event")
	}
	if !slices.Contains(ev.Users, 200) {
		t.Fatal("user missing on event")
	}
	if !ev.DirectFeed {
		t.Fatal("peer is the provider: DirectFeed should be true")
	}
}

func TestEventLifecycleImplicitWithdrawal(t *testing.T) {
	topo, dict := testWorld()
	e := NewEngine(dict, topo)
	bh := bgp.MakeCommunity(100, 666)
	e.ProcessUpdate(announce("22.0.1.1", 100, 0, "31.0.0.1/32", []bgp.ASN{100, 200}, bh), "rrc00", collector.PlatformRIS)
	// Re-announcement of the same prefix at the same peer without the
	// blackhole community is an implicit withdrawal (§4.2).
	e.ProcessUpdate(announce("22.0.1.1", 100, 7*time.Minute, "31.0.0.1/32", []bgp.ASN{100, 200}), "rrc00", collector.PlatformRIS)
	if e.ActiveCount() != 0 {
		t.Fatal("implicit withdrawal not detected")
	}
	evs := e.Events()
	if len(evs) != 1 || evs[0].Duration() != 7*time.Minute {
		t.Fatalf("events = %+v", evs)
	}
}

func TestEventCrossPeerCorrelation(t *testing.T) {
	topo, dict := testWorld()
	e := NewEngine(dict, topo)
	bh := bgp.MakeCommunity(100, 666)
	// Two peers see the blackholing; the event ends only when the last
	// peer stops seeing it.
	e.ProcessUpdate(announce("22.0.1.1", 100, 0, "31.0.0.1/32", []bgp.ASN{100, 200}, bh), "rrc00", collector.PlatformRIS)
	e.ProcessUpdate(announce("22.0.2.1", 300, time.Minute, "31.0.0.1/32", []bgp.ASN{300, 200}, bh), "route-views0", collector.PlatformRV)
	e.ProcessUpdate(withdraw("22.0.1.1", 100, 5*time.Minute, "31.0.0.1/32"), "rrc00", collector.PlatformRIS)
	if e.ActiveCount() != 1 {
		t.Fatal("event ended while a peer still sees it")
	}
	e.ProcessUpdate(withdraw("22.0.2.1", 300, 9*time.Minute, "31.0.0.1/32"), "route-views0", collector.PlatformRV)
	if e.ActiveCount() != 0 {
		t.Fatal("event not ended")
	}
	evs := e.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %d, want 1 correlated", len(evs))
	}
	ev := evs[0]
	if ev.Duration() != 9*time.Minute {
		t.Fatalf("duration = %v, want 9m (max across peers)", ev.Duration())
	}
	if len(ev.Peers) != 2 || !slices.Equal(ev.Platforms, []collector.Platform{collector.PlatformRIS, collector.PlatformRV}) {
		t.Fatalf("peers/platforms = %v/%v", ev.Peers, ev.Platforms)
	}
}

func TestInitFromRIBStartUnknown(t *testing.T) {
	topo, dict := testWorld()
	e := NewEngine(dict, topo)
	entries := []bgp.RIBEntry{{
		Prefix:      netip.MustParsePrefix("31.0.0.1/32"),
		PeerIP:      netip.MustParseAddr("22.0.1.1"),
		PeerAS:      100,
		Path:        bgp.NewPath(100, 200),
		Communities: []bgp.Community{bgp.MakeCommunity(100, 666)},
	}}
	e.InitFromRIB(entries, t0, "rrc00", collector.PlatformRIS)
	if e.ActiveCount() != 1 {
		t.Fatal("dump-seeded event not active")
	}
	e.Flush(t0.Add(time.Hour))
	evs := e.Events()
	if len(evs) != 1 || !evs[0].StartUnknown {
		t.Fatalf("events = %+v, want StartUnknown", evs)
	}
}

func TestFlushClosesActiveEvents(t *testing.T) {
	topo, dict := testWorld()
	e := NewEngine(dict, topo)
	bh := bgp.MakeCommunity(100, 666)
	e.ProcessUpdate(announce("22.0.1.1", 100, 0, "31.0.0.1/32", []bgp.ASN{100, 200}, bh), "rrc00", collector.PlatformRIS)
	e.ProcessUpdate(announce("22.0.1.1", 100, 0, "31.0.0.2/32", []bgp.ASN{100, 200}, bh), "rrc00", collector.PlatformRIS)
	e.Flush(t0.Add(2 * time.Hour))
	if e.ActiveCount() != 0 || len(e.Events()) != 2 {
		t.Fatalf("active=%d events=%d", e.ActiveCount(), len(e.Events()))
	}
	for _, ev := range e.Events() {
		if ev.Duration() != 2*time.Hour {
			t.Fatalf("flushed duration = %v", ev.Duration())
		}
	}
}

func TestEngineCleansBogons(t *testing.T) {
	topo, dict := testWorld()
	e := NewEngine(dict, topo)
	bh := bgp.MakeCommunity(100, 666)
	e.ProcessUpdate(announce("22.0.1.1", 100, 0, "10.0.0.1/32", []bgp.ASN{100, 200}, bh), "rrc00", collector.PlatformRIS)
	if e.ActiveCount() != 0 {
		t.Fatal("bogon prefix tracked")
	}
}

func TestEngineRunOverStream(t *testing.T) {
	topo, dict := testWorld()
	e := NewEngine(dict, topo)
	bh := bgp.MakeCommunity(100, 666)
	elems := []*stream.Elem{
		{Collector: "rrc00", Platform: collector.PlatformRIS,
			Update: announce("22.0.1.1", 100, 0, "31.0.0.1/32", []bgp.ASN{100, 200}, bh)},
		{Collector: "rrc00", Platform: collector.PlatformRIS,
			Update: withdraw("22.0.1.1", 100, time.Minute, "31.0.0.1/32")},
	}
	if err := e.Run(stream.FromElems(elems)); err != nil {
		t.Fatal(err)
	}
	if len(e.Events()) != 1 {
		t.Fatalf("events = %d", len(e.Events()))
	}
}

func TestGroupingFiveMinuteTimeout(t *testing.T) {
	p := netip.MustParsePrefix("31.0.0.1/32")
	mk := func(startMin, endMin int) *Event {
		return &Event{
			Prefix: p,
			Start:  t0.Add(time.Duration(startMin) * time.Minute),
			End:    t0.Add(time.Duration(endMin) * time.Minute),
		}
	}
	// ON/OFF probing: 1-minute events with 3-minute gaps group into one
	// period; a 20-minute gap starts a new period.
	events := []*Event{mk(0, 1), mk(4, 5), mk(8, 9), mk(29, 30)}
	periods := Group(events, DefaultGroupTimeout)
	if len(periods) != 2 {
		t.Fatalf("periods = %d, want 2", len(periods))
	}
	if periods[0].Duration() != 9*time.Minute {
		t.Fatalf("period 0 duration = %v", periods[0].Duration())
	}
	if len(periods[0].Events) != 3 || len(periods[1].Events) != 1 {
		t.Fatalf("period sizes = %d/%d", len(periods[0].Events), len(periods[1].Events))
	}
}

func TestGroupingSeparatePrefixes(t *testing.T) {
	mk := func(prefix string, startMin int) *Event {
		return &Event{
			Prefix: netip.MustParsePrefix(prefix),
			Start:  t0.Add(time.Duration(startMin) * time.Minute),
			End:    t0.Add(time.Duration(startMin+1) * time.Minute),
		}
	}
	periods := Group([]*Event{mk("31.0.0.1/32", 0), mk("31.0.0.2/32", 1)}, DefaultGroupTimeout)
	if len(periods) != 2 {
		t.Fatalf("periods = %d, want per-prefix grouping", len(periods))
	}
}

func TestProviderRefString(t *testing.T) {
	if (ProviderRef{Kind: ProviderAS, ASN: 100}).String() != "AS100" {
		t.Fatal("AS ref string")
	}
	if (ProviderRef{Kind: ProviderIXP, IXPID: 3}).String() != "ixp:3" {
		t.Fatal("IXP ref string")
	}
}

func TestSequentialEventsSamePrefix(t *testing.T) {
	topo, dict := testWorld()
	e := NewEngine(dict, topo)
	bh := bgp.MakeCommunity(100, 666)
	// ON/OFF pattern: announce, withdraw, announce again later.
	e.ProcessUpdate(announce("22.0.1.1", 100, 0, "31.0.0.1/32", []bgp.ASN{100, 200}, bh), "rrc00", collector.PlatformRIS)
	e.ProcessUpdate(withdraw("22.0.1.1", 100, time.Minute, "31.0.0.1/32"), "rrc00", collector.PlatformRIS)
	e.ProcessUpdate(announce("22.0.1.1", 100, 3*time.Minute, "31.0.0.1/32", []bgp.ASN{100, 200}, bh), "rrc00", collector.PlatformRIS)
	e.ProcessUpdate(withdraw("22.0.1.1", 100, 4*time.Minute, "31.0.0.1/32"), "rrc00", collector.PlatformRIS)
	evs := e.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2 separate ON periods", len(evs))
	}
	periods := Group(evs, DefaultGroupTimeout)
	if len(periods) != 1 {
		t.Fatalf("periods = %d, want 1 grouped", len(periods))
	}
}

// TestFlushForgetsPeers is the replay-then-live regression: Flush ends
// every peer's view along with the events, so an event another peer
// opens afterwards closes on that peer's withdrawal — not at the next
// flush, waiting for a peer that was flushed away.
func TestFlushForgetsPeers(t *testing.T) {
	topo, dict := testWorld()
	e := NewEngine(dict, topo)
	bh := bgp.MakeCommunity(100, 666)
	e.ProcessUpdate(announce("22.0.1.1", 100, 0, "31.0.0.1/32", []bgp.ASN{100, 200}, bh), "rrc00", collector.PlatformRIS)
	e.Flush(t0.Add(time.Hour))
	e.ProcessUpdate(announce("22.0.2.1", 300, 2*time.Hour, "31.0.0.1/32", []bgp.ASN{100, 200}, bh), "rrc00", collector.PlatformRIS)
	e.ProcessUpdate(withdraw("22.0.2.1", 300, 3*time.Hour, "31.0.0.1/32"), "rrc00", collector.PlatformRIS)
	evs := e.Events()
	if len(evs) != 2 || e.ActiveCount() != 0 {
		t.Fatalf("%d events, %d active; want 2 closed, 0 active", len(evs), e.ActiveCount())
	}
	if want := t0.Add(3 * time.Hour); !evs[1].End.Equal(want) {
		t.Fatalf("second event ends %v, want the withdrawal at %v", evs[1].End, want)
	}
	if len(evs[1].Peers) != 1 {
		t.Fatalf("second event has peers %v, want only the one that re-opened it", evs[1].Peers)
	}
}

// TestClosedPrefixesLeaveTheEngine checks that engine state is bounded
// by what is open, not by what was ever seen.
func TestClosedPrefixesLeaveTheEngine(t *testing.T) {
	topo, dict := testWorld()
	e := NewEngine(dict, topo)
	bh := bgp.MakeCommunity(100, 666)
	const cycles = 10000
	for i := 0; i < cycles; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{31, 1, byte(i >> 8), byte(i)}), 32).String()
		at := time.Duration(i) * time.Minute
		e.ProcessUpdate(announce("22.0.1.1", 100, at, p, []bgp.ASN{100, 200}, bh), "rrc00", collector.PlatformRIS)
		e.ProcessUpdate(withdraw("22.0.1.1", 100, at+time.Second, p), "rrc00", collector.PlatformRIS)
	}
	if len(e.Events()) != cycles {
		t.Fatalf("%d events closed, want %d", len(e.Events()), cycles)
	}
	if len(e.perPrefix) != 0 {
		t.Fatalf("%d prefixes still held after every event closed", len(e.perPrefix))
	}
}

// TestPeersAreSortedOnceAtClose holds what the engine writes when an
// event closes: its Peers ascending and once each, whatever order the
// peers arrived in and however often one left and came back while others
// held the event open, and a close only when the last active peer is
// gone. A peer that came back on another platform with the same
// inferences still adds that platform.
func TestPeersAreSortedOnceAtClose(t *testing.T) {
	topo, dict := testWorld()
	e := NewEngine(dict, topo)
	bh := bgp.MakeCommunity(100, 666)
	const p = "31.0.0.1/32"
	path := []bgp.ASN{300, 100, 200}
	peers := []string{"22.0.9.1", "22.0.5.1", "22.0.1.1", "10.0.0.1"} // descending
	for i, ip := range peers {
		e.ProcessUpdate(announce(ip, 300, time.Duration(i)*time.Minute, p, path, bh), "rrc00", collector.PlatformRIS)
	}
	open := func(step string) {
		t.Helper()
		if e.ActiveCount() != 1 || len(e.Events()) != 0 {
			t.Fatalf("%s: %d active, %d closed; want the event still open", step, e.ActiveCount(), len(e.Events()))
		}
	}
	for k := range 2 {
		at := time.Duration(10+2*k) * time.Minute
		e.ProcessUpdate(withdraw("22.0.5.1", 300, at, p), "rrc00", collector.PlatformRIS)
		open("22.0.5.1 withdrew")
		e.ProcessUpdate(announce("22.0.5.1", 300, at+time.Minute, p, path, bh), "route-views0", collector.PlatformRV)
		open("22.0.5.1 came back")
	}
	for _, ip := range peers[:3] {
		e.ProcessUpdate(withdraw(ip, 300, 20*time.Minute, p), "rrc00", collector.PlatformRIS)
		open(ip + " withdrew")
	}
	// A peer that already left ends nothing a second time.
	e.ProcessUpdate(withdraw("22.0.9.1", 300, 21*time.Minute, p), "rrc00", collector.PlatformRIS)
	open("22.0.9.1 withdrew again")
	if got := e.Metrics().ExplicitEnds; got != 5 {
		t.Fatalf("%d explicit ends, want 5", got)
	}
	e.Flush(t0.Add(time.Hour))
	evs := e.Events()
	if len(evs) != 1 || e.ActiveCount() != 0 {
		t.Fatalf("%d events, %d active after Flush; want 1 closed, 0 active", len(evs), e.ActiveCount())
	}
	ev := evs[0]
	want := []netip.Addr{netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("22.0.1.1"), netip.MustParseAddr("22.0.5.1"), netip.MustParseAddr("22.0.9.1")}
	if !slices.Equal(ev.Peers, want) {
		t.Fatalf("Peers = %v, want %v", ev.Peers, want)
	}
	if !slices.Equal(ev.Platforms, []collector.Platform{collector.PlatformRIS, collector.PlatformRV}) {
		t.Fatalf("Platforms = %v, want RIS and RV", ev.Platforms)
	}
	if err := ev.Check(); err != nil {
		t.Fatal(err)
	}
}
