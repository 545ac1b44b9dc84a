package bgpblackholing

// End-to-end integration tests: the full detection pipeline must produce
// identical events whether it consumes live observations or replays the
// same updates from MRT archives (the bhgen → bhdetect path), and table
// dumps must seed events whose true start is unknown.

import (
	"bytes"
	"net/netip"
	"slices"
	"sort"
	"testing"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/core"
	"bgpblackholing/internal/mrt"
	"bgpblackholing/internal/stream"
	"bgpblackholing/internal/workload"
)

// eventSignature canonicalises an event for cross-run comparison.
type eventSignature struct {
	prefix   string
	start    int64
	end      int64
	nProv    int
	nPeers   int
	detCount int
}

func signatures(events []*core.Event) []eventSignature {
	out := make([]eventSignature, 0, len(events))
	for _, ev := range events {
		out = append(out, eventSignature{
			prefix:   ev.Prefix.String(),
			start:    ev.Start.Unix(),
			end:      ev.End.Unix(),
			nProv:    len(ev.Providers),
			nPeers:   len(ev.Peers),
			detCount: ev.Detections,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].prefix != out[j].prefix {
			return out[i].prefix < out[j].prefix
		}
		return out[i].start < out[j].start
	})
	return out
}

func TestMRTReplayMatchesLiveRun(t *testing.T) {
	p := smallPipeline(t)
	from, to := 846, 848
	flushAt := workload.TimelineStart.Add(time.Duration(to+30) * 24 * time.Hour)

	// Live run.
	live := core.NewEngine(p.Dict, p.Topo)
	var allObs []collector.Observation
	for day := from; day < to; day++ {
		obs, _ := workload.Materialize(p.Deploy, p.Topo, p.Scenario.IntentsForDay(day), p.Opts.Seed)
		allObs = append(allObs, obs...)
	}
	s := stream.FromObservations(allObs)
	if err := live.Run(s); err != nil {
		t.Fatal(err)
	}
	live.Flush(flushAt)

	// Archive run: write per-collector MRT, read back, merge, re-infer.
	perCollector := map[string][]collector.Observation{}
	colByName := map[string]*collector.Collector{}
	for _, c := range p.Deploy.Collectors {
		colByName[c.Name] = c
	}
	for _, o := range allObs {
		perCollector[o.Collector.Name] = append(perCollector[o.Collector.Name], o)
	}
	var names []string
	for n := range perCollector {
		names = append(names, n)
	}
	sort.Strings(names)
	var streams []stream.Stream
	for _, name := range names {
		var buf bytes.Buffer
		w := mrt.NewWriter(&buf)
		cs := stream.FromObservations(perCollector[name])
		for {
			el, err := cs.Next()
			if err != nil {
				break
			}
			if err := w.WriteUpdate(el.Update, colByName[name].IP, colByName[name].ASN); err != nil {
				t.Fatal(err)
			}
		}
		streams = append(streams, stream.FromMRT(mrt.NewReader(&buf), name, colByName[name].Platform))
	}
	replayed := core.NewEngine(p.Dict, p.Topo)
	if err := replayed.Run(stream.Merge(streams...)); err != nil {
		t.Fatal(err)
	}
	replayed.Flush(flushAt)

	a, b := signatures(live.Events()), signatures(replayed.Events())
	if len(a) == 0 {
		t.Fatal("live run produced no events")
	}
	if len(a) != len(b) {
		t.Fatalf("event counts differ: live %d vs replay %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs:\nlive   %+v\nreplay %+v", i, a[i], b[i])
		}
	}
}

func TestTableDumpSeedsEngineThroughMRT(t *testing.T) {
	p := smallPipeline(t)
	provider := p.Topo.BlackholingProviders()[0]
	comm := provider.Blackholing.Communities[0]
	victim := netip.MustParsePrefix("31.200.0.1/32")
	dumpTime := workload.TimelineStart.Add(800 * 24 * time.Hour)

	// Write a TABLE_DUMP_V2 snapshot containing a blackholed prefix.
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	pit := &mrt.PeerIndexTable{
		Time:        dumpTime,
		CollectorID: netip.MustParseAddr("22.0.0.1"),
		ViewName:    "rrc00",
		Peers: []mrt.Peer{{
			BGPID: netip.MustParseAddr("22.0.1.1"),
			IP:    netip.MustParseAddr("22.0.1.1"),
			AS:    provider.ASN,
		}},
	}
	if err := w.WritePeerIndexTable(pit); err != nil {
		t.Fatal(err)
	}
	rib := &mrt.RIB{
		Time:   dumpTime,
		Prefix: victim,
		Entries: []mrt.RIBEntry{{
			PeerIndex:      0,
			OriginatedTime: dumpTime.Add(-2 * time.Hour),
			Attrs: &bgp.Update{
				Origin:      bgp.OriginIGP,
				Path:        bgp.NewPath(provider.ASN, 65001),
				NextHop:     netip.MustParseAddr("22.0.1.2"),
				Communities: []bgp.Community{comm},
			},
		}},
	}
	if err := w.WriteRIB(rib); err != nil {
		t.Fatal(err)
	}

	// Read the dump back and seed the engine with it.
	r := mrt.NewReader(&buf)
	engine := core.NewEngine(p.Dict, p.Topo)
	for {
		rec, err := r.Next()
		if err != nil {
			break
		}
		if rr, ok := rec.(*mrt.RIB); ok {
			entries, err := r.ResolveRIB(rr)
			if err != nil {
				t.Fatal(err)
			}
			engine.InitFromRIB(entries, dumpTime, "rrc00", collector.PlatformRIS)
		}
	}
	if engine.ActiveCount() != 1 {
		t.Fatalf("active = %d after dump seeding", engine.ActiveCount())
	}

	// An explicit withdrawal ends the dump-seeded event.
	engine.ProcessUpdate(&bgp.Update{
		Time:      dumpTime.Add(30 * time.Minute),
		PeerIP:    netip.MustParseAddr("22.0.1.1"),
		PeerAS:    provider.ASN,
		Withdrawn: []netip.Prefix{victim},
	}, "rrc00", collector.PlatformRIS)
	evs := engine.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %d", len(evs))
	}
	if !evs[0].StartUnknown {
		t.Fatal("dump-seeded event should have unknown start")
	}
	if !slices.Contains(evs[0].Providers, core.ProviderRef{Kind: core.ProviderAS, ASN: provider.ASN}) {
		t.Fatal("provider missing")
	}
}

func TestLiveRunDeterministicAcrossPipelines(t *testing.T) {
	// Two pipelines from identical options must agree event for event.
	p1 := smallPipeline(t)
	p2 := smallPipeline(t)
	a := replay(t, p1, 847, 849)
	b := replay(t, p2, 847, 849)
	sa, sb := signatures(a.Events), signatures(b.Events)
	if len(sa) != len(sb) {
		t.Fatalf("counts differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}
