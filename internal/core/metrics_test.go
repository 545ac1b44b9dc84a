package core

import (
	"testing"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/dictionary"
	"bgpblackholing/internal/irr"
)

func TestMetricsCounters(t *testing.T) {
	topo, dict := testWorld()
	e := NewEngine(dict, topo)
	bh := bgp.MakeCommunity(100, 666)

	// A bogon announcement is cleaned away entirely.
	e.ProcessUpdate(announce("22.0.1.1", 100, 0, "10.0.0.1/32", []bgp.ASN{100, 200}, bh), "rrc00", collector.PlatformRIS)
	// Two detections on one prefix each, one explicit end, one implicit.
	e.ProcessUpdate(announce("22.0.1.1", 100, time.Minute, "31.0.0.1/32", []bgp.ASN{100, 200}, bh), "rrc00", collector.PlatformRIS)
	e.ProcessUpdate(announce("22.0.1.1", 100, time.Minute, "31.0.0.2/32", []bgp.ASN{100, 200}, bh), "rrc00", collector.PlatformRIS)
	e.ProcessUpdate(withdraw("22.0.1.1", 100, 2*time.Minute, "31.0.0.1/32"), "rrc00", collector.PlatformRIS)
	e.ProcessUpdate(announce("22.0.1.1", 100, 3*time.Minute, "31.0.0.2/32", []bgp.ASN{100, 200}), "rrc00", collector.PlatformRIS)
	// A withdrawal for something never tracked counts nothing.
	e.ProcessUpdate(withdraw("22.0.1.1", 100, 4*time.Minute, "31.0.0.9/32"), "rrc00", collector.PlatformRIS)

	m := e.Metrics()
	if m.UpdatesCleaned != 1 {
		t.Fatalf("cleaned = %d", m.UpdatesCleaned)
	}
	if m.UpdatesProcessed != 5 {
		t.Fatalf("processed = %d", m.UpdatesProcessed)
	}
	if m.Detections != 2 {
		t.Fatalf("detections = %d", m.Detections)
	}
	if m.ExplicitEnds != 1 || m.ImplicitEnds != 1 {
		t.Fatalf("ends = %d/%d", m.ExplicitEnds, m.ImplicitEnds)
	}
	if m.EventsClosed != 2 {
		t.Fatalf("events closed = %d", m.EventsClosed)
	}

	// Flush counts too.
	e.ProcessUpdate(announce("22.0.1.1", 100, 5*time.Minute, "31.0.0.3/32", []bgp.ASN{100, 200}, bh), "rrc00", collector.PlatformRIS)
	e.Flush(t0.Add(time.Hour))
	if got := e.Metrics().EventsClosed; got != 3 {
		t.Fatalf("events closed after flush = %d", got)
	}
}

// TestUnresolvedIXPRefsAreCounted: an inference naming an IXP the
// topology lacks is dropped, and the drop is counted, once per update
// that names it.
func TestUnresolvedIXPRefsAreCounted(t *testing.T) {
	topo, _ := testWorld() // IXP 0 alone
	dict := dictionary.FromCorpus([]irr.Document{{Source: irr.SourceWeb, IXPID: 2,
		Text: "IXP-2 offers blackholing. Announce with community 65535:666.\n"}})
	if e := dict.Lookup(bgp.CommunityBlackhole); e == nil || len(e.IXPs) != 1 || e.IXPs[0] != 2 {
		t.Fatalf("dictionary entry %+v, want 65535:666 naming IXP 2", e)
	}
	e := NewEngine(dict, topo)
	for i := range 2 {
		e.ProcessUpdate(announce("23.0.0.5", 200, time.Duration(i)*time.Minute, "31.0.0.1/32", []bgp.ASN{200, 300}, bgp.CommunityBlackhole), "rrc00", collector.PlatformRIS)
	}
	if m := e.Metrics(); m.UnresolvedIXPRefs != 2 || m.Detections != 0 || m.UpdatesProcessed != 2 {
		t.Fatalf("metrics %+v, want 2 unresolved IXP references, 0 detections, 2 updates", m)
	}
	if e.ActiveCount() != 0 {
		t.Fatalf("%d events open, want none: the only inference was dropped", e.ActiveCount())
	}
}
