package compliance

import (
	"cmp"
	"net/netip"
	"strings"
	"testing"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/core"
)

func event(prefix string, comms []bgp.Community, distances ...int) *core.Event {
	ev := &core.Event{
		Prefix:      netip.MustParsePrefix(prefix),
		Communities: core.SetOf(cmp.Compare[bgp.Community], comms...),
	}
	for i, d := range distances {
		ev.ProviderDistances = append(ev.ProviderDistances, core.Keyed[core.ProviderRef, int]{
			Key: core.ProviderRef{Kind: core.ProviderAS, ASN: bgp.ASN(100 + i)}, Val: d})
	}
	return ev
}

func TestAuditFullyCompliantEvent(t *testing.T) {
	ev := event("192.88.99.1/32",
		[]bgp.Community{bgp.CommunityBlackhole, bgp.CommunityNoExport}, 1)
	rep := AuditEvents([]*core.Event{ev})
	if rep.Events != 1 {
		t.Fatal("events")
	}
	for _, rule := range Rules() {
		if rep.Fraction(rule) != 1 {
			t.Fatalf("rule %q not satisfied", rule)
		}
	}
	if rep.FullyCompliant() != 1 {
		t.Fatal("event should be fully compliant")
	}
}

func TestAuditViolations(t *testing.T) {
	events := []*core.Event{
		// Proprietary community, no NO_EXPORT, /24 scope, propagated 3 hops.
		event("192.88.99.0/24", []bgp.Community{bgp.MakeCommunity(3356, 9999)}, 3),
		// Too coarse: /22.
		event("192.88.96.0/22", []bgp.Community{bgp.CommunityBlackhole}, 1),
	}
	rep := AuditEvents(events)
	if rep.Fraction(RuleStandardCommunity) != 0.5 {
		t.Fatalf("standard community = %v", rep.Fraction(RuleStandardCommunity))
	}
	if rep.Fraction(RuleNoExport) != 0 {
		t.Fatal("NO_EXPORT should fail for both")
	}
	if rep.Fraction(RuleHostRoute) != 0 {
		t.Fatal("host-route should fail for both")
	}
	if rep.Fraction(RuleNotTooCoarse) != 0.5 {
		t.Fatalf("coarse = %v", rep.Fraction(RuleNotTooCoarse))
	}
	if rep.Fraction(RuleNotPropagated) != 0.5 {
		t.Fatalf("propagated = %v", rep.Fraction(RuleNotPropagated))
	}
	if rep.FullyCompliant() != 0 {
		t.Fatal("nothing is fully compliant")
	}
	out := rep.Format()
	if !strings.Contains(out, "events audited: 2") || !strings.Contains(out, "fully compliant") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestAuditIPv6Coarseness(t *testing.T) {
	ok := event("2a00:1::1/128", []bgp.Community{bgp.CommunityBlackhole, bgp.CommunityNoExport}, 1)
	coarse := event("2a00:1::/40", []bgp.Community{bgp.CommunityBlackhole, bgp.CommunityNoExport}, 1)
	rep := AuditEvents([]*core.Event{ok, coarse})
	if rep.Fraction(RuleNotTooCoarse) != 0.5 {
		t.Fatalf("v6 coarse = %v", rep.Fraction(RuleNotTooCoarse))
	}
}

func TestNoPathDoesNotCountAsPropagated(t *testing.T) {
	ev := event("192.88.99.1/32",
		[]bgp.Community{bgp.CommunityBlackhole, bgp.CommunityNoExport}, core.NoPath)
	rep := AuditEvents([]*core.Event{ev})
	if rep.Fraction(RuleNotPropagated) != 1 {
		t.Fatal("bundling-only inference is not propagation evidence")
	}
}

func TestEmptyReport(t *testing.T) {
	rep := AuditEvents(nil)
	if rep.Fraction(RuleNoExport) != 0 || rep.FullyCompliant() != 0 {
		t.Fatal("empty report should be zeros")
	}
	if len(Rules()) != int(numRules) {
		t.Fatal("rules list")
	}
}
