package enrich

import (
	"cmp"
	"net/netip"
	"strings"
	"testing"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/core"
	"bgpblackholing/internal/dictionary"
	"bgpblackholing/internal/rpki"
)

func event(prefix string, users []uint32, comms ...bgp.Community) *core.Event {
	ev := &core.Event{
		Prefix:      netip.MustParsePrefix(prefix),
		Start:       time.Date(2015, 3, 1, 0, 0, 0, 0, time.UTC),
		End:         time.Date(2015, 3, 1, 1, 0, 0, 0, time.UTC),
		Communities: core.SetOf(cmp.Compare[bgp.Community], comms...),
	}
	for _, u := range users {
		ev.Users = core.SetOf(cmp.Compare[bgp.ASN], append(ev.Users, bgp.ASN(u))...)
	}
	return ev
}

func fixtureAnnotator() *Annotator {
	reg := &rpki.Registry{}
	// AS 65001's ROA allows host routes; AS 65002's caps at the
	// aggregate, stranding its /32 blackhole announcements.
	reg.Add(rpki.ROA{Prefix: netip.MustParsePrefix("10.1.0.0/16"), MaxLength: 32, ASN: 65001})
	reg.Add(rpki.ROA{Prefix: netip.MustParsePrefix("10.2.0.0/16"), MaxLength: 16, ASN: 65002})

	dict := dictionary.New()
	dict.AddPrivate(bgp.MakeCommunity(3356, 9999), 3356, 32)
	dict.AddPrivate(bgp.MakeCommunity(174, 666), 174, 24) // caps at /24
	return New(reg, dict)
}

func TestAnnotateLegitimate(t *testing.T) {
	a := fixtureAnnotator()
	ann := a.Annotate(event("10.1.2.3/32", []uint32{65001}, bgp.MakeCommunity(3356, 9999)))
	if ann.Legitimacy != VerdictLegitimate {
		t.Fatalf("verdict = %s (%v), want legitimate", ann.Legitimacy, ann.Reasons)
	}
	if len(ann.RPKI) != 1 || ann.RPKI[0].State != "valid" || ann.RPKI[0].Origin != 65001 {
		t.Fatalf("rpki = %+v", ann.RPKI)
	}
	if len(ann.Communities) != 1 || ann.Communities[0].Doc != DocPrivate || !ann.Communities[0].WithinMaxLen {
		t.Fatalf("communities = %+v", ann.Communities)
	}
	if ann.RPKISummary() != "valid" {
		t.Fatalf("summary = %s", ann.RPKISummary())
	}
}

func TestAnnotateRPKIInvalidAllOrigins(t *testing.T) {
	a := fixtureAnnotator()
	// The §2 wrinkle: the victim's own ROA caps maxLength at /16, so
	// the /32 blackhole announcement is Invalid at its only origin.
	ann := a.Annotate(event("10.2.0.9/32", []uint32{65002}, bgp.MakeCommunity(3356, 9999)))
	if ann.Legitimacy != VerdictIllegitimate {
		t.Fatalf("verdict = %s, want illegitimate", ann.Legitimacy)
	}
	if ann.RPKISummary() != "invalid" {
		t.Fatalf("summary = %s", ann.RPKISummary())
	}
	if len(ann.Reasons) == 0 || !strings.Contains(ann.Reasons[0], "rpki-invalid") {
		t.Fatalf("reasons = %v", ann.Reasons)
	}
}

func TestAnnotateMixedOriginsQuestionable(t *testing.T) {
	a := fixtureAnnotator()
	// One origin validates, one is wrong-origin Invalid: questionable.
	ann := a.Annotate(event("10.1.2.3/32", []uint32{65001, 65002}, bgp.MakeCommunity(3356, 9999)))
	if ann.Legitimacy != VerdictQuestionable {
		t.Fatalf("verdict = %s (%v), want questionable", ann.Legitimacy, ann.Reasons)
	}
	if ann.RPKISummary() != "valid" {
		t.Fatalf("summary = %s (any-valid wins)", ann.RPKISummary())
	}
}

func TestAnnotateUndocumentedCommunity(t *testing.T) {
	a := fixtureAnnotator()
	ann := a.Annotate(event("10.1.2.3/32", []uint32{65001}, bgp.MakeCommunity(9, 9)))
	if ann.Legitimacy != VerdictIllegitimate {
		t.Fatalf("verdict = %s, want illegitimate (only community undocumented)", ann.Legitimacy)
	}
	if ann.Communities[0].Doc != DocUndocumented {
		t.Fatalf("doc = %s", ann.Communities[0].Doc)
	}
	// A documented community alongside softens it to questionable.
	ann = a.Annotate(event("10.1.2.3/32", []uint32{65001},
		bgp.MakeCommunity(9, 9), bgp.MakeCommunity(3356, 9999)))
	if ann.Legitimacy != VerdictQuestionable {
		t.Fatalf("verdict = %s, want questionable", ann.Legitimacy)
	}
}

func TestAnnotateOverMaxLen(t *testing.T) {
	a := fixtureAnnotator()
	// AS174's documented policy caps at /24; a /32 trips the length check.
	ann := a.Annotate(event("10.1.2.3/32", []uint32{65001}, bgp.MakeCommunity(174, 666)))
	if ann.Legitimacy != VerdictQuestionable {
		t.Fatalf("verdict = %s (%v), want questionable", ann.Legitimacy, ann.Reasons)
	}
	cd := ann.Communities[0]
	if cd.WithinMaxLen || cd.MaxPrefixLen != 24 {
		t.Fatalf("community doc = %+v", cd)
	}
	// At /24 the same community is fine.
	ann = a.Annotate(event("10.1.2.0/24", []uint32{65001}, bgp.MakeCommunity(174, 666)))
	if ann.Legitimacy != VerdictLegitimate {
		t.Fatalf("verdict = %s (%v), want legitimate", ann.Legitimacy, ann.Reasons)
	}
}

func TestAnnotateIPv6NotJudgedByIPv4Cap(t *testing.T) {
	reg := &rpki.Registry{}
	reg.Add(rpki.ROA{Prefix: netip.MustParsePrefix("2001:db8::/32"), MaxLength: 128, ASN: 65001})
	dict := dictionary.New()
	dict.AddPrivate(bgp.MakeCommunity(3356, 9999), 3356, 32) // IPv4-scale cap
	dict.AddPrivate(bgp.MakeCommunity(174, 666), 174, 48)    // IPv6-scale cap
	a := New(reg, dict)

	// An IPv6 /128 victim must not be condemned by a /32 cap that can
	// only describe IPv4 policy.
	ann := a.Annotate(event("2001:db8::1/128", []uint32{65001}, bgp.MakeCommunity(3356, 9999)))
	if ann.Legitimacy != VerdictLegitimate || !ann.Communities[0].WithinMaxLen {
		t.Fatalf("v6 against v4 cap: %+v", ann)
	}
	// A cap deeper than /32 does constrain IPv6.
	ann = a.Annotate(event("2001:db8::1/128", []uint32{65001}, bgp.MakeCommunity(174, 666)))
	if ann.Legitimacy != VerdictQuestionable || ann.Communities[0].WithinMaxLen {
		t.Fatalf("v6 against /48 cap: %+v", ann)
	}
}

func TestAnnotateNotFoundIsNotCondemned(t *testing.T) {
	a := fixtureAnnotator()
	// No covering ROA at all: not-found, but absence of RPKI deployment
	// is not illegitimacy.
	ann := a.Annotate(event("192.0.2.1/32", []uint32{65009}, bgp.MakeCommunity(3356, 9999)))
	if ann.Legitimacy != VerdictLegitimate {
		t.Fatalf("verdict = %s (%v), want legitimate", ann.Legitimacy, ann.Reasons)
	}
	if ann.RPKI[0].State != "not-found" || ann.RPKISummary() != "not-found" {
		t.Fatalf("rpki = %+v", ann.RPKI)
	}
}

func TestAnnotateNilWorldSections(t *testing.T) {
	a := New(nil, nil)
	ann := a.Annotate(event("10.1.2.3/32", []uint32{65001}, bgp.MakeCommunity(3356, 9999)))
	if ann.Legitimacy != VerdictLegitimate || ann.RPKI != nil || ann.Communities != nil {
		t.Fatalf("nil-world annotation = %+v", ann)
	}
}
