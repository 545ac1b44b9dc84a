// Package enrich answers "was this blackholing legitimate" at query
// time: it annotates stored blackholing events with the RPKI validity
// of the victim prefix (RFC 6811, §2's RPKI-strict providers), the
// documentation status of each matched blackhole community against the
// IRR/web-derived dictionary (§4.1), and a combined legitimacy verdict
// reflecting the §10 misconfiguration classes — a victim whose ROA caps
// maxLength rendering its own /32 Invalid, announcements tagged with
// communities the provider never documented, or prefixes more specific
// than the provider's documented acceptance policy.
//
// Judging an event is pure lookup in the indexed ROA registry and the
// dictionary maps, and spells no string but constants: per-origin states,
// per-community docs and length checks, typed reasons, the verdict.
// Annotate renders one judgement; Tally renders each distinct reason once.
package enrich

import (
	"fmt"
	"slices"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/core"
	"bgpblackholing/internal/dictionary"
	"bgpblackholing/internal/rpki"
	"bgpblackholing/internal/topology"
)

// Legitimacy verdicts, from clean to condemned.
const (
	// VerdictLegitimate: no origin is RPKI-Invalid, every matched
	// community is documented, and the prefix respects every documented
	// acceptance length.
	VerdictLegitimate = "legitimate"
	// VerdictQuestionable: mixed signals — some (not all) origins
	// Invalid, some (not all) communities undocumented, or a documented
	// length cap exceeded.
	VerdictQuestionable = "questionable"
	// VerdictIllegitimate: every inferred origin is RPKI-Invalid (an
	// RPKI-strict provider rejects the announcement outright), or no
	// matched community is documented anywhere.
	VerdictIllegitimate = "illegitimate"
)

// Community documentation statuses (CommunityDoc.Doc).
const (
	DocIRR          = "irr"
	DocWeb          = "web"
	DocPrivate      = "private"
	DocUndocumented = "undocumented"
)

// OriginValidity is the RFC 6811 outcome for one inferred origin.
type OriginValidity struct {
	Origin bgp.ASN `json:"origin"`
	// State is "valid", "invalid" or "not-found".
	State string `json:"state"`
}

// CommunityDoc is the documentation status of one matched community.
type CommunityDoc struct {
	Community string `json:"community"`
	// Doc is "irr", "web", "private" or "undocumented".
	Doc string `json:"doc"`
	// MaxPrefixLen is the provider's documented most-specific accepted
	// length (0 when undocumented or unstated).
	MaxPrefixLen int `json:"max_prefix_len,omitempty"`
	// WithinMaxLen reports whether the event prefix respects
	// MaxPrefixLen (true when no length is documented).
	WithinMaxLen bool `json:"within_max_len"`
}

// Annotation is the legitimacy view of one event.
type Annotation struct {
	// RPKI holds one validity per inferred origin, ascending by ASN.
	RPKI []OriginValidity `json:"rpki,omitempty"`
	// Communities holds one documentation status per matched community,
	// sorted by community notation.
	Communities []CommunityDoc `json:"community_doc,omitempty"`
	// Legitimacy is the combined verdict: "legitimate", "questionable"
	// or "illegitimate".
	Legitimacy string `json:"legitimacy"`
	// Reasons name every signal that pulled the verdict below
	// legitimate, in a stable order.
	Reasons []string `json:"reasons,omitempty"`
}

// RPKISummary folds the per-origin states into one: "valid" when any
// origin validates, else "invalid" when any covering ROA exists, else
// "not-found".
func (a Annotation) RPKISummary() string { return SummarizeRPKI(a.RPKI) }

// SummarizeRPKI folds per-origin validation states with the valid-wins
// precedence RPKISummary documents; CLI renderers use it on wire
// records, so the fold lives in exactly one place.
func SummarizeRPKI(states []OriginValidity) string {
	summary := rpki.NotFound.String()
	for _, ov := range states {
		if ov.State == rpki.Valid.String() {
			return ov.State
		}
		if ov.State == rpki.Invalid.String() {
			summary = ov.State
		}
	}
	return summary
}

// Annotator computes legitimacy annotations from a deployment's ROA
// registry and blackhole-communities dictionary. Either may be nil —
// the corresponding section is simply absent (and never condemns).
// Annotate is safe for concurrent use.
//
// An annotator keeps nothing per event. Stored events are immutable and
// the world (registry + dictionary) is fixed for an annotator's
// lifetime, so annotating an event again gives the same answer: an
// alert's verdict and a later enrich=1 query agree without either
// remembering the other, and an event the store erases is not held
// here. Build a fresh annotator if the world changes.
type Annotator struct {
	rpki *rpki.Registry
	dict *dictionary.Dictionary
}

// New builds an annotator over a registry and a dictionary.
func New(reg *rpki.Registry, dict *dictionary.Dictionary) *Annotator {
	return &Annotator{rpki: reg, dict: dict}
}

// AnnotateUncached is Annotate: there is no cache to go around. It
// stays only because bench/bhbench/probe_alert.go calls it and bench/
// changes in benchmark PRs alone; the next one retires it.
func (a *Annotator) AnnotateUncached(ev *core.Event) Annotation {
	return a.Annotate(ev)
}

// Annotate computes the legitimacy view of one event. A nil annotator
// has none: the zero Annotation, which adds nothing to a record.
func (a *Annotator) Annotate(ev *core.Event) Annotation {
	var ann Annotation
	if a == nil {
		return ann
	}
	var scratch [4]reason
	reasons := a.judge(ev, &ann, scratch[:0])
	for i := range ann.Communities {
		ann.Communities[i].Community = ev.Communities[i].String()
	}
	if len(reasons) > 0 {
		ann.Reasons = make([]string, len(reasons))
		for i, r := range reasons {
			ann.Reasons[i] = r.String()
		}
	}
	return ann
}

// reason is one signal that pulled a verdict below legitimate.
type reason struct {
	kind      byte // 'r' rpki-invalid origin, 'l' over-length, 'u' undocumented community
	origin    bgp.ASN
	community bgp.Community
	bits, cap int
}

func (r reason) String() string {
	switch r.kind {
	case 'r':
		return fmt.Sprintf("rpki-invalid at origin AS%d", r.origin)
	case 'l':
		return fmt.Sprintf("prefix /%d exceeds documented max /%d for community %s", r.bits, r.cap, r.community)
	}
	return fmt.Sprintf("undocumented community %s", r.community)
}

// judge is the one copy of the legitimacy rules. It refills ann, reusing
// its slices, with what Annotate returns except each community's
// Community and the Reasons, and appends the reasons, typed, to reasons.
func (a *Annotator) judge(ev *core.Event, ann *Annotation, reasons []reason) []reason {
	ann.RPKI, ann.Communities = ann.RPKI[:0], ann.Communities[:0]

	// (a) RFC 6811 validity of the victim prefix at each inferred
	// origin, through the registry's indexed covering lookup.
	invalid := 0
	if a.rpki != nil {
		if cap(ann.RPKI) < len(ev.Users) {
			ann.RPKI = make([]OriginValidity, 0, len(ev.Users))
		}
		for _, origin := range ev.Users {
			st := a.rpki.Validate(ev.Prefix, origin)
			ann.RPKI = append(ann.RPKI, OriginValidity{Origin: origin, State: st.String()})
			if st == rpki.Invalid {
				invalid++
				reasons = append(reasons, reason{kind: 'r', origin: origin})
			}
		}
	}

	// (b) Documentation status of each matched community, and whether
	// the victim prefix respects the documented acceptance length.
	undocumented, overLen := 0, 0
	if a.dict != nil {
		if cap(ann.Communities) < len(ev.Communities) {
			ann.Communities = make([]CommunityDoc, 0, len(ev.Communities))
		}
		for _, c := range ev.Communities {
			cd := CommunityDoc{Doc: DocUndocumented, WithinMaxLen: true}
			if e := a.dict.Lookup(c); e != nil {
				cd.Doc = docString(e.Doc)
				cd.MaxPrefixLen = e.MaxPrefixLen
				// A documented cap of /32 or shorter is an IPv4-policy
				// statement; judging an IPv6 victim (up to /128) against
				// it would flag every v6 blackhole as over-length.
				capLen := e.MaxPrefixLen
				if !ev.Prefix.Addr().Is4() && capLen <= 32 {
					capLen = 0
				}
				if capLen > 0 && ev.Prefix.Bits() > capLen {
					cd.WithinMaxLen = false
					overLen++
					reasons = append(reasons, reason{kind: 'l', community: c, bits: ev.Prefix.Bits(), cap: capLen})
				}
			}
			if cd.Doc == DocUndocumented {
				undocumented++
				reasons = append(reasons, reason{kind: 'u', community: c})
			}
			ann.Communities = append(ann.Communities, cd)
		}
	}

	// (c) The combined verdict.
	switch {
	case len(ann.RPKI) > 0 && invalid == len(ann.RPKI):
		ann.Legitimacy = VerdictIllegitimate
	case len(ann.Communities) > 0 && undocumented == len(ann.Communities):
		ann.Legitimacy = VerdictIllegitimate
	case invalid > 0 || undocumented > 0 || overLen > 0:
		ann.Legitimacy = VerdictQuestionable
	default:
		ann.Legitimacy = VerdictLegitimate
	}
	return reasons
}

// tallied names what Tally counts in fixed arrays: verdicts, folded RPKI
// states and documentation statuses (indexed by topology.DocSource).
var tallied = [3][]string{
	{VerdictLegitimate, VerdictQuestionable, VerdictIllegitimate},
	{rpki.Valid.String(), rpki.Invalid.String(), rpki.NotFound.String()},
	{topology.DocNone: DocUndocumented, topology.DocIRR: DocIRR, topology.DocWeb: DocWeb, topology.DocPrivate: DocPrivate},
}

// docString renders a topology documentation source for the wire.
func docString(d topology.DocSource) string {
	if d < 0 || int(d) >= len(tallied[2]) {
		d = topology.DocNone
	}
	return tallied[2][d]
}

// Tally counts the judgements of the events scan observes into the
// /legitimacy histograms, keys counted only, and returns how many there
// were. Verdicts, folded RPKI states and documentation statuses count in
// fixed arrays, reasons by value; one judgement's slices serve every
// event, and each distinct reason is rendered once, at the end.
func (a *Annotator) Tally(scan func(observe func(*core.Event)) error, legitimacy, rpkiStates, communityDoc, reasons map[string]int) (total int, err error) {
	var ann Annotation
	var judged []reason
	var counts [len(tallied)][4]int // as tallied names them
	counted := map[reason]int{}
	err = scan(func(ev *core.Event) {
		judged = a.judge(ev, &ann, judged[:0])
		total++
		counts[0][slices.Index(tallied[0], ann.Legitimacy)]++
		if len(ann.RPKI) > 0 {
			counts[1][slices.Index(tallied[1], ann.RPKISummary())]++
		}
		for _, cd := range ann.Communities {
			counts[2][slices.Index(tallied[2], cd.Doc)]++
		}
		for _, r := range judged {
			counted[r]++
		}
	})
	for h, hist := range [...]map[string]int{legitimacy, rpkiStates, communityDoc} {
		for i, name := range tallied[h] {
			if n := counts[h][i]; n > 0 {
				hist[name] += n
			}
		}
	}
	for r, n := range counted {
		reasons[r.String()] += n
	}
	return total, err
}
