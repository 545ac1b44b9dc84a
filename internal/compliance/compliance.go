// Package compliance audits blackholing practice against the standards
// the paper's §11 discusses: RFC 7999 (the standard BLACKHOLE community
// 65535:666 and the requirement that blackhole announcements carry
// NO_EXPORT and stay local) and RFC 5635 (accept more-specifics up to
// host routes when tagged, never blackhole less-specific than /24).
//
// The checker consumes classified updates or closed events and produces
// per-rule verdicts, giving operators the "best common practices"
// scorecard the paper argues for.
package compliance

import (
	"fmt"
	"slices"
	"sort"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/core"
)

// Rule identifies one audited practice.
type Rule int

// Audited rules.
const (
	// RuleStandardCommunity: the announcement uses RFC 7999 65535:666
	// rather than a proprietary value.
	RuleStandardCommunity Rule = iota
	// RuleNoExport: the announcement carries NO_EXPORT, as RFC 7999
	// requires.
	RuleNoExport
	// RuleHostRoute: the blackholed prefix is a host route (the
	// recommended narrow scope).
	RuleHostRoute
	// RuleNotTooCoarse: the prefix is not less specific than /24
	// (RFC 5635's floor).
	RuleNotTooCoarse
	// RuleNotPropagated: the announcement stayed within one AS hop of
	// the provider (RFCs require suppression outside the local AS).
	RuleNotPropagated
	numRules
)

// String names the rule.
func (r Rule) String() string {
	switch r {
	case RuleStandardCommunity:
		return "uses RFC 7999 65535:666"
	case RuleNoExport:
		return "carries NO_EXPORT"
	case RuleHostRoute:
		return "host route scope"
	case RuleNotTooCoarse:
		return "not less specific than /24"
	case RuleNotPropagated:
		return "not propagated beyond provider"
	}
	return fmt.Sprintf("Rule(%d)", int(r))
}

// Rules lists all audited rules.
func Rules() []Rule {
	out := make([]Rule, numRules)
	for i := range out {
		out[i] = Rule(i)
	}
	return out
}

// Report tallies rule compliance over a population of events.
type Report struct {
	Events    int
	Compliant map[Rule]int
}

// Fraction returns the compliance rate for one rule.
func (r *Report) Fraction(rule Rule) float64 {
	if r.Events == 0 {
		return 0
	}
	return float64(r.Compliant[rule]) / float64(r.Events)
}

// FullyCompliant reports how many events satisfied every rule — the
// paper's argument: blackholing would be even more effective if all
// operators followed best common practices (§10, §11).
func (r *Report) FullyCompliant() int { return r.Compliant[Rule(-1)] }

// AuditEvents scores closed events.
func AuditEvents(events []*core.Event) *Report {
	rep := &Report{Compliant: map[Rule]int{}}
	for _, ev := range events {
		rep.Events++
		ok := auditOne(ev)
		all := true
		for rule, pass := range ok {
			if pass {
				rep.Compliant[rule]++
			} else {
				all = false
			}
		}
		if all {
			rep.Compliant[Rule(-1)]++
		}
	}
	return rep
}

func auditOne(ev *core.Event) map[Rule]bool {
	out := map[Rule]bool{}

	out[RuleStandardCommunity] = slices.Contains(ev.Communities, bgp.CommunityBlackhole)
	out[RuleNoExport] = ev.SawNoExport || slices.Contains(ev.Communities, bgp.CommunityNoExport)
	out[RuleHostRoute] = bgp.IsHostRoute(ev.Prefix)
	if ev.Prefix.Addr().Is4() {
		out[RuleNotTooCoarse] = ev.Prefix.Bits() >= 24
	} else {
		out[RuleNotTooCoarse] = ev.Prefix.Bits() >= 48
	}
	propagated := false
	for _, d := range ev.ProviderDistances {
		if d.Val >= 2 {
			propagated = true
		}
	}
	out[RuleNotPropagated] = !propagated
	return out
}

// Format renders the report as an aligned scorecard.
func (r *Report) Format() string {
	rules := Rules()
	sort.Slice(rules, func(i, j int) bool { return rules[i] < rules[j] })
	out := fmt.Sprintf("events audited: %d\n", r.Events)
	for _, rule := range rules {
		out += fmt.Sprintf("  %-34s %5.1f%%\n", rule, 100*r.Fraction(rule))
	}
	out += fmt.Sprintf("  %-34s %5.1f%%\n", "fully compliant",
		100*float64(r.FullyCompliant())/float64(max(1, r.Events)))
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
