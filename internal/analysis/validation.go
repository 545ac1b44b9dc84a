package analysis

import (
	"net/netip"

	"bgpblackholing/internal/core"
	"bgpblackholing/internal/workload"
)

// Validation compares inferred events against the ground-truth intents
// that generated them — the §10 passive-measurement validation, where
// the authors confirmed 99.5% visibility of route-server blackholing
// events at collaborating IXPs, and the §5.2 observation that the
// overall inference is a lower bound.
type Validation struct {
	// Intents is the ground-truth population (well-formed ones only).
	Intents int
	// DetectedPrefixOnsets counts intents whose prefix is the prefix of
	// at least one inferred event, at any time: Validate compares
	// prefixes only, never the intent's activity with the event's span.
	DetectedPrefixOnsets int
	// IXPIntents / DetectedIXPIntents restrict to intents that used a
	// route server (the population with near-total visibility).
	IXPIntents         int
	DetectedIXPIntents int
	// FalsePrefixes counts inferred prefixes never present in any
	// intent (should be zero: the methodology has no false-positive
	// source besides community collisions, which the dictionary
	// validation removes).
	FalsePrefixes int
}

// Recall returns the overall detection recall.
func (v Validation) Recall() float64 {
	if v.Intents == 0 {
		return 0
	}
	return float64(v.DetectedPrefixOnsets) / float64(v.Intents)
}

// IXPRecall returns recall over route-server intents.
func (v Validation) IXPRecall() float64 {
	if v.IXPIntents == 0 {
		return 0
	}
	return float64(v.DetectedIXPIntents) / float64(v.IXPIntents)
}

// Validate scores events against ground-truth intents.
func Validate(events []*core.Event, intents []workload.Intent) Validation {
	var v Validation
	detected := map[netip.Prefix]bool{}
	for _, ev := range events {
		detected[ev.Prefix] = true
	}
	truth := map[netip.Prefix]bool{}
	for _, in := range intents {
		if !in.Prefix.IsValid() || in.Misconfigured {
			continue
		}
		truth[in.Prefix] = true
		v.Intents++
		if detected[in.Prefix] {
			v.DetectedPrefixOnsets++
		}
		if len(in.IXPs) > 0 {
			v.IXPIntents++
			if detected[in.Prefix] {
				v.DetectedIXPIntents++
			}
		}
	}
	for p := range detected {
		if !truth[p] {
			v.FalsePrefixes++
		}
	}
	return v
}
