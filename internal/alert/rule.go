// Package alert is the detection-time alerting hub: user-defined rules
// are compiled once into an index (prefix sets in a patricia trie,
// origin postings, a residual list) and evaluated against live events
// the moment they close, and matching alerts fan out to SSE watchers
// and registered webhooks. It turns the passive longitudinal store into
// an operational surface — the paper's whole point is that community
// observation makes blackholing actionable, and an event nobody is told
// about is not actionable.
//
// The package deliberately mirrors the query API's vocabulary: a rule
// constrains the same dimensions a store query filters on (prefix +
// match mode, origin ASN, provider, community, duration) plus the
// enrichment verdict, so an operator can turn any saved query into a
// standing alert.
package alert

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"slices"
	"strconv"
	"strings"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/core"
	"bgpblackholing/internal/enrich"
)

// Mode selects how a rule's prefix set matches an event's prefix.
type Mode int

const (
	// ModeExact fires when the event's prefix equals one of the rule's
	// prefixes.
	ModeExact Mode = iota
	// ModeCovered fires when the event's prefix lies inside one of the
	// rule's prefixes — "alert on anything blackholed in my /16".
	ModeCovered
	// ModeLPM fires when the event's prefix contains one of the rule's
	// prefixes — the bhquery "-mode lpm" shape on the stream: "who
	// blackholes my address", including via a covering aggregate.
	ModeLPM
)

// String renders the mode in the rule syntax's vocabulary.
func (m Mode) String() string {
	switch m {
	case ModeExact:
		return "exact"
	case ModeCovered:
		return "covered"
	case ModeLPM:
		return "lpm"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode parses a match-mode name.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "", "exact":
		return ModeExact, nil
	case "covered":
		return ModeCovered, nil
	case "lpm":
		return ModeLPM, nil
	}
	return ModeExact, fmt.Errorf("bad match mode %q (want exact, covered or lpm)", s)
}

// Rule is one standing alert definition. Every populated dimension must
// match for the rule to fire; an empty dimension matches everything.
// The zero rule (no name) is invalid — rules are CRUD'd by name.
type Rule struct {
	// Name identifies the rule; watchers and the /rules API key on it.
	Name string
	// Prefixes constrains the event prefix under Mode; empty matches any
	// prefix.
	Prefixes []netip.Prefix
	// Mode is how Prefixes match (exact, covered, lpm).
	Mode Mode
	// Origins matches events whose inferred blackholing users include
	// any of these ASNs.
	Origins []bgp.ASN
	// Providers matches events inferring any of these providers.
	Providers []core.ProviderRef
	// Communities matches events carrying any of these communities.
	Communities []bgp.Community
	// MinDuration drops events shorter than this (evaluated at close,
	// when the duration is final).
	MinDuration time.Duration
	// Verdicts matches the event's detection-time legitimacy verdict
	// ("legitimate", "questionable", "illegitimate"). A rule with
	// verdicts needs the hub's annotator; without one it never fires.
	Verdicts []string
}

// ruleNameOK reports whether a rule name round-trips through the
// compact syntax: non-empty, no whitespace, no "=" or ",".
func ruleNameOK(name string) bool {
	if name == "" || len(name) > 128 {
		return false
	}
	return !strings.ContainsAny(name, " \t\n\r=,")
}

// Validate checks the rule for internal consistency.
func (r *Rule) Validate() error {
	if !ruleNameOK(r.Name) {
		return fmt.Errorf("bad rule name %q (want 1-128 chars, no spaces, '=' or ',')", r.Name)
	}
	if r.Mode != ModeExact && r.Mode != ModeCovered && r.Mode != ModeLPM {
		return fmt.Errorf("rule %s: bad mode %d", r.Name, int(r.Mode))
	}
	for _, p := range r.Prefixes {
		if !p.IsValid() {
			return fmt.Errorf("rule %s: invalid prefix", r.Name)
		}
	}
	if r.MinDuration < 0 {
		return fmt.Errorf("rule %s: negative min-duration %v", r.Name, r.MinDuration)
	}
	for _, v := range r.Verdicts {
		switch v {
		case enrich.VerdictLegitimate, enrich.VerdictQuestionable, enrich.VerdictIllegitimate:
		default:
			return fmt.Errorf("rule %s: bad verdict %q (want %s, %s or %s)", r.Name, v,
				enrich.VerdictLegitimate, enrich.VerdictQuestionable, enrich.VerdictIllegitimate)
		}
	}
	return nil
}

// normalize masks prefixes and sorts/dedupes every set dimension, so
// semantically equal rules render identically (String is canonical).
func (r *Rule) normalize() {
	for i, p := range r.Prefixes {
		r.Prefixes[i] = p.Masked()
	}
	slices.SortFunc(r.Prefixes, comparePrefix)
	r.Prefixes = slices.Compact(r.Prefixes)
	slices.Sort(r.Origins)
	r.Origins = slices.Compact(r.Origins)
	slices.SortFunc(r.Providers, core.ProviderRefCompare)
	r.Providers = slices.Compact(r.Providers)
	slices.Sort(r.Communities)
	r.Communities = slices.Compact(r.Communities)
	slices.Sort(r.Verdicts)
	r.Verdicts = slices.Compact(r.Verdicts)
}

func comparePrefix(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return a.Bits() - b.Bits()
}

// ParseRule parses the compact flag syntax: whitespace-separated
// key=value tokens, list values comma-separated.
//
//	name=dc-watch prefix=10.1.0.0/16,10.2.0.0/16 mode=covered
//	    origin=65001 provider=AS3356,ixp:4 community=3356:9999
//	    min-duration=90s verdict=illegitimate,questionable
//
// Keys: name (required), prefix, mode, origin, provider, community,
// min-duration, verdict. A bare address in prefix means its host
// prefix. The result is normalized: ParseRule(r.String()) is identity
// on the rendered form.
func ParseRule(s string) (Rule, error) {
	var r Rule
	seen := map[string]bool{}
	for _, tok := range strings.Fields(s) {
		key, val, ok := strings.Cut(tok, "=")
		if !ok || val == "" {
			return Rule{}, fmt.Errorf("bad rule token %q (want key=value)", tok)
		}
		if seen[key] {
			return Rule{}, fmt.Errorf("duplicate rule key %q", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "name":
			r.Name = val
		case "prefix":
			for _, f := range strings.Split(val, ",") {
				p, perr := parsePrefixOrAddr(f)
				if perr != nil {
					return Rule{}, fmt.Errorf("prefix: %v", perr)
				}
				r.Prefixes = append(r.Prefixes, p)
			}
		case "mode":
			if r.Mode, err = ParseMode(val); err != nil {
				return Rule{}, err
			}
		case "origin":
			for _, f := range strings.Split(val, ",") {
				n, perr := strconv.ParseUint(f, 10, 32)
				if perr != nil {
					return Rule{}, fmt.Errorf("origin: bad ASN %q", f)
				}
				r.Origins = append(r.Origins, bgp.ASN(n))
			}
		case "provider":
			for _, f := range strings.Split(val, ",") {
				pr, perr := core.ParseProviderRef(f)
				if perr != nil {
					return Rule{}, perr
				}
				r.Providers = append(r.Providers, pr)
			}
		case "community":
			for _, f := range strings.Split(val, ",") {
				c, perr := bgp.ParseCommunity(f)
				if perr != nil {
					return Rule{}, perr
				}
				r.Communities = append(r.Communities, c)
			}
		case "min-duration":
			if r.MinDuration, err = time.ParseDuration(val); err != nil {
				return Rule{}, fmt.Errorf("min-duration: %v", err)
			}
		case "verdict":
			r.Verdicts = append(r.Verdicts, strings.Split(val, ",")...)
		default:
			return Rule{}, fmt.Errorf("unknown rule key %q", key)
		}
	}
	r.normalize()
	if err := r.Validate(); err != nil {
		return Rule{}, err
	}
	return r, nil
}

// parsePrefixOrAddr accepts a prefix or a bare address (its host
// prefix).
func parsePrefixOrAddr(s string) (netip.Prefix, error) {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		a, aerr := netip.ParseAddr(s)
		if aerr != nil {
			return netip.Prefix{}, fmt.Errorf("bad prefix %q", s)
		}
		p = netip.PrefixFrom(a, a.BitLen())
	}
	return p, nil
}

// String renders the rule in the canonical compact syntax: the exact
// form ParseRule accepts, fields in a fixed order, sets sorted. Empty
// dimensions are omitted; mode appears only alongside prefixes.
func (r Rule) String() string {
	var b strings.Builder
	b.WriteString("name=")
	b.WriteString(r.Name)
	if len(r.Prefixes) > 0 {
		b.WriteString(" prefix=")
		for i, p := range r.Prefixes {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(p.String())
		}
		b.WriteString(" mode=")
		b.WriteString(r.Mode.String())
	}
	if len(r.Origins) > 0 {
		b.WriteString(" origin=")
		for i, a := range r.Origins {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(a.String())
		}
	}
	if len(r.Providers) > 0 {
		b.WriteString(" provider=")
		for i, p := range r.Providers {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(p.String())
		}
	}
	if len(r.Communities) > 0 {
		b.WriteString(" community=")
		for i, c := range r.Communities {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(c.String())
		}
	}
	if r.MinDuration > 0 {
		b.WriteString(" min-duration=")
		b.WriteString(r.MinDuration.String())
	}
	if len(r.Verdicts) > 0 {
		b.WriteString(" verdict=")
		b.WriteString(strings.Join(r.Verdicts, ","))
	}
	return b.String()
}

// ruleJSON is the wire form of a Rule: every field in its canonical
// string notation, so /rules payloads and -rules-file entries read the
// way operators write queries.
type ruleJSON struct {
	Name        string   `json:"name"`
	Prefixes    []string `json:"prefixes,omitempty"`
	Mode        string   `json:"mode,omitempty"`
	Origins     []uint32 `json:"origins,omitempty"`
	Providers   []string `json:"providers,omitempty"`
	Communities []string `json:"communities,omitempty"`
	MinDuration string   `json:"min_duration,omitempty"`
	Verdicts    []string `json:"verdicts,omitempty"`
}

// MarshalJSON renders the rule in its wire form.
func (r Rule) MarshalJSON() ([]byte, error) {
	w := ruleJSON{Name: r.Name, Verdicts: r.Verdicts}
	for _, p := range r.Prefixes {
		w.Prefixes = append(w.Prefixes, p.String())
	}
	if len(r.Prefixes) > 0 {
		w.Mode = r.Mode.String()
	}
	for _, a := range r.Origins {
		w.Origins = append(w.Origins, uint32(a))
	}
	for _, p := range r.Providers {
		w.Providers = append(w.Providers, p.String())
	}
	for _, c := range r.Communities {
		w.Communities = append(w.Communities, c.String())
	}
	if r.MinDuration > 0 {
		w.MinDuration = r.MinDuration.String()
	}
	return json.Marshal(w)
}

// UnmarshalJSON parses the wire form, normalizes and validates.
func (r *Rule) UnmarshalJSON(data []byte) error {
	var w ruleJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	out := Rule{Name: w.Name, Verdicts: w.Verdicts}
	var err error
	for _, s := range w.Prefixes {
		p, perr := parsePrefixOrAddr(s)
		if perr != nil {
			return perr
		}
		out.Prefixes = append(out.Prefixes, p)
	}
	if out.Mode, err = ParseMode(w.Mode); err != nil {
		return err
	}
	for _, n := range w.Origins {
		out.Origins = append(out.Origins, bgp.ASN(n))
	}
	for _, s := range w.Providers {
		pr, perr := core.ParseProviderRef(s)
		if perr != nil {
			return perr
		}
		out.Providers = append(out.Providers, pr)
	}
	for _, s := range w.Communities {
		c, perr := bgp.ParseCommunity(s)
		if perr != nil {
			return perr
		}
		out.Communities = append(out.Communities, c)
	}
	if w.MinDuration != "" {
		if out.MinDuration, err = time.ParseDuration(w.MinDuration); err != nil {
			return fmt.Errorf("min_duration: %v", err)
		}
	}
	out.normalize()
	if err := out.Validate(); err != nil {
		return err
	}
	*r = out
	return nil
}
