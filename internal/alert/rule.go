// Package alert is the detection-time alerting hub: user-defined rules
// are compiled once into an index (prefix sets in a patricia trie,
// origin postings, a residual list) and evaluated against live events
// the moment they close, and matching alerts fan out to SSE watchers
// and registered webhooks. It turns the passive longitudinal store into
// an operational surface — the paper's whole point is that community
// observation makes blackholing actionable, and an event nobody is told
// about is not actionable.
//
// The package speaks the query API's vocabulary, through its parsers: a
// rule constrains the same dimensions a store query filters on (prefix
// + match mode, origin ASN, provider, community, duration) plus the
// enrichment verdict, so an operator can turn any saved query into a
// standing alert.
package alert

import (
	"bytes"
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
	"bgpblackholing/internal/store"
)

// Rule is one standing alert definition. Every populated dimension must
// match for the rule to fire; an empty dimension matches everything.
// The zero rule (no name) is invalid — rules are CRUD'd by name.
type Rule struct {
	// Name identifies the rule; watchers and the /rules API key on it.
	Name string
	// Prefixes constrains the event prefix under Mode; empty matches any
	// prefix.
	Prefixes []netip.Prefix
	// Mode is how Prefixes match: exact, covered (the event's prefix lies
	// inside a rule prefix) or lpm (it contains one, see store.PrefixLPM).
	Mode store.PrefixMode
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
	if r.Mode != store.PrefixExact && r.Mode != store.PrefixCovered && r.Mode != store.PrefixLPM {
		return fmt.Errorf("rule %s: bad mode %s (want exact, covered or lpm; lpm fires on an event whose prefix contains a rule prefix)", r.Name, r.Mode)
	}
	for _, p := range r.Prefixes {
		if !p.IsValid() {
			return fmt.Errorf("rule %s: invalid prefix", r.Name)
		}
	}
	if slices.Contains(r.Origins, 0) {
		return fmt.Errorf("rule %s: origin AS 0 is reserved (RFC 7607) and never an event's origin", r.Name)
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
// prefix. The syntax is a second spelling of the wire form, read by the
// same reader: ParseRule(r.String()) is identity on the rendered form.
func ParseRule(s string) (Rule, error) {
	var w ruleJSON
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
		list := strings.Split(val, ",")
		switch key {
		case "name":
			w.Name = val
		case "prefix":
			w.Prefixes = list
		case "mode":
			w.Mode = val
		case "origin":
			for _, f := range list {
				n, err := strconv.ParseUint(f, 10, 32)
				if err != nil {
					return Rule{}, fmt.Errorf("origin: bad ASN %q", f)
				}
				w.Origins = append(w.Origins, bgp.ASN(n))
			}
		case "provider":
			w.Providers = list
		case "community":
			w.Communities = list
		case "min-duration":
			w.MinDuration = val
		case "verdict":
			w.Verdicts = list
		default:
			return Rule{}, fmt.Errorf("unknown rule key %q", key)
		}
	}
	return w.rule()
}

// String renders the rule in the canonical compact syntax: the exact
// form ParseRule accepts, fields in a fixed order, sets sorted. Empty
// dimensions are omitted; mode appears only alongside prefixes. Values
// are spelled as in the wire form.
func (r Rule) String() string {
	w := r.wire()
	one := func(s string) []string {
		if s == "" {
			return nil
		}
		return []string{s}
	}
	origins := make([]string, len(r.Origins))
	for i, a := range r.Origins {
		origins[i] = a.String()
	}
	b := []byte("name=" + w.Name)
	for _, f := range [...]struct {
		key  string
		vals []string
	}{
		{"prefix", w.Prefixes}, {"mode", one(w.Mode)}, {"origin", origins}, {"provider", w.Providers},
		{"community", w.Communities}, {"min-duration", one(w.MinDuration)}, {"verdict", w.Verdicts},
	} {
		if len(f.vals) > 0 {
			b = append(append(append(b, ' '), f.key...), '=')
			b = append(b, strings.Join(f.vals, ",")...)
		}
	}
	return string(b)
}

// ruleJSON is the wire form of a Rule, which both spellings fill: every
// value in its canonical notation, so /rules payloads and -rules-file
// entries read the way operators write queries.
type ruleJSON struct {
	Name        string    `json:"name"`
	Prefixes    []string  `json:"prefixes,omitempty"`
	Mode        string    `json:"mode,omitempty"`
	Origins     []bgp.ASN `json:"origins,omitempty"`
	Providers   []string  `json:"providers,omitempty"`
	Communities []string  `json:"communities,omitempty"`
	MinDuration string    `json:"min_duration,omitempty"`
	Verdicts    []string  `json:"verdicts,omitempty"`
}

// wire is the rule in its wire form, which String and MarshalJSON both
// render.
func (r Rule) wire() ruleJSON {
	w := ruleJSON{Name: r.Name, Origins: r.Origins, Verdicts: r.Verdicts}
	for _, p := range r.Prefixes {
		w.Prefixes = append(w.Prefixes, p.String())
	}
	if len(r.Prefixes) > 0 {
		w.Mode = r.Mode.String()
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
	return w
}

// rule reads the wire form: it parses every value, normalizes and
// validates. It is the only code that turns text into a Rule.
func (w ruleJSON) rule() (r Rule, err error) {
	r = Rule{Name: w.Name, Origins: w.Origins, Verdicts: w.Verdicts}
	if r.Prefixes, err = parseEach(w.Prefixes, store.ParsePrefix); err != nil {
		return Rule{}, fmt.Errorf("prefix: %v", err)
	}
	if r.Mode, err = store.ParsePrefixMode(w.Mode); err != nil {
		return Rule{}, err
	}
	if r.Providers, err = parseEach(w.Providers, core.ParseProviderRef); err != nil {
		return Rule{}, err
	}
	if r.Communities, err = parseEach(w.Communities, bgp.ParseCommunity); err != nil {
		return Rule{}, err
	}
	if w.MinDuration != "" {
		if r.MinDuration, err = time.ParseDuration(w.MinDuration); err != nil {
			return Rule{}, fmt.Errorf("min-duration: %v", err)
		}
	}
	r.normalize()
	if err = r.Validate(); err != nil {
		return Rule{}, err
	}
	return r, nil
}

// parseEach parses every value of a list dimension.
func parseEach[T any](vals []string, parse func(string) (T, error)) (out []T, err error) {
	for _, v := range vals {
		x, err := parse(v)
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	return out, nil
}

// MarshalJSON renders the rule in its wire form.
func (r Rule) MarshalJSON() ([]byte, error) { return json.Marshal(r.wire()) }

// UnmarshalJSON reads the wire form; a field it does not know is an
// error, not a dimension left unconstrained.
func (r *Rule) UnmarshalJSON(data []byte) error {
	var w ruleJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return err
	}
	out, err := w.rule()
	if err != nil {
		return err
	}
	*r = out
	return nil
}
