package alert

import (
	"slices"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/core"
	"bgpblackholing/internal/store"
)

// Index is a compiled rule set: matching an event against N rules costs
// one or two patricia-trie walks (O(prefix-bits) plus output) and a few
// map probes, not an O(N) scan. Compile once, match from one goroutine
// at a time (the hub's publish path is sequential); Rules and the index
// structures are immutable after Compile.
type Index struct {
	rules []Rule

	// trie holds every prefix-constrained rule's prefixes; postings are
	// rule ordinals. One trie serves all three modes: Covering answers
	// exact and covered, Covered answers lpm.
	trie store.Trie
	// nExactCovered / nLPM count rules per trie lookup family, so Match
	// skips walks no rule needs.
	nExactCovered int
	nLPM          int
	// byOrigin indexes rules constrained by origin but not prefix.
	byOrigin map[bgp.ASN][]int32
	// residual lists rules with neither prefix nor origin constraint;
	// they are candidates for every event.
	residual []int32
	// needVerdict reports whether any rule filters on the legitimacy
	// verdict — the hub uses it to decide whether detection-time
	// enrichment is load-bearing.
	needVerdict bool

	// visited/epoch dedupe candidates across the posting sources without
	// allocating per event; out is the reused match-result scratch.
	visited []uint64
	epoch   uint64
	out     []int32

	// compiled per-rule lookup sets, replacing slice scans on the match
	// path.
	originSets    []map[bgp.ASN]bool
	providerSets  []map[core.ProviderRef]bool
	communitySets []map[bgp.Community]bool
	verdictSets   []map[string]bool
}

// Compile builds the index over a copy of rules. Rule names must be
// unique; every rule must validate.
func Compile(rules []Rule) (*Index, error) {
	ix := &Index{
		rules:    slices.Clone(rules),
		byOrigin: map[bgp.ASN][]int32{},
		visited:  make([]uint64, len(rules)),
	}
	names := map[string]bool{}
	for i := range ix.rules {
		r := &ix.rules[i]
		if err := r.Validate(); err != nil {
			return nil, err
		}
		if names[r.Name] {
			return nil, &DuplicateRuleError{Name: r.Name}
		}
		names[r.Name] = true
		ord := int32(i)
		switch {
		case len(r.Prefixes) > 0:
			for _, p := range r.Prefixes {
				ix.trie.Insert(p, ord)
			}
			if r.Mode == store.PrefixLPM {
				ix.nLPM++
			} else {
				ix.nExactCovered++
			}
		case len(r.Origins) > 0:
			for _, a := range r.Origins {
				ix.byOrigin[a] = append(ix.byOrigin[a], ord)
			}
		default:
			ix.residual = append(ix.residual, ord)
		}
		if len(r.Verdicts) > 0 {
			ix.needVerdict = true
		}
		ix.originSets = append(ix.originSets, asSet(r.Origins))
		ix.providerSets = append(ix.providerSets, asSet(r.Providers))
		ix.communitySets = append(ix.communitySets, asSet(r.Communities))
		ix.verdictSets = append(ix.verdictSets, asSet(r.Verdicts))
	}
	return ix, nil
}

// DuplicateRuleError reports a rule name collision at compile time.
type DuplicateRuleError struct{ Name string }

func (e *DuplicateRuleError) Error() string {
	return "duplicate rule name " + e.Name
}

func asSet[T comparable](xs []T) map[T]bool {
	if len(xs) == 0 {
		return nil
	}
	m := make(map[T]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

// Rules returns the compiled rules in compile order. Callers must not
// mutate the slice or its elements.
func (ix *Index) Rules() []Rule { return ix.rules }

// NeedsVerdict reports whether any compiled rule filters on the
// legitimacy verdict.
func (ix *Index) NeedsVerdict() bool { return ix.needVerdict }

// Match returns the ordinals of every rule the closed event satisfies,
// ascending (compile order). verdict supplies the event's legitimacy
// verdict lazily; it is consulted only for verdict-conditioned
// candidates and called at most once per Match. A nil verdict func
// means "no enrichment": verdict-conditioned rules never fire.
//
// Match reuses internal scratch space — including the returned slice,
// which is valid only until the next Match — and is not safe for
// concurrent use; the hub serializes it on the publish path.
func (ix *Index) Match(ev *core.Event, verdict func() string) []int32 {
	ix.epoch++
	out := ix.out[:0]
	var verdictVal string
	verdictKnown := false
	try := func(ord int32) {
		if ix.visited[ord] == ix.epoch {
			return
		}
		ix.visited[ord] = ix.epoch
		r := &ix.rules[ord]
		if r.MinDuration > 0 && ev.Duration() < r.MinDuration {
			return
		}
		if s := ix.originSets[ord]; s != nil && !anyKey(ev.Users, s) {
			return
		}
		if s := ix.providerSets[ord]; s != nil && !anyKey(ev.Providers, s) {
			return
		}
		if s := ix.communitySets[ord]; s != nil && !anyKey(ev.Communities, s) {
			return
		}
		if s := ix.verdictSets[ord]; s != nil {
			if verdict == nil {
				return
			}
			if !verdictKnown {
				verdictVal = verdict()
				verdictKnown = true
			}
			if !s[verdictVal] {
				return
			}
		}
		out = append(out, ord)
	}

	if ev.Prefix.IsValid() {
		if ix.nExactCovered > 0 {
			masked := ev.Prefix.Masked()
			for _, m := range ix.trie.Covering(ev.Prefix) {
				exact := m.Prefix == masked
				for _, ord := range m.Ords {
					r := &ix.rules[ord]
					switch r.Mode {
					case store.PrefixCovered:
						try(ord)
					case store.PrefixExact:
						if exact {
							try(ord)
						}
					}
				}
			}
		}
		if ix.nLPM > 0 {
			for _, m := range ix.trie.Covered(ev.Prefix) {
				for _, ord := range m.Ords {
					if ix.rules[ord].Mode == store.PrefixLPM {
						try(ord)
					}
				}
			}
		}
	}
	for _, u := range ev.Users {
		for _, ord := range ix.byOrigin[u] {
			try(ord)
		}
	}
	for _, ord := range ix.residual {
		try(ord)
	}
	slices.Sort(out)
	ix.out = out
	return out
}

// anyKey reports whether any of an event's members is in set.
func anyKey[K comparable](members []K, set map[K]bool) bool {
	for _, k := range members {
		if set[k] {
			return true
		}
	}
	return false
}
