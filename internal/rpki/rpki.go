// Package rpki implements the minimal Resource Public Key Infrastructure
// substrate §2 references: some blackholing providers "will accept
// announcements only via secure BGP using the RPKI". Route Origin
// Authorizations (ROAs) bind prefixes to origin ASes with a maximum
// accepted length; origin validation classifies an announcement as
// Valid, Invalid or NotFound (RFC 6811 semantics).
//
// The operationally interesting wrinkle for blackholing: a victim whose
// ROA caps maxLength at the aggregate's length (say /16 or /24) renders
// its own /32 blackhole announcements RPKI-Invalid — an RPKI-strict
// provider then rejects the mitigation request, another of the §10
// misconfiguration classes.
package rpki

import (
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/topology"
)

// State is the RFC 6811 origin-validation outcome.
type State int

// Validation states.
const (
	NotFound State = iota // no covering ROA
	Valid                 // covered, origin and length match
	Invalid               // covered, but origin or length mismatch
)

// String names the state.
func (s State) String() string {
	switch s {
	case Valid:
		return "valid"
	case Invalid:
		return "invalid"
	}
	return "not-found"
}

// ROA is one Route Origin Authorization.
type ROA struct {
	Prefix    netip.Prefix
	MaxLength int
	ASN       bgp.ASN
}

// Covers reports whether the ROA's prefix covers p.
func (r ROA) Covers(p netip.Prefix) bool {
	return r.Prefix.Addr().Is4() == p.Addr().Is4() &&
		r.Prefix.Bits() <= p.Bits() && r.Prefix.Contains(p.Addr())
}

// Registry is a validated ROA set. Reads answer from one immutable
// index, loaded without a lock; Add serialises writers and publishes a
// fresh index. The zero Registry is empty and ready to use. All methods
// are safe for concurrent use.
type Registry struct {
	mu  sync.Mutex // serialises Add
	idx atomic.Pointer[index]
}

// index is one published view of a registry: the ROAs as added, and per
// family the distinct prefix lengths, ascending, plus the ROAs keyed by
// masked prefix. A covering lookup for p probes the map once per length
// no longer than p, so ascending lengths yield (address, length) order.
type index struct {
	roas         []ROA
	lens4, lens6 []int
	byPrefix     map[netip.Prefix][]ROA
}

// noROAs is the index of a registry nothing was added to.
var noROAs index

// newIndex indexes roas, which it keeps and never writes.
func newIndex(roas []ROA) *index {
	ix := &index{roas: roas, byPrefix: make(map[netip.Prefix][]ROA, len(roas))}
	var seen4, seen6 [129]bool
	for _, roa := range roas {
		// An invalid (zero) prefix covers nothing (Covers is false), so
		// the index leaves it out.
		if !roa.Prefix.IsValid() {
			continue
		}
		q := roa.Prefix.Masked()
		ix.byPrefix[q] = append(ix.byPrefix[q], ROA{Prefix: q, MaxLength: roa.MaxLength, ASN: roa.ASN})
		if q.Addr().Is4() {
			seen4[q.Bits()] = true
		} else {
			seen6[q.Bits()] = true
		}
	}
	for l := 0; l <= 128; l++ {
		if seen4[l] {
			ix.lens4 = append(ix.lens4, l)
		}
		if seen6[l] {
			ix.lens6 = append(ix.lens6, l)
		}
	}
	return ix
}

// lensUpTo returns the lengths of p's family no longer than p.
func (ix *index) lensUpTo(p netip.Prefix) []int {
	lens := ix.lens6
	if p.Addr().Is4() {
		lens = ix.lens4
	}
	n := 0
	for n < len(lens) && lens[n] <= p.Bits() {
		n++
	}
	return lens[:n]
}

// load returns the published index.
func (r *Registry) load() *index {
	if ix := r.idx.Load(); ix != nil {
		return ix
	}
	return &noROAs
}

// Add registers a ROA.
func (r *Registry) Add(roa ROA) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Clip makes append copy: the published ROAs are never written.
	r.idx.Store(newIndex(append(slices.Clip(r.load().roas), roa)))
}

// Len returns the ROA count.
func (r *Registry) Len() int { return len(r.load().roas) }

// ROAs returns a snapshot of the registered ROAs.
func (r *Registry) ROAs() []ROA { return slices.Clone(r.load().roas) }

// CoveringROAs returns every ROA covering p, masked, in (address,
// length) order and, for one prefix, as added: one map probe per
// distinct ROA prefix length no longer than p, never a registry scan.
func (r *Registry) CoveringROAs(p netip.Prefix) []ROA {
	if !p.IsValid() {
		return nil
	}
	ix := r.load()
	var out []ROA
	for _, l := range ix.lensUpTo(p) {
		q, _ := p.Addr().Prefix(l)
		out = append(out, ix.byPrefix[q]...)
	}
	return out
}

// Validate classifies an announcement of prefix p with origin AS o.
// Per RFC 6811: Valid if any covering ROA matches origin and length;
// Invalid if covering ROAs exist but none matches; NotFound otherwise.
// It walks the index as CoveringROAs does, without allocating.
func (r *Registry) Validate(p netip.Prefix, origin bgp.ASN) State {
	if !p.IsValid() {
		return NotFound
	}
	ix := r.load()
	state := NotFound
	for _, l := range ix.lensUpTo(p) {
		q, _ := p.Addr().Prefix(l)
		for _, roa := range ix.byPrefix[q] {
			if roa.ASN == origin && p.Bits() <= roa.MaxLength {
				return Valid
			}
			state = Invalid
		}
	}
	return state
}

// validateScan is the O(n) reference implementation, kept as the
// property-test oracle of the Validate/CoveringROAs index walk.
func (r *Registry) validateScan(p netip.Prefix, origin bgp.ASN) State {
	covered := false
	for _, roa := range r.load().roas {
		if !roa.Covers(p) {
			continue
		}
		covered = true
		if roa.ASN == origin && p.Bits() <= roa.MaxLength {
			return Valid
		}
	}
	if covered {
		return Invalid
	}
	return NotFound
}

// ValidOrigin adapts the registry to the collector layer's validation
// hook: RPKI-strict providers accept only Valid announcements
// (NotFound is rejected too — strict providers demand a ROA).
func (r *Registry) ValidOrigin(p netip.Prefix, origin bgp.ASN) bool {
	return r.Validate(p, origin) == Valid
}

// BuildConfig parameterises registry synthesis.
type BuildConfig struct {
	Seed int64
	// Coverage is the fraction of ASes publishing ROAs.
	Coverage float64
	// FracBlackholeFriendly is the fraction of covered ASes whose ROAs
	// allow host routes (maxLength = 32/128); the rest cap maxLength at
	// the aggregate length, making their own /32 blackhole
	// announcements Invalid.
	FracBlackholeFriendly float64
}

// DefaultBuildConfig reflects mid-2010s RPKI deployment: partial
// coverage, and many ROAs minted without blackholing in mind.
func DefaultBuildConfig() BuildConfig {
	return BuildConfig{Seed: 42, Coverage: 0.35, FracBlackholeFriendly: 0.6}
}

// Build synthesises the registry for a topology.
func Build(topo *topology.Topology, cfg BuildConfig) *Registry {
	r := rand.New(rand.NewSource(cfg.Seed))
	var roas []ROA
	for _, asn := range topo.Order {
		if r.Float64() >= cfg.Coverage {
			continue
		}
		friendly := r.Float64() < cfg.FracBlackholeFriendly
		for _, p := range topo.AS(asn).Prefixes {
			maxLen := p.Bits()
			if friendly {
				if p.Addr().Is4() {
					maxLen = 32
				} else {
					maxLen = 128
				}
			}
			roas = append(roas, ROA{Prefix: p, MaxLength: maxLen, ASN: asn})
		}
	}
	sort.Slice(roas, func(i, j int) bool {
		a, b := roas[i], roas[j]
		if a.Prefix.Addr() != b.Prefix.Addr() {
			return a.Prefix.Addr().Less(b.Prefix.Addr())
		}
		return a.Prefix.Bits() < b.Prefix.Bits()
	})
	reg := &Registry{}
	reg.idx.Store(newIndex(roas))
	return reg
}

// CoverageStats summarises a registry against a topology.
type CoverageStats struct {
	ASesCovered       int
	ASesTotal         int
	BlackholeFriendly int // covered ASes whose host routes validate
	BlackholeStranded int // covered ASes whose /32s are Invalid
}

// Stats computes coverage over the ASes' primary prefixes, probing each
// AS's host route (/32 or /128 by family) against the registry.
func (reg *Registry) Stats(topo *topology.Topology) CoverageStats {
	var st CoverageStats
	for _, asn := range topo.Order {
		st.ASesTotal++
		as := topo.AS(asn)
		if len(as.Prefixes) == 0 {
			continue
		}
		primary := as.Prefixes[0]
		host := netip.PrefixFrom(primary.Addr(), primary.Addr().BitLen())
		switch reg.Validate(host, asn) {
		case Valid:
			st.ASesCovered++
			st.BlackholeFriendly++
		case Invalid:
			st.ASesCovered++
			st.BlackholeStranded++
		}
	}
	return st
}
