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
	"sort"
	"sync"

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

// Registry is a validated ROA set. Validation answers from an index —
// ROAs sorted by (address, length) plus the set of distinct prefix
// lengths present — built lazily on first lookup and invalidated by
// Add, so a query-time caller never pays a linear scan per event. All
// methods are safe for concurrent use.
type Registry struct {
	mu   sync.RWMutex
	roas []ROA

	// Index state: sorted is roas ordered by (addr, bits); lens4/lens6
	// are the distinct prefix lengths present per family, ascending. A
	// covering lookup for p probes, for each indexed length l <= p.Bits(),
	// the exact entry (p masked to l, l) by binary search — O(L log n)
	// with L bounded by 33/129 and in practice a handful.
	indexed      bool
	sorted       []ROA
	lens4, lens6 []int
}

// Add registers a ROA.
func (r *Registry) Add(roa ROA) {
	r.mu.Lock()
	r.roas = append(r.roas, roa)
	r.indexed = false
	r.mu.Unlock()
}

// Len returns the ROA count.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.roas)
}

// ROAs returns a snapshot of the registered ROAs.
func (r *Registry) ROAs() []ROA {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ROA, len(r.roas))
	copy(out, r.roas)
	return out
}

// compareROA orders ROAs by masked address, then prefix length.
// netip.Addr.Compare sorts IPv4 before IPv6, so the families never
// interleave.
func compareROA(a, b ROA) int {
	if c := a.Prefix.Addr().Compare(b.Prefix.Addr()); c != 0 {
		return c
	}
	return a.Prefix.Bits() - b.Prefix.Bits()
}

// rlockIndexed takes the read lock with the index built: a lookup's one
// lock, unless Add invalidated the index, rebuilt under the write lock.
func (r *Registry) rlockIndexed() {
	r.mu.RLock()
	for !r.indexed {
		r.mu.RUnlock()
		r.mu.Lock()
		if !r.indexed {
			r.buildIndex()
		}
		r.mu.Unlock()
		r.mu.RLock()
	}
}

// buildIndex rebuilds the sorted index. Caller holds the write lock.
func (r *Registry) buildIndex() {
	r.sorted = r.sorted[:0]
	for _, roa := range r.roas {
		// An invalid (zero) prefix can cover nothing; indexing it would
		// index Bits() == -1. The old linear scan ignored such ROAs
		// (Covers returned false), so the index does too.
		if !roa.Prefix.IsValid() {
			continue
		}
		r.sorted = append(r.sorted, ROA{Prefix: roa.Prefix.Masked(), MaxLength: roa.MaxLength, ASN: roa.ASN})
	}
	sort.Slice(r.sorted, func(i, j int) bool { return compareROA(r.sorted[i], r.sorted[j]) < 0 })
	r.lens4, r.lens6 = r.lens4[:0], r.lens6[:0]
	seen4, seen6 := [129]bool{}, [129]bool{}
	for _, roa := range r.sorted {
		if roa.Prefix.Addr().Is4() {
			seen4[roa.Prefix.Bits()] = true
		} else {
			seen6[roa.Prefix.Bits()] = true
		}
	}
	for l := 0; l <= 128; l++ {
		if seen4[l] {
			r.lens4 = append(r.lens4, l)
		}
		if seen6[l] {
			r.lens6 = append(r.lens6, l)
		}
	}
	r.indexed = true
}

// coveringWalk visits every indexed ROA whose prefix covers p, in
// (address, length) order, without allocating: one binary search per
// distinct ROA prefix length no longer than p. Returning false stops
// the walk. Caller holds the read lock with the index built.
func (r *Registry) coveringWalk(p netip.Prefix, visit func(ROA) bool) {
	lens := r.lens4
	if !p.Addr().Is4() {
		lens = r.lens6
	}
	for _, l := range lens {
		if l > p.Bits() {
			return
		}
		q, err := p.Addr().Prefix(l)
		if err != nil {
			continue
		}
		probe := ROA{Prefix: q}
		i := sort.Search(len(r.sorted), func(i int) bool { return compareROA(r.sorted[i], probe) >= 0 })
		for ; i < len(r.sorted) && r.sorted[i].Prefix == q; i++ {
			if !visit(r.sorted[i]) {
				return
			}
		}
	}
}

// CoveringROAs returns every ROA whose prefix covers p, in (address,
// length) order. The lookup is indexed: one binary search per distinct
// ROA prefix length no longer than p, never a scan of the registry.
func (r *Registry) CoveringROAs(p netip.Prefix) []ROA {
	if !p.IsValid() {
		return nil
	}
	r.rlockIndexed()
	defer r.mu.RUnlock()
	var out []ROA
	r.coveringWalk(p, func(roa ROA) bool {
		out = append(out, roa)
		return true
	})
	return out
}

// Validate classifies an announcement of prefix p with origin AS o.
// Per RFC 6811: Valid if any covering ROA matches origin and length;
// Invalid if covering ROAs exist but none matches; NotFound otherwise.
// The covering set comes from the registry index (see coveringWalk) —
// the hot query-time path neither scans the registry nor allocates.
func (r *Registry) Validate(p netip.Prefix, origin bgp.ASN) State {
	if !p.IsValid() {
		return NotFound
	}
	r.rlockIndexed()
	defer r.mu.RUnlock()
	state := NotFound
	r.coveringWalk(p, func(roa ROA) bool {
		state = Invalid
		if roa.ASN == origin && p.Bits() <= roa.MaxLength {
			state = Valid
			return false
		}
		return true
	})
	return state
}

// validateScan is the pre-index O(n) reference implementation, kept as
// the property-test oracle for the indexed Validate/CoveringROAs path.
func (r *Registry) validateScan(p netip.Prefix, origin bgp.ASN) State {
	r.mu.RLock()
	defer r.mu.RUnlock()
	covered := false
	for _, roa := range r.roas {
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
	reg := &Registry{}
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
			reg.Add(ROA{Prefix: p, MaxLength: maxLen, ASN: asn})
		}
	}
	sort.Slice(reg.roas, func(i, j int) bool {
		a, b := reg.roas[i], reg.roas[j]
		if a.Prefix.Addr() != b.Prefix.Addr() {
			return a.Prefix.Addr().Less(b.Prefix.Addr())
		}
		return a.Prefix.Bits() < b.Prefix.Bits()
	})
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
