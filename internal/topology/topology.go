// Package topology models a synthetic AS-level Internet: autonomous
// systems with business types and countries, customer-provider and peer
// relationships, IXPs with route servers and peering LANs, originated
// address space, and valley-free (Gao-Rexford) routing.
//
// It substitutes for the external ground-truth datasets the paper relies
// on — PeeringDB (declared network types), CAIDA AS classification and AS
// relationships / customer cones — while exercising the same code paths:
// the inference engine reads network types through the same
// PeeringDB-first / CAIDA-fallback rule the paper uses (§4.1), and probe
// selection uses customer cones exactly as §10 does.
package topology

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"sync"

	"bgpblackholing/internal/bgp"
)

// Kind is a network business type, following the PeeringDB/CAIDA
// taxonomy used in Tables 2 and 4.
type Kind int

// Network types. TransitAccess merges PeeringDB's NSP and Cable/DSL/ISP
// classes, matching CAIDA's convention (§4.1).
const (
	KindUnknown Kind = iota
	KindTransitAccess
	KindIXP
	KindContent
	KindEducationResearchNfP
	KindEnterprise
)

// String renders the kind as in the paper's tables.
func (k Kind) String() string {
	switch k {
	case KindTransitAccess:
		return "Transit/Access"
	case KindIXP:
		return "IXP"
	case KindContent:
		return "Content"
	case KindEducationResearchNfP:
		return "Education/Research/NfP"
	case KindEnterprise:
		return "Enterprise"
	}
	return "Unknown"
}

// Kinds lists every network type in table order.
func Kinds() []Kind {
	return []Kind{KindTransitAccess, KindIXP, KindContent, KindEducationResearchNfP, KindEnterprise, KindUnknown}
}

// DocSource records where a blackhole community is documented, which
// determines whether the dictionary treats it as "documented" (§4.1).
type DocSource int

// Documentation sources for blackhole communities.
const (
	DocNone    DocSource = iota // undocumented: discoverable only by inference
	DocIRR                      // documented in an IRR (RADb) record
	DocWeb                      // documented on the operator's web page
	DocPrivate                  // learned via private communication
)

// String names the documentation source.
func (d DocSource) String() string {
	switch d {
	case DocIRR:
		return "IRR"
	case DocWeb:
		return "Web"
	case DocPrivate:
		return "Private"
	}
	return "None"
}

// BlackholeService describes the blackholing offering of one provider AS
// or IXP: the trigger communities, where they are documented and the
// accepted prefix-length policy.
type BlackholeService struct {
	// Communities are the standard blackhole trigger communities. The
	// first entry is the global-scope community; any additional entries
	// are fine-grained (regional) variants.
	Communities []bgp.Community
	// RegionalScopes optionally names the scope of each additional
	// community (parallel to Communities[1:]).
	RegionalScopes []string
	// LargeCommunities holds RFC 8092 trigger communities for the rare
	// providers that adopted the new format (1 of 307 in the paper).
	LargeCommunities []bgp.LargeCommunity
	// Doc records where the service is documented.
	Doc DocSource
	// MaxPrefixLen is the most-specific accepted blackhole prefix
	// length (typically 32; blackholing providers accept more-specific-
	// than-/24 only when tagged).
	MaxPrefixLen int
	// MinPrefixLen is the least-specific accepted length (best practice
	// forbids blackholing less-specific than /24).
	MinPrefixLen int
	// RequiresIRRRegistration models providers that filter blackhole
	// announcements against RIR/IRR route objects (§10: misconfigured
	// users missing database entries see no data-plane effect).
	RequiresIRRRegistration bool
	// RequiresRPKI models providers accepting blackhole announcements
	// only when RPKI origin validation succeeds (§2).
	RequiresRPKI bool
	// Shared marks communities whose high 16 bits do not encode the
	// provider's public ASN (e.g. 0:666), shared across providers.
	Shared bool
}

// HasCommunity reports whether c triggers this service.
func (s *BlackholeService) HasCommunity(c bgp.Community) bool {
	return slices.Contains(s.Communities, c)
}

// AS is one autonomous system of the synthetic Internet.
type AS struct {
	ASN bgp.ASN
	// DeclaredKind is the PeeringDB-declared type (KindUnknown when the
	// AS has no PeeringDB record or does not disclose a type).
	DeclaredKind Kind
	// CAIDAKind is the CAIDA classification fallback.
	CAIDAKind Kind
	// Country is the RIR-registered ISO country code.
	Country string

	// Prefixes is the originated address space (the first prefix is the
	// AS's primary aggregate).
	Prefixes []netip.Prefix

	// Providers, Customers and Peers hold the AS relationships.
	Providers []bgp.ASN
	Customers []bgp.ASN
	Peers     []bgp.ASN
	// IXPs lists the IXPs this AS is a member of.
	IXPs []int

	// Blackholing is non-nil when the AS offers a blackholing service
	// to its customers/peers.
	Blackholing *BlackholeService

	// RoutingCommunities are the ordinary informational communities the
	// AS documents and attaches to routine exports (relationship tags,
	// traffic engineering). They never trigger blackholing; Figure 2
	// contrasts their prefix-length profile with blackhole communities.
	RoutingCommunities []bgp.Community

	// FiltersMoreSpecifics reports whether the AS, acting as a transit
	// neighbor without a matching blackhole community, drops routes more
	// specific than /24 (best practice; most ASes do).
	FiltersMoreSpecifics bool
	// StripsCommunities reports whether the AS strips communities when
	// re-exporting routes (limits visibility, §5.2).
	StripsCommunities bool
	// HasIRRRouteObjects reports whether the AS maintains proper
	// RIR/IRR route objects for its prefixes (§10 misconfiguration).
	HasIRRRouteObjects bool
	// Tier1 marks members of the top clique.
	Tier1 bool
}

// Kind resolves the effective network type: the PeeringDB declaration if
// present, otherwise the CAIDA classification — the paper's exact rule.
func (a *AS) Kind() Kind {
	if a.DeclaredKind != KindUnknown {
		return a.DeclaredKind
	}
	return a.CAIDAKind
}

// OffersBlackholing reports whether the AS provides a blackholing service.
func (a *AS) OffersBlackholing() bool { return a.Blackholing != nil }

// IXP is an Internet exchange point with a route server.
type IXP struct {
	ID   int
	Name string
	// Country locates the IXP (major telecommunication-hub cities).
	Country string
	// RouteServerASN is the route server's AS number.
	RouteServerASN bgp.ASN
	// InsertsRSASN reports whether the route server inserts its ASN into
	// the AS path (most are transparent; some are not — the inference
	// engine handles both, §4.2).
	InsertsRSASN bool
	// PeeringLAN is the IXP's layer-2 peering LAN prefix; peer-ip
	// attributes inside it identify the IXP (§4.2).
	PeeringLAN netip.Prefix
	// Members lists the member ASNs.
	Members []bgp.ASN
	// Blackholing is non-nil when the IXP offers the blackholing service.
	Blackholing *BlackholeService
	// BlackholingIPv4 and BlackholingIPv6 are the null-interface next
	// hops the IXP publishes (most common: last octet .66, and
	// dead:beef for IPv6, §4.1).
	BlackholingIPv4 netip.Addr
	BlackholingIPv6 netip.Addr
	// HasPCHCollector reports whether PCH operates a route collector at
	// this IXP (peering with the route server).
	HasPCHCollector bool
}

// MemberIP returns the deterministic peering-LAN address of a member.
func (x *IXP) MemberIP(member bgp.ASN) netip.Addr {
	idx := slices.Index(x.Members, member)
	if idx < 0 {
		return netip.Addr{}
	}
	base := x.PeeringLAN.Addr().As4()
	// Hosts .10 upward; .66 stays reserved for the blackholing IP,
	// so skip over it.
	host := 10 + idx
	if host >= 66 {
		host++
	}
	return netip.AddrFrom4([4]byte{base[0], base[1], byte(host >> 8), byte(host)})
}

// Topology is the complete synthetic Internet.
type Topology struct {
	ASes map[bgp.ASN]*AS
	// Order lists ASNs in deterministic generation order.
	Order []bgp.ASN
	IXPs  []*IXP

	// routeServerOf maps route-server ASN to its IXP.
	routeServerOf map[bgp.ASN]*IXP
	// originOf maps each originated prefix to its AS.
	originOf map[netip.Prefix]bgp.ASN

	conesMu sync.Mutex
	cones   map[bgp.ASN]map[bgp.ASN]bool
	// routesMu guards routes, RoutesTo's per-destination tables.
	routesMu sync.Mutex
	routes   map[bgp.ASN]*RoutingTable

	// indexOnce lazily builds the dense AS index used by hot paths
	// (propagation visited sets) in place of per-call hash maps.
	indexOnce sync.Once
	indexOf   map[bgp.ASN]int
	indexed   []bgp.ASN
	// aggOrigin maps every (masked) aggregate of every AS in Order to
	// its originator; aggBits4/aggBits6 list the distinct aggregate
	// lengths per address family, longest first. OriginOf probes them in
	// place of a scan over every AS × every aggregate.
	aggOrigin map[netip.Prefix]bgp.ASN
	aggBits4  []int
	aggBits6  []int
}

// buildIndex assigns each AS a dense index in deterministic order:
// Order first, then any ASes registered outside Order (hand-assembled
// test topologies sometimes have them) in ascending ASN order. It also
// indexes the aggregates OriginOf falls back to. The topology must not
// gain ASes or prefixes after the first Index/NumIndexed/OriginOf call.
func (t *Topology) buildIndex() {
	t.indexOnce.Do(func() {
		t.indexOf = make(map[bgp.ASN]int, len(t.ASes))
		indexed := make([]bgp.ASN, 0, len(t.ASes))
		add := func(a bgp.ASN) {
			if _, ok := t.indexOf[a]; !ok {
				t.indexOf[a] = len(indexed)
				indexed = append(indexed, a)
			}
		}
		for _, a := range t.Order {
			add(a)
		}
		if len(indexed) < len(t.ASes) {
			extra := make([]bgp.ASN, 0, len(t.ASes)-len(indexed))
			for a := range t.ASes {
				if _, ok := t.indexOf[a]; !ok {
					extra = append(extra, a)
				}
			}
			SortASNs(extra)
			for _, a := range extra {
				add(a)
			}
		}
		t.indexed = indexed

		// Two ASes holding the same aggregate: the first in Order (and
		// the first entry in its Prefixes) wins, as a scan in that order
		// with a strict longer-than comparison would decide.
		t.aggOrigin = make(map[netip.Prefix]bgp.ASN, len(t.Order))
		for _, a := range t.Order {
			for _, agg := range t.ASes[a].Prefixes {
				if !agg.IsValid() {
					continue
				}
				agg = agg.Masked()
				if _, ok := t.aggOrigin[agg]; ok {
					continue
				}
				t.aggOrigin[agg] = a
				bits := &t.aggBits6
				if agg.Addr().Is4() {
					bits = &t.aggBits4
				}
				if !slices.Contains(*bits, agg.Bits()) {
					*bits = append(*bits, agg.Bits())
				}
			}
		}
		for _, bits := range [][]int{t.aggBits4, t.aggBits6} {
			slices.Sort(bits)
			slices.Reverse(bits)
		}
	})
}

// Index returns the dense index of the AS (stable for the topology's
// lifetime), or -1 when the AS is unknown. Hot paths use it to key
// []bool visited sets instead of allocating maps.
func (t *Topology) Index(a bgp.ASN) int {
	t.buildIndex()
	if i, ok := t.indexOf[a]; ok {
		return i
	}
	return -1
}

// NumIndexed returns the number of densely indexed ASes (the required
// length of Index-keyed slices).
func (t *Topology) NumIndexed() int {
	t.buildIndex()
	return len(t.indexed)
}

// ASByNumber returns the AS record, or nil.
func (t *Topology) AS(a bgp.ASN) *AS { return t.ASes[a] }

// IXPByRouteServer maps a route-server ASN to its IXP, or nil.
func (t *Topology) IXPByRouteServer(a bgp.ASN) *IXP { return t.routeServerOf[a] }

// IXPByPeerIP returns the IXP whose peering LAN contains addr, or nil.
// This implements the paper's peer-ip identification of IXP blackholing.
func (t *Topology) IXPByPeerIP(addr netip.Addr) *IXP {
	for _, x := range t.IXPs {
		if x.PeeringLAN.Contains(addr) {
			return x
		}
	}
	return nil
}

// OriginOf returns the AS originating the most-specific aggregate
// covering p, or 0.
func (t *Topology) OriginOf(p netip.Prefix) bgp.ASN {
	if asn, ok := t.originOf[p]; ok {
		return asn
	}
	// Fall back to the covering aggregate (blackholed /32s fall inside
	// an AS's primary prefix): the longest aggregate containing p's
	// address, whatever p's own length.
	t.buildIndex()
	addr := p.Addr()
	lens := t.aggBits6
	if addr.Is4() {
		lens = t.aggBits4
	}
	for _, bits := range lens {
		if agg, err := addr.Prefix(bits); err == nil {
			if asn, ok := t.aggOrigin[agg]; ok {
				return asn
			}
		}
	}
	return 0
}

// Neighbors returns all BGP neighbors of a (providers, customers, peers).
func (t *Topology) Neighbors(a bgp.ASN) []bgp.ASN {
	as := t.ASes[a]
	if as == nil {
		return nil
	}
	out := make([]bgp.ASN, 0, len(as.Providers)+len(as.Customers)+len(as.Peers))
	out = append(out, as.Providers...)
	out = append(out, as.Customers...)
	out = append(out, as.Peers...)
	return out
}

// Relationship classifies the edge a→b from a's perspective.
type Relationship int

// Relationship values from a's perspective.
const (
	RelNone     Relationship = iota
	RelProvider              // b is a's provider
	RelCustomer              // b is a's customer
	RelPeer                  // b is a's peer
)

// Rel returns the relationship of b from a's perspective.
func (t *Topology) Rel(a, b bgp.ASN) Relationship {
	as := t.ASes[a]
	if as == nil {
		return RelNone
	}
	switch {
	case slices.Contains(as.Providers, b):
		return RelProvider
	case slices.Contains(as.Customers, b):
		return RelCustomer
	case slices.Contains(as.Peers, b):
		return RelPeer
	}
	return RelNone
}

// CustomerCone returns the set of ASes in a's customer cone (a itself
// included), computed over the c2p hierarchy as CAIDA does. Results are
// cached; the topology must not be mutated afterwards. Safe for
// concurrent use (parallel day-sharded propagation hits it from many
// goroutines).
func (t *Topology) CustomerCone(a bgp.ASN) map[bgp.ASN]bool {
	t.conesMu.Lock()
	defer t.conesMu.Unlock()
	if t.cones == nil {
		t.cones = make(map[bgp.ASN]map[bgp.ASN]bool)
	}
	if c, ok := t.cones[a]; ok {
		return c
	}
	cone := map[bgp.ASN]bool{a: true}
	stack := []bgp.ASN{a}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range t.ASes[cur].Customers {
			if !cone[c] {
				cone[c] = true
				stack = append(stack, c)
			}
		}
	}
	t.cones[a] = cone
	return cone
}

// InCustomerCone reports whether member is inside provider's customer
// cone, the authentication check blackholing providers apply (§2).
func (t *Topology) InCustomerCone(provider, member bgp.ASN) bool {
	return t.CustomerCone(provider)[member]
}

// UpstreamCone returns the set of ASes reachable from a by walking
// provider links upward (a excluded). Used for probe-group selection.
func (t *Topology) UpstreamCone(a bgp.ASN) map[bgp.ASN]bool {
	up := map[bgp.ASN]bool{}
	stack := []bgp.ASN{a}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range t.ASes[cur].Providers {
			if !up[p] {
				up[p] = true
				stack = append(stack, p)
			}
		}
	}
	return up
}

// BlackholingProviders lists every AS offering a blackholing service, in
// deterministic order.
func (t *Topology) BlackholingProviders() []*AS {
	var out []*AS
	for _, asn := range t.Order {
		if as := t.ASes[asn]; as.OffersBlackholing() {
			out = append(out, as)
		}
	}
	return out
}

// BlackholingIXPs lists every IXP offering a blackholing service.
func (t *Topology) BlackholingIXPs() []*IXP {
	var out []*IXP
	for _, x := range t.IXPs {
		if x.Blackholing != nil {
			out = append(out, x)
		}
	}
	return out
}

// Validate checks structural invariants: symmetric relationships, no
// self-loops, members recorded on both sides, prefixes non-overlapping
// across ASes. It returns the first violation found.
func (t *Topology) Validate() error {
	seen := map[netip.Prefix]bgp.ASN{}
	for _, asn := range t.Order {
		as := t.ASes[asn]
		if as == nil {
			return fmt.Errorf("topology: order lists unknown AS %d", asn)
		}
		if as.ASN != asn {
			return fmt.Errorf("topology: AS %d keyed as %d", as.ASN, asn)
		}
		for _, p := range as.Providers {
			if p == asn {
				return fmt.Errorf("topology: AS %d is its own provider", asn)
			}
			pa := t.ASes[p]
			if pa == nil || !slices.Contains(pa.Customers, asn) {
				return fmt.Errorf("topology: c2p %d->%d not symmetric", asn, p)
			}
		}
		for _, p := range as.Peers {
			if p == asn {
				return fmt.Errorf("topology: AS %d peers with itself", asn)
			}
			pa := t.ASes[p]
			if pa == nil || !slices.Contains(pa.Peers, asn) {
				return fmt.Errorf("topology: p2p %d--%d not symmetric", asn, p)
			}
		}
		for _, pfx := range as.Prefixes {
			if other, dup := seen[pfx]; dup {
				return fmt.Errorf("topology: prefix %s originated by %d and %d", pfx, other, asn)
			}
			seen[pfx] = asn
		}
	}
	for _, x := range t.IXPs {
		for _, m := range x.Members {
			as := t.ASes[m]
			if as == nil {
				return fmt.Errorf("topology: IXP %s lists unknown member %d", x.Name, m)
			}
			if !slices.Contains(as.IXPs, x.ID) {
				return fmt.Errorf("topology: IXP %s membership of %d not recorded on AS", x.Name, m)
			}
		}
	}
	return nil
}

// CountryCounts tallies ASes per country for the given filter, as
// Figure 6 does for providers and users.
func CountryCounts(ases []*AS) map[string]int {
	out := map[string]int{}
	for _, a := range ases {
		out[a.Country]++
	}
	return out
}

// SortASNs sorts a slice of ASNs ascending in place and returns it.
func SortASNs(asns []bgp.ASN) []bgp.ASN {
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	return asns
}
