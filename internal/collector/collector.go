// Package collector simulates the BGP data-collection infrastructure of
// §3: RIPE RIS and Route Views collectors peering in the Internet core,
// PCH collectors at IXP route servers, and a large CDN receiving feeds
// from inside many ISPs. It also implements the policy-driven
// propagation of (blackholing) announcements from a user AS through the
// topology to every collector that can observe them.
//
// The visibility biases the paper discusses emerge from deployment
// structure: RIS/RV peer with large transit providers, PCH sees IXP
// route servers directly, and the CDN's in-network vantage points
// receive customer-specific announcements nobody else sees.
package collector

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/topology"
)

// Platform identifies a collection platform.
type Platform int

// Collection platforms of §3.
const (
	PlatformRIS Platform = iota
	PlatformRV
	PlatformPCH
	PlatformCDN
)

// String names the platform as in the paper's tables.
func (p Platform) String() string {
	switch p {
	case PlatformRIS:
		return "RIS"
	case PlatformRV:
		return "RV"
	case PlatformPCH:
		return "PCH"
	case PlatformCDN:
		return "CDN"
	}
	return fmt.Sprintf("Platform(%d)", int(p))
}

// AppendTo appends the platform's name to b.
func (p Platform) AppendTo(b []byte) []byte { return append(b, p.String()...) }

// TextLess reports whether p's name sorts before o's byte by byte: the
// four platforms by rank, CDN < PCH < RIS < RV, any other by its name.
func (p Platform) TextLess(o Platform) bool {
	if rank := [...]int8{PlatformRIS: 2, PlatformRV: 3, PlatformPCH: 1, PlatformCDN: 0}; uint(p) < 4 && uint(o) < 4 {
		return rank[p] < rank[o]
	}
	return p.String() < o.String()
}

// Platforms lists all platforms in table order.
func Platforms() []Platform {
	return []Platform{PlatformRIS, PlatformRV, PlatformPCH, PlatformCDN}
}

// FeedType describes what a peer session exports to the collector.
type FeedType int

// Feed types (§3: "Some BGP peers send full routing tables, others
// partial views, and even others only their customer routes").
const (
	FeedFull FeedType = iota
	FeedPartial
	FeedCustomerOnly
)

// PeerSession is one BGP session between a network and a collector.
type PeerSession struct {
	// AS is the peer's AS number (the route server's ASN for RS sessions).
	AS bgp.ASN
	// IP is the session's peer address; for IXP sessions it lies inside
	// the IXP peering LAN.
	IP netip.Addr
	// Feed describes the exported view.
	Feed FeedType
	// RouteServer marks a session with an IXP route server.
	RouteServer bool
	// IXPID is the IXP the session sits at (-1 otherwise).
	IXPID int
	// Internal marks CDN in-network sessions that receive
	// customer-specific and internal announcements (§3).
	Internal bool
}

// Collector is one route collector instance.
type Collector struct {
	Platform Platform
	Name     string
	IP       netip.Addr
	ASN      bgp.ASN
	// IXPID is the IXP the collector sits at (-1 for core collectors).
	IXPID    int
	Sessions []PeerSession
}

// RPKIValidator is the origin-validation hook RPKI-strict providers
// consult before accepting a blackhole announcement (§2). It reports
// whether the (prefix, origin) pair validates; a nil validator means
// RPKI-strict providers fall back to accepting (no RPKI deployment).
type RPKIValidator interface {
	ValidOrigin(prefix netip.Prefix, origin bgp.ASN) bool
}

// Deployment is the full set of collectors over one topology.
type Deployment struct {
	Topo       *topology.Topology
	Collectors []*Collector
	// RPKI is the optional origin-validation hook.
	RPKI RPKIValidator

	// sessionIndex maps peer AS -> collector sessions, for propagation.
	sessionsByAS map[bgp.ASN][]sessionRef
	// rsSessions maps IXP ID -> sessions with that IXP's route server.
	rsSessionsByIXP map[int][]sessionRef

	// scratch pools per-propagation dense working sets, so concurrent
	// Propagate calls stay allocation-lean.
	scratch sync.Pool
}

type sessionRef struct {
	col *Collector
	idx int
}

// Config sizes the deployment. Counts are BGP sessions per platform.
type Config struct {
	Seed        int64
	RISPeers    int // sessions at RIS collectors (425 in Table 1)
	RVPeers     int // sessions at Route Views (269)
	PCHPerIXP   int // member sessions visible via each PCH collector
	CDNPeers    int // CDN sessions (3349)
	FracFull    float64
	FracPartial float64 // remainder is customer-only
}

// DefaultConfig returns the Table 1-scale deployment.
func DefaultConfig() Config {
	return Config{
		Seed:        42,
		RISPeers:    425,
		RVPeers:     269,
		PCHPerIXP:   40,
		CDNPeers:    3349,
		FracFull:    0.35,
		FracPartial: 0.35,
	}
}

// Scaled shrinks the deployment by factor f.
func (c Config) Scaled(f float64) Config {
	s := func(n int) int {
		v := int(float64(n) * f)
		if v < 1 {
			v = 1
		}
		return v
	}
	out := c
	out.RISPeers = s(c.RISPeers)
	out.RVPeers = s(c.RVPeers)
	out.PCHPerIXP = s(c.PCHPerIXP)
	out.CDNPeers = s(c.CDNPeers)
	return out
}

// Deploy builds the deterministic collector deployment over topo.
func Deploy(topo *topology.Topology, cfg Config) *Deployment {
	r := rand.New(rand.NewSource(cfg.Seed))
	d := &Deployment{
		Topo:            topo,
		sessionsByAS:    map[bgp.ASN][]sessionRef{},
		rsSessionsByIXP: map[int][]sessionRef{},
	}

	// Candidate pools. RIS/RV bias toward the core: weight by customer
	// count. The CDN peers with everyone, including edge networks.
	var core, all []*topology.AS
	for _, asn := range topo.Order {
		as := topo.ASes[asn]
		all = append(all, as)
		for i := 0; i <= len(as.Customers); i++ {
			core = append(core, as) // weight = customers + 1
		}
	}

	feedType := func() FeedType {
		x := r.Float64()
		switch {
		case x < cfg.FracFull:
			return FeedFull
		case x < cfg.FracFull+cfg.FracPartial:
			return FeedPartial
		}
		return FeedCustomerOnly
	}

	mkAddr := func(octet2 int, n int) netip.Addr {
		return netip.AddrFrom4([4]byte{22, byte(octet2), byte(n >> 8), byte(n)})
	}

	// RIS and RV: a handful of collectors each, sessions drawn from the
	// core-biased pool.
	buildCore := func(platform Platform, prefix string, nCollectors, nPeers int, octet2 int) {
		var cols []*Collector
		for i := 0; i < nCollectors; i++ {
			cols = append(cols, &Collector{
				Platform: platform,
				Name:     fmt.Sprintf("%s%02d", prefix, i),
				IP:       mkAddr(octet2, i),
				ASN:      bgp.ASN(64900 + octet2 + i),
				IXPID:    -1,
			})
		}
		for i := 0; i < nPeers; i++ {
			as := core[r.Intn(len(core))]
			col := cols[r.Intn(len(cols))]
			col.Sessions = append(col.Sessions, PeerSession{
				AS:    as.ASN,
				IP:    mkAddr(octet2, 1000+i),
				Feed:  feedType(),
				IXPID: -1,
			})
		}
		d.Collectors = append(d.Collectors, cols...)
	}
	nRIS := 1 + cfg.RISPeers/25
	if nRIS > 21 {
		nRIS = 21
	}
	nRV := 1 + cfg.RVPeers/25
	if nRV > 15 {
		nRV = 15
	}
	buildCore(PlatformRIS, "rrc", nRIS, cfg.RISPeers, 0)
	buildCore(PlatformRV, "route-views", nRV, cfg.RVPeers, 1)

	// PCH: one collector per IXP, peering with the route server. The
	// route-server session relays what members announce to the RS.
	for _, x := range topo.IXPs {
		if !x.HasPCHCollector {
			continue
		}
		col := &Collector{
			Platform: PlatformPCH,
			Name:     fmt.Sprintf("pch-%s", x.Name),
			IP:       mkAddr(2, x.ID),
			ASN:      3856, // PCH's real ASN, reused as a constant
			IXPID:    x.ID,
		}
		col.Sessions = append(col.Sessions, PeerSession{
			AS:          x.RouteServerASN,
			IP:          x.PeeringLAN.Addr(), // RS holds the LAN base address
			Feed:        FeedFull,
			RouteServer: true,
			IXPID:       x.ID,
		})
		d.Collectors = append(d.Collectors, col)
	}

	// CDN: one logical collector, sessions everywhere including inside
	// ISPs (internal feeds).
	cdn := &Collector{
		Platform: PlatformCDN,
		Name:     "cdn",
		IP:       mkAddr(3, 0),
		ASN:      20940, // a CDN ASN constant; the CDN offers no blackholing
		IXPID:    -1,
	}
	for i := 0; i < cfg.CDNPeers; i++ {
		as := all[r.Intn(len(all))]
		cdn.Sessions = append(cdn.Sessions, PeerSession{
			AS:       as.ASN,
			IP:       mkAddr(3, 1000+i),
			Feed:     feedType(),
			IXPID:    -1,
			Internal: r.Float64() < 0.6,
		})
	}
	d.Collectors = append(d.Collectors, cdn)

	// Indexes.
	for _, col := range d.Collectors {
		for i, s := range col.Sessions {
			ref := sessionRef{col, i}
			d.sessionsByAS[s.AS] = append(d.sessionsByAS[s.AS], ref)
			if s.RouteServer {
				d.rsSessionsByIXP[s.IXPID] = append(d.rsSessionsByIXP[s.IXPID], ref)
			}
		}
	}
	return d
}

// ByPlatform returns the collectors of one platform.
func (d *Deployment) ByPlatform(p Platform) []*Collector {
	var out []*Collector
	for _, c := range d.Collectors {
		if c.Platform == p {
			out = append(out, c)
		}
	}
	return out
}

// PeerASes returns the distinct ASes peering with the platform.
func (d *Deployment) PeerASes(p Platform) []bgp.ASN {
	seen := map[bgp.ASN]bool{}
	for _, c := range d.ByPlatform(p) {
		for _, s := range c.Sessions {
			seen[s.AS] = true
		}
	}
	out := make([]bgp.ASN, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	return topology.SortASNs(out)
}

// SessionCount returns the total session count of a platform (the "#IP
// peers" column of Table 1).
func (d *Deployment) SessionCount(p Platform) int {
	n := 0
	for _, c := range d.ByPlatform(p) {
		n += len(c.Sessions)
	}
	return n
}

// HasDirectFeed reports whether the AS has a direct BGP session with
// any collector of the platform (pass platform -1 for "any platform").
func (d *Deployment) HasDirectFeed(p Platform, asn bgp.ASN) bool {
	for _, ref := range d.sessionsByAS[asn] {
		if p < 0 || ref.col.Platform == p {
			return true
		}
	}
	return false
}

// HasRSFeed reports whether the platform peers with the IXP's route
// server (pass platform -1 for "any platform").
func (d *Deployment) HasRSFeed(p Platform, ixpID int) bool {
	for _, ref := range d.rsSessionsByIXP[ixpID] {
		if p < 0 || ref.col.Platform == p {
			return true
		}
	}
	return false
}
