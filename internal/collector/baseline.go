package collector

import (
	"maps"
	"net/netip"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/topology"
)

// internalPrefixes derives the customer-specific/internal more-specifics
// a CDN in-network session additionally receives from its host AS (§3:
// the CDN's unique view). They are never exported into the public DFZ.
func internalPrefixes(as *topology.AS) []netip.Prefix {
	if len(as.Prefixes) == 0 {
		return nil
	}
	base := as.Prefixes[0].Addr().As4()
	n := 2 + int(detHash(uint64(as.ASN))%4)
	out := make([]netip.Prefix, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, netip.PrefixFrom(
			netip.AddrFrom4([4]byte{base[0], base[1], byte(200 + i), 0}), 24))
	}
	return out
}

// exportedPrefixes enumerates the prefixes one session exports to its
// collector, honouring the feed type.
func (d *Deployment) exportedPrefixes(s PeerSession, allPrefixes []netip.Prefix) []netip.Prefix {
	topo := d.Topo
	var out []netip.Prefix
	switch {
	case s.RouteServer:
		// The route server relays what members announce to it: their own
		// prefixes and their customer cones'.
		x := topo.IXPByRouteServer(s.AS)
		if x == nil {
			return nil
		}
		seen := map[bgp.ASN]bool{}
		for _, m := range x.Members {
			for a := range topo.CustomerCone(m) {
				if !seen[a] {
					seen[a] = true
					out = append(out, topo.AS(a).Prefixes...)
				}
			}
		}
	case s.Feed == FeedFull:
		out = append(out, allPrefixes...)
	case s.Feed == FeedPartial:
		for _, p := range allPrefixes {
			if detHash(uint64(s.AS), prefixHash(p))%2 == 0 {
				out = append(out, p)
			}
		}
	case s.Feed == FeedCustomerOnly:
		for a := range topo.CustomerCone(s.AS) {
			out = append(out, topo.AS(a).Prefixes...)
		}
	}
	if s.Internal {
		out = append(out, internalPrefixes(topo.AS(s.AS))...)
	}
	return out
}

// allPublicPrefixes lists every publicly originated prefix.
func (d *Deployment) allPublicPrefixes() []netip.Prefix {
	var out []netip.Prefix
	for _, asn := range d.Topo.Order {
		out = append(out, d.Topo.AS(asn).Prefixes...)
	}
	return out
}

// PlatformPrefixes returns the set of distinct prefixes visible at one
// platform (the "#Prefixes" column of Table 1).
func (d *Deployment) PlatformPrefixes(p Platform) map[netip.Prefix]bool {
	all := d.allPublicPrefixes()
	out := map[netip.Prefix]bool{}
	for _, col := range d.ByPlatform(p) {
		for _, s := range col.Sessions {
			for _, pfx := range d.exportedPrefixes(s, all) {
				out[pfx] = true
			}
		}
	}
	return out
}

// VisibilityStats is one row of Table 1.
type VisibilityStats struct {
	Platform       Platform
	IPPeers        int
	ASPeers        int
	UniqueASPeers  int
	Prefixes       int
	UniquePrefixes int
}

// Table1 computes the dataset-overview statistics across all platforms
// plus the combined total row.
func (d *Deployment) Table1() []VisibilityStats {
	platforms := Platforms()
	prefixSets := make([]map[netip.Prefix]bool, len(platforms))
	peerSets := make([]map[bgp.ASN]bool, len(platforms))
	totalPrefixes := map[netip.Prefix]bool{}
	totalPeers := map[bgp.ASN]bool{}
	for i, p := range platforms {
		prefixSets[i] = d.PlatformPrefixes(p)
		maps.Copy(totalPrefixes, prefixSets[i])
		peerSets[i] = map[bgp.ASN]bool{}
		for _, a := range d.PeerASes(p) {
			peerSets[i][a] = true
			totalPeers[a] = true
		}
	}
	var rows []VisibilityStats
	totalSessions := 0
	for i, p := range platforms {
		rows = append(rows, VisibilityStats{
			Platform:       p,
			IPPeers:        d.SessionCount(p),
			ASPeers:        len(peerSets[i]),
			UniqueASPeers:  onlyIn(peerSets, i),
			Prefixes:       len(prefixSets[i]),
			UniquePrefixes: onlyIn(prefixSets, i),
		})
		totalSessions += d.SessionCount(p)
	}
	rows = append(rows, VisibilityStats{
		Platform:       -1, // total row
		IPPeers:        totalSessions,
		ASPeers:        len(totalPeers),
		UniqueASPeers:  len(totalPeers),
		Prefixes:       len(totalPrefixes),
		UniquePrefixes: len(totalPrefixes),
	})
	return rows
}

// onlyIn counts the members of sets[i] that no other set holds.
func onlyIn[K comparable](sets []map[K]bool, i int) int {
	n := 0
next:
	for k := range sets[i] {
		for j := range sets {
			if j != i && sets[j][k] {
				continue next
			}
		}
		n++
	}
	return n
}

// OrdinaryUpdates synthesises a day's worth of routine BGP churn: peers
// re-announce prefixes they export, tagged with the informational
// communities of the announcing AS — the background against which
// Figure 2 contrasts blackhole communities. n bounds the number of
// updates produced.
func (d *Deployment) OrdinaryUpdates(t time.Time, n int) []Observation {
	all := d.allPublicPrefixes()
	var out []Observation
	i := 0
	for _, col := range d.Collectors {
		for _, s := range col.Sessions {
			if s.RouteServer {
				continue
			}
			as := d.Topo.AS(s.AS)
			if as == nil || len(as.RoutingCommunities) == 0 {
				continue
			}
			exported := d.exportedPrefixes(s, all)
			for _, pfx := range exported {
				if len(out) >= n {
					return out
				}
				if detHash(uint64(s.AS), prefixHash(pfx), 7)%16 != 0 {
					continue // only a sample churns on a given day
				}
				origin := d.Topo.OriginOf(pfx)
				if origin == 0 {
					continue
				}
				nc := 1 + int(detHash(uint64(s.AS), prefixHash(pfx))%uint64(len(as.RoutingCommunities)))
				u := &bgp.Update{
					Time:        t.Add(time.Duration(i) * time.Second),
					PeerIP:      s.IP,
					PeerAS:      s.AS,
					Announced:   []netip.Prefix{pfx},
					Origin:      bgp.OriginIGP,
					Path:        bgp.NewPath(s.AS, origin),
					NextHop:     s.IP,
					Communities: as.RoutingCommunities[:nc],
				}
				out = append(out, Observation{Collector: col, Session: s, Update: u})
				i++
			}
		}
	}
	return out
}
