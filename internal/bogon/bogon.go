// Package bogon implements the BGP data cleaning step of §3: filtering
// out non-routable, private and bogon prefixes (as published in
// Cymru-style bogon lists) and prefixes less specific than /8, which are
// obvious misconfigurations.
package bogon

import (
	"net/netip"

	"bgpblackholing/internal/bgp"
)

// ipv4Bogons is the static full-bogon table for IPv4: special-use ranges
// from RFC 6890 and friends that must never appear in the DFZ. The table
// mirrors the Team Cymru bogon reference used by the paper.
var ipv4Bogons = []netip.Prefix{
	netip.MustParsePrefix("0.0.0.0/8"),       // "this" network
	netip.MustParsePrefix("10.0.0.0/8"),      // RFC 1918
	netip.MustParsePrefix("100.64.0.0/10"),   // CGN shared space, RFC 6598
	netip.MustParsePrefix("127.0.0.0/8"),     // loopback
	netip.MustParsePrefix("169.254.0.0/16"),  // link local
	netip.MustParsePrefix("172.16.0.0/12"),   // RFC 1918
	netip.MustParsePrefix("192.0.0.0/24"),    // IETF protocol assignments
	netip.MustParsePrefix("192.0.2.0/24"),    // TEST-NET-1
	netip.MustParsePrefix("192.168.0.0/16"),  // RFC 1918
	netip.MustParsePrefix("198.18.0.0/15"),   // benchmarking
	netip.MustParsePrefix("198.51.100.0/24"), // TEST-NET-2
	netip.MustParsePrefix("203.0.113.0/24"),  // TEST-NET-3
	netip.MustParsePrefix("224.0.0.0/4"),     // multicast
	netip.MustParsePrefix("240.0.0.0/4"),     // reserved
}

// ipv6Bogons is the static full-bogon table for IPv6.
var ipv6Bogons = []netip.Prefix{
	netip.MustParsePrefix("::/8"),          // loopback, unspecified, v4-mapped
	netip.MustParsePrefix("100::/64"),      // discard only
	netip.MustParsePrefix("2001:db8::/32"), // documentation
	netip.MustParsePrefix("fc00::/7"),      // unique local
	netip.MustParsePrefix("fe80::/10"),     // link local
	netip.MustParsePrefix("ff00::/8"),      // multicast
}

// ipv4FirstOctet[o] reports whether any ipv4Bogons entry overlaps
// o.0.0.0/8. Derived from the table, which stays the single source of
// truth, it lets IsBogon clear ordinary unicast space in O(1).
var ipv4FirstOctet = func() (t [256]bool) {
	for o := range t {
		t[o] = overlapsAny(ipv4Bogons, netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(o)}), 8))
	}
	return t
}()

// IsBogon reports whether the prefix overlaps any entry of the bogon
// table (so announcing it would leak special-use space into the DFZ).
//
// Note that the documentation/TEST-NET prefixes are bogons in the real
// Internet; the synthetic topology therefore numbers its ASes out of
// ordinary unicast space instead.
func IsBogon(p netip.Prefix) bool {
	if p.Addr().Is6() {
		return overlapsAny(ipv6Bogons, p)
	}
	// A /8 or longer lies inside one first octet.
	if p.Bits() >= 8 && !ipv4FirstOctet[p.Addr().As4()[0]] {
		return false
	}
	return overlapsAny(ipv4Bogons, p)
}

func overlapsAny(table []netip.Prefix, p netip.Prefix) bool {
	for _, b := range table {
		if b.Overlaps(p) {
			return true
		}
	}
	return false
}

// TooCoarse reports whether the prefix is less specific than /8 (IPv4)
// or /16 (IPv6); the paper eliminates such announcements as obvious
// misconfigurations (§3, "BGP Data Cleaning").
func TooCoarse(p netip.Prefix) bool {
	if p.Addr().Is4() {
		return p.Bits() < 8
	}
	return p.Bits() < 16
}

// Acceptable reports whether the prefix survives data cleaning: valid,
// not a bogon and not coarser than /8.
func Acceptable(p netip.Prefix) bool {
	return p.IsValid() && !IsBogon(p) && !TooCoarse(p)
}

// CleanUpdate returns the update with unacceptable prefixes removed
// from both the announced and withdrawn lists, or nil when nothing
// routable remains. An already-clean update is returned as-is (not
// copied); only an update that actually loses prefixes is deep-cloned.
// Callers must therefore treat the result as read-only — replay
// observations share their prefix and path slices across vantage
// points.
func CleanUpdate(u *bgp.Update) *bgp.Update {
	if len(u.Announced) == 0 && len(u.Withdrawn) == 0 {
		return u
	}
	// Fast path: a fully clean update (the overwhelmingly common case on
	// the replay hot path) is returned as-is, avoiding the deep clone.
	if allAcceptable(u.Announced) && allAcceptable(u.Withdrawn) {
		return u
	}
	out := u.Clone()
	out.Announced = filterPrefixes(out.Announced)
	out.Withdrawn = filterPrefixes(out.Withdrawn)
	if len(out.Announced) == 0 && len(out.Withdrawn) == 0 {
		return nil
	}
	return out
}

func allAcceptable(ps []netip.Prefix) bool {
	for _, p := range ps {
		if !Acceptable(p) {
			return false
		}
	}
	return true
}

func filterPrefixes(ps []netip.Prefix) []netip.Prefix {
	out := ps[:0]
	for _, p := range ps {
		if Acceptable(p) {
			out = append(out, p)
		}
	}
	return out
}
