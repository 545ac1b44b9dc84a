// Package bgp provides the core Border Gateway Protocol data model used
// throughout the repository: AS numbers, prefixes, AS paths, the three
// community attribute flavours (RFC 1997 standard, RFC 4360 extended and
// RFC 8092 large communities) and BGP UPDATE messages, together with an
// RFC 4271 wire-format encoder and decoder.
//
// The package is self-contained (standard library only) and forms the
// substrate on which the MRT archive format (package mrt), the route
// collector simulation (package collector) and the blackholing inference
// engine (package core) are built.
package bgp

import (
	"fmt"
	"math/bits"
	"net/netip"
	"strconv"
	"strings"
)

// ASN is a BGP Autonomous System number. Both 16-bit and 32-bit AS numbers
// are represented; 16-bit ASNs simply occupy the low half of the value
// space, matching the RFC 6793 "AS4" convention.
type ASN uint32

// String renders the ASN in the canonical "asplain" notation.
func (a ASN) String() string { return strconv.FormatUint(uint64(a), 10) }

// AppendTo appends the ASN in the canonical "asplain" notation to b.
func (a ASN) AppendTo(b []byte) []byte { return strconv.AppendUint(b, uint64(a), 10) }

// TextLess reports whether a's notation sorts before o's byte by byte
// ("10" before "9"), without rendering either.
func (a ASN) TextLess(o ASN) bool { return decimalLess(uint32(a), uint32(o), false) }

// decimalLess reports whether x's decimal rendering sorts before y's byte
// by byte, with a ':' after each when colon is set. The shorter is scaled
// to the longer's digit count; if its digits begin the longer's, it sorts
// first, unless a ':' follows it, which sorts after every digit.
func decimalLess(x, y uint32, colon bool) bool {
	a, b := uint64(x), uint64(y)
	switch nx, ny := decimalWidth(x), decimalWidth(y); {
	case nx < ny:
		if a *= pow10[ny-nx]; b-a < pow10[ny-nx] {
			return !colon
		}
	case nx > ny:
		if b *= pow10[nx-ny]; a-b < pow10[nx-ny] {
			return colon
		}
	}
	return a < b
}

var pow10 = [...]uint64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// decimalWidth is x's digit count: log10 from the bit length, corrected.
func decimalWidth(x uint32) int {
	x |= 1                          // 0 is one digit wide; no power of ten from 10 up is odd
	w := bits.Len32(x) * 1233 >> 12 // 1233/4096 ≈ log10 2
	if uint64(x) >= pow10[w] {
		w++
	}
	return w
}

// Is16Bit reports whether the ASN fits the original 2-octet AS number space.
func (a ASN) Is16Bit() bool { return a <= 0xFFFF }

// IsPrivate reports whether the ASN falls in an IANA private-use range
// (64512-65534 for 2-octet, 4200000000-4294967294 for 4-octet, RFC 6996).
func (a ASN) IsPrivate() bool {
	return (a >= 64512 && a <= 65534) || (a >= 4200000000 && a <= 4294967294)
}

// IsReserved reports whether the ASN is reserved (0, 23456 AS_TRANS,
// 65535 and the last 4-octet value, per IANA).
func (a ASN) IsReserved() bool {
	return a == 0 || a == 23456 || a == 65535 || a == 4294967295
}

// IsPublic reports whether the ASN is a routable public AS number.
func (a ASN) IsPublic() bool { return !a.IsPrivate() && !a.IsReserved() }

// Community is an RFC 1997 standard BGP community: a 32-bit value whose
// high 16 bits conventionally carry an AS number and whose low 16 bits
// carry an operator-defined tag.
type Community uint32

// Well-known communities from the IANA registry.
const (
	// CommunityNoExport is the RFC 1997 NO_EXPORT well-known community.
	CommunityNoExport Community = 0xFFFFFF01
	// CommunityNoAdvertise is the RFC 1997 NO_ADVERTISE well-known community.
	CommunityNoAdvertise Community = 0xFFFFFF02
	// CommunityBlackhole is the RFC 7999 BLACKHOLE community (65535:666).
	CommunityBlackhole Community = 0xFFFF029A
)

// MakeCommunity assembles a community from its conventional ASN:value parts.
func MakeCommunity(asn uint16, value uint16) Community {
	return Community(uint32(asn)<<16 | uint32(value))
}

// High returns the high 16 bits, conventionally an AS number.
func (c Community) High() uint16 { return uint16(c >> 16) }

// Low returns the low 16 bits, the operator-defined tag.
func (c Community) Low() uint16 { return uint16(c & 0xFFFF) }

// AppendTo appends the community in the canonical "high:low" notation to b.
func (c Community) AppendTo(b []byte) []byte {
	b = strconv.AppendUint(b, uint64(c.High()), 10)
	return strconv.AppendUint(append(b, ':'), uint64(c.Low()), 10)
}

// TextLess reports whether c's "high:low" notation sorts before o's byte
// by byte, without rendering either. A high half whose digits begin a
// longer one's sorts after it ("14142:1" before "14:1"): ':' > '9'.
func (c Community) TextLess(o Community) bool {
	if c.High() == o.High() {
		return decimalLess(uint32(c.Low()), uint32(o.Low()), false)
	}
	return decimalLess(uint32(c.High()), uint32(o.High()), true)
}

// String renders the community in the canonical "high:low" notation.
func (c Community) String() string {
	var b [11]byte
	return string(c.AppendTo(b[:0]))
}

// ParseCommunity parses the canonical "high:low" notation.
func ParseCommunity(s string) (Community, error) {
	head, tail, ok := strings.Cut(s, ":")
	if !ok {
		return 0, fmt.Errorf("bgp: community %q: missing ':'", s)
	}
	hi, err := strconv.ParseUint(head, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("bgp: community %q: bad high part: %w", s, err)
	}
	lo, err := strconv.ParseUint(tail, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("bgp: community %q: bad low part: %w", s, err)
	}
	return MakeCommunity(uint16(hi), uint16(lo)), nil
}

// LargeCommunity is an RFC 8092 large community: three 32-bit fields
// rendered "global:local1:local2". The global administrator field holds a
// 4-octet AS number, lifting the RFC 1997 16-bit restriction.
type LargeCommunity struct {
	Global uint32
	Local1 uint32
	Local2 uint32
}

// String renders the large community in canonical notation.
func (lc LargeCommunity) String() string {
	return fmt.Sprintf("%d:%d:%d", lc.Global, lc.Local1, lc.Local2)
}

// ParseLargeCommunity parses the canonical "a:b:c" notation.
func ParseLargeCommunity(s string) (LargeCommunity, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return LargeCommunity{}, fmt.Errorf("bgp: large community %q: want 3 fields", s)
	}
	var vals [3]uint32
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return LargeCommunity{}, fmt.Errorf("bgp: large community %q: field %d: %w", s, i, err)
		}
		vals[i] = uint32(v)
	}
	return LargeCommunity{vals[0], vals[1], vals[2]}, nil
}

// ExtendedCommunity is an RFC 4360 extended community, an opaque 8-octet
// value. Only transparent carriage is required by this repository, so the
// value is kept raw; Type and SubType accessors expose the header octets.
type ExtendedCommunity [8]byte

// Type returns the high-order type octet.
func (ec ExtendedCommunity) Type() byte { return ec[0] }

// SubType returns the sub-type octet.
func (ec ExtendedCommunity) SubType() byte { return ec[1] }

// String renders the extended community as its hexadecimal octets.
func (ec ExtendedCommunity) String() string {
	return fmt.Sprintf("%02x%02x:%02x%02x%02x%02x%02x%02x",
		ec[0], ec[1], ec[2], ec[3], ec[4], ec[5], ec[6], ec[7])
}

// Origin is the BGP ORIGIN path attribute value.
type Origin uint8

// ORIGIN attribute values per RFC 4271.
const (
	OriginIGP        Origin = 0
	OriginEGP        Origin = 1
	OriginIncomplete Origin = 2
)

// String renders the origin code as in router show output.
func (o Origin) String() string {
	switch o {
	case OriginIGP:
		return "IGP"
	case OriginEGP:
		return "EGP"
	case OriginIncomplete:
		return "INCOMPLETE"
	}
	return "ORIGIN(" + strconv.Itoa(int(o)) + ")"
}

// PrefixLessSpecificThan reports whether p is less specific than bits,
// i.e. covers more address space than a /bits prefix.
func PrefixLessSpecificThan(p netip.Prefix, bits int) bool {
	return p.Bits() < bits
}

// IsHostRoute reports whether the prefix is a host route (/32 for IPv4,
// /128 for IPv6). Host routes dominate blackholing announcements.
func IsHostRoute(p netip.Prefix) bool {
	if p.Addr().Is4() {
		return p.Bits() == 32
	}
	return p.Bits() == 128
}

// MoreSpecificThan24 reports whether the prefix is more specific than the
// /24 (IPv4) or /48 (IPv6) best-practice propagation limit. Blackholing
// providers accept such routes only when tagged with a blackhole community.
func MoreSpecificThan24(p netip.Prefix) bool {
	if p.Addr().Is4() {
		return p.Bits() > 24
	}
	return p.Bits() > 48
}
