package bogon

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"

	"bgpblackholing/internal/bgp"
)

func TestIsBogon(t *testing.T) {
	bogons := []string{
		"10.0.0.0/8", "10.1.2.0/24", "192.168.1.0/24", "172.16.5.0/24",
		"127.0.0.1/32", "169.254.0.0/16", "224.0.0.0/8", "240.1.0.0/16",
		"100.64.0.0/10", "198.18.0.0/15", "0.0.0.0/0",
		"fc00::/7", "fe80::/10", "ff02::/16", "2001:db8::/32", "::1/128",
	}
	for _, s := range bogons {
		if !IsBogon(netip.MustParsePrefix(s)) {
			t.Errorf("IsBogon(%s) = false, want true", s)
		}
	}
	clean := []string{
		"8.8.8.0/24", "1.1.1.0/24", "185.0.0.0/16", "151.101.0.0/16",
		"2001:4860::/32", "2a00::/16",
	}
	for _, s := range clean {
		if IsBogon(netip.MustParsePrefix(s)) {
			t.Errorf("IsBogon(%s) = true, want false", s)
		}
	}
}

func TestTooCoarse(t *testing.T) {
	if !TooCoarse(netip.MustParsePrefix("8.0.0.0/7")) {
		t.Error("/7 should be too coarse")
	}
	if TooCoarse(netip.MustParsePrefix("8.0.0.0/8")) {
		t.Error("/8 should be acceptable")
	}
	if !TooCoarse(netip.MustParsePrefix("2a00::/15")) {
		t.Error("v6 /15 should be too coarse")
	}
	if TooCoarse(netip.MustParsePrefix("2a00::/16")) {
		t.Error("v6 /16 should be acceptable")
	}
}

func TestAcceptable(t *testing.T) {
	if !Acceptable(netip.MustParsePrefix("8.8.8.8/32")) {
		t.Error("host route in clean space should be acceptable")
	}
	if Acceptable(netip.MustParsePrefix("10.0.0.1/32")) {
		t.Error("RFC1918 host route should be rejected")
	}
	if Acceptable(netip.Prefix{}) {
		t.Error("zero prefix should be rejected")
	}
}

func TestCleanUpdate(t *testing.T) {
	u := &bgp.Update{
		Announced: []netip.Prefix{
			netip.MustParsePrefix("8.8.8.8/32"),
			netip.MustParsePrefix("10.0.0.1/32"), // bogon, dropped
		},
		Withdrawn: []netip.Prefix{
			netip.MustParsePrefix("192.168.0.0/16"), // bogon, dropped
			netip.MustParsePrefix("1.1.1.0/24"),
		},
	}
	got := CleanUpdate(u)
	if got == nil {
		t.Fatal("update should survive cleaning")
	}
	if len(got.Announced) != 1 || got.Announced[0].String() != "8.8.8.8/32" {
		t.Fatalf("announced = %v", got.Announced)
	}
	if len(got.Withdrawn) != 1 || got.Withdrawn[0].String() != "1.1.1.0/24" {
		t.Fatalf("withdrawn = %v", got.Withdrawn)
	}
	// Original untouched.
	if len(u.Announced) != 2 || len(u.Withdrawn) != 2 {
		t.Fatal("CleanUpdate mutated its input")
	}
}

func TestCleanUpdateAllBogons(t *testing.T) {
	u := &bgp.Update{
		Announced: []netip.Prefix{netip.MustParsePrefix("10.0.0.1/32")},
	}
	if got := CleanUpdate(u); got != nil {
		t.Fatalf("got %v, want nil for all-bogon update", got)
	}
}

func TestCleanUpdateEmptyPassthrough(t *testing.T) {
	u := &bgp.Update{}
	if got := CleanUpdate(u); got != u {
		t.Fatal("empty update should pass through unchanged")
	}
}

// The first-octet fast path answers exactly like the scan: at every
// table entry's first and last address and their outside neighbours,
// for every length /8…/32, and on seeded random prefixes of any length.
func TestIsBogonFastPathMatchesScan(t *testing.T) {
	check := func(a netip.Addr, bits int) {
		t.Helper()
		p := netip.PrefixFrom(a, bits).Masked()
		if got, want := IsBogon(p), overlapsAny(ipv4Bogons, p); got != want {
			t.Fatalf("IsBogon(%v) = %v, linear scan says %v", p, got, want)
		}
	}
	for _, b := range ipv4Bogons {
		first := b.Addr()
		last := netip.AddrFrom4(addU32(first, 1<<(32-b.Bits())-1))
		for _, a := range []netip.Addr{
			first, last,
			netip.AddrFrom4(addU32(first, ^uint32(0))), // first-1, wrapping at 0.0.0.0
			netip.AddrFrom4(addU32(last, 1)),           // last+1, wrapping at 255.255.255.255
		} {
			for bits := 8; bits <= 32; bits++ {
				check(a, bits)
			}
		}
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		var a [4]byte
		binary.BigEndian.PutUint32(a[:], r.Uint32())
		check(netip.AddrFrom4(a), r.Intn(33))
	}
}

func addU32(a netip.Addr, d uint32) [4]byte {
	b := a.As4()
	binary.BigEndian.PutUint32(b[:], binary.BigEndian.Uint32(b[:])+d)
	return b
}
