package bgp

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestASNClassification(t *testing.T) {
	cases := []struct {
		asn                 ASN
		private, reserved   bool
		public, sixteenBits bool
	}{
		{174, false, false, true, true},
		{3356, false, false, true, true},
		{64512, true, false, false, true},
		{65534, true, false, false, true},
		{65535, false, true, false, true},
		{0, false, true, false, true},
		{23456, false, true, false, true},
		{196615, false, false, true, false},
		{4200000000, true, false, false, false},
		{4294967295, false, true, false, false},
	}
	for _, c := range cases {
		if got := c.asn.IsPrivate(); got != c.private {
			t.Errorf("ASN %d IsPrivate = %v, want %v", c.asn, got, c.private)
		}
		if got := c.asn.IsReserved(); got != c.reserved {
			t.Errorf("ASN %d IsReserved = %v, want %v", c.asn, got, c.reserved)
		}
		if got := c.asn.IsPublic(); got != c.public {
			t.Errorf("ASN %d IsPublic = %v, want %v", c.asn, got, c.public)
		}
		if got := c.asn.Is16Bit(); got != c.sixteenBits {
			t.Errorf("ASN %d Is16Bit = %v, want %v", c.asn, got, c.sixteenBits)
		}
	}
}

func TestCommunityParts(t *testing.T) {
	c := MakeCommunity(3356, 9999)
	if c.High() != 3356 || c.Low() != 9999 {
		t.Fatalf("MakeCommunity(3356,9999) = %d:%d", c.High(), c.Low())
	}
	if c.String() != "3356:9999" {
		t.Fatalf("String = %q", c.String())
	}
}

func TestCommunityBlackholeWellKnown(t *testing.T) {
	if CommunityBlackhole.High() != 65535 || CommunityBlackhole.Low() != 666 {
		t.Fatalf("RFC 7999 BLACKHOLE = %s, want 65535:666", CommunityBlackhole)
	}
	if CommunityNoExport.String() != "65535:65281" {
		t.Fatalf("NO_EXPORT = %s", CommunityNoExport)
	}
}

func TestParseCommunity(t *testing.T) {
	good := map[string]Community{
		"174:666":   MakeCommunity(174, 666),
		"65535:666": CommunityBlackhole,
		"0:666":     MakeCommunity(0, 666),
		"3356:9999": MakeCommunity(3356, 9999),
	}
	for s, want := range good {
		got, err := ParseCommunity(s)
		if err != nil {
			t.Errorf("ParseCommunity(%q): %v", s, err)
			continue
		}
		if got != want {
			t.Errorf("ParseCommunity(%q) = %v, want %v", s, got, want)
		}
	}
	for _, s := range []string{"", "174", "174:", ":666", "70000:1", "174:70000", "a:b", "1:2:3:4"} {
		if _, err := ParseCommunity(s); err == nil {
			t.Errorf("ParseCommunity(%q): want error", s)
		}
	}
}

func TestParseCommunityRoundTrip(t *testing.T) {
	f := func(hi, lo uint16) bool {
		c := MakeCommunity(hi, lo)
		back, err := ParseCommunity(c.String())
		return err == nil && back == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseLargeCommunity(t *testing.T) {
	lc, err := ParseLargeCommunity("212100:666:0")
	if err != nil {
		t.Fatal(err)
	}
	if lc != (LargeCommunity{212100, 666, 0}) {
		t.Fatalf("got %v", lc)
	}
	if lc.String() != "212100:666:0" {
		t.Fatalf("String = %q", lc.String())
	}
	for _, s := range []string{"", "1:2", "1:2:3:4", "x:1:2"} {
		if _, err := ParseLargeCommunity(s); err == nil {
			t.Errorf("ParseLargeCommunity(%q): want error", s)
		}
	}
}

func TestLargeCommunityRoundTrip(t *testing.T) {
	f := func(a, b, c uint32) bool {
		lc := LargeCommunity{a, b, c}
		back, err := ParseLargeCommunity(lc.String())
		return err == nil && back == lc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExtendedCommunityAccessors(t *testing.T) {
	ec := ExtendedCommunity{0x00, 0x02, 0x0d, 0x1c, 0x00, 0x00, 0x02, 0x9a}
	if ec.Type() != 0x00 || ec.SubType() != 0x02 {
		t.Fatalf("type/subtype = %x/%x", ec.Type(), ec.SubType())
	}
	if ec.String() != "0002:0d1c0000029a" {
		t.Fatalf("String = %q", ec.String())
	}
}

func TestOriginString(t *testing.T) {
	if OriginIGP.String() != "IGP" || OriginEGP.String() != "EGP" || OriginIncomplete.String() != "INCOMPLETE" {
		t.Fatal("origin strings wrong")
	}
	if Origin(7).String() != "ORIGIN(7)" {
		t.Fatalf("unknown origin = %q", Origin(7).String())
	}
}

func TestHostRouteAndSpecificity(t *testing.T) {
	p32 := netip.MustParsePrefix("192.0.2.1/32")
	p24 := netip.MustParsePrefix("192.0.2.0/24")
	p25 := netip.MustParsePrefix("192.0.2.0/25")
	p128 := netip.MustParsePrefix("2001:db8::1/128")
	p48 := netip.MustParsePrefix("2001:db8::/48")
	p49 := netip.MustParsePrefix("2001:db8::/49")

	if !IsHostRoute(p32) || IsHostRoute(p24) || !IsHostRoute(p128) || IsHostRoute(p48) {
		t.Fatal("IsHostRoute misclassification")
	}
	if !MoreSpecificThan24(p32) || !MoreSpecificThan24(p25) || MoreSpecificThan24(p24) {
		t.Fatal("MoreSpecificThan24 IPv4 misclassification")
	}
	if !MoreSpecificThan24(p49) || MoreSpecificThan24(p48) {
		t.Fatal("MoreSpecificThan24 IPv6 misclassification")
	}
	if !PrefixLessSpecificThan(netip.MustParsePrefix("10.0.0.0/7"), 8) {
		t.Fatal("/7 should be less specific than /8")
	}
	if PrefixLessSpecificThan(netip.MustParsePrefix("10.0.0.0/8"), 8) {
		t.Fatal("/8 is not less specific than /8")
	}
}

// TestTextLessIsTheRenderingsOrder holds ASN.TextLess and
// Community.TextLess to a byte comparison of the two renderings: over
// every pair of edge values — each width's limits, numbers whose digits
// begin one another's, the type's extremes — and a seeded draw of pairs.
func TestTextLessIsTheRenderingsOrder(t *testing.T) {
	edges := []uint32{0, 1, 2, 9, 10, 11, 14, 19, 99, 100, 101, 140, 141, 666, 999, 1000, 1414, 9999, 10000, 14142, 65535,
		99999, 100000, 999999999, 1000000000, 1000000001, 4294967294, 4294967295}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		edges = append(edges, r.Uint32()>>r.Intn(32))
	}
	for _, x := range edges {
		for _, y := range edges[:60] {
			if got, want := ASN(x).TextLess(ASN(y)), ASN(x).String() < ASN(y).String(); got != want {
				t.Fatalf("ASN(%d).TextLess(%d) = %v, want %v", x, y, got, want)
			}
			if got, want := ASN(y).TextLess(ASN(x)), ASN(y).String() < ASN(x).String(); got != want {
				t.Fatalf("ASN(%d).TextLess(%d) = %v, want %v", y, x, got, want)
			}
			for _, c := range [][2]Community{{Community(x), Community(y)}, {Community(x), Community(x>>16<<16 | y&0xFFFF)},
				{Community(x & 0xFFFF0000), Community(y)}, {Community(x<<16 | y&0xFFFF), Community(y<<16 | x&0xFFFF)}} {
				if got, want := c[0].TextLess(c[1]), c[0].String() < c[1].String(); got != want {
					t.Fatalf("%s.TextLess(%s) = %v, want %v", c[0], c[1], got, want)
				}
			}
		}
	}
}
