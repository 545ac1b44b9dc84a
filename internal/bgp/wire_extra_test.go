package bgp

import (
	"encoding/binary"
	"net/netip"
	"reflect"
	"testing"
)

// TestExtendedLengthAttribute forces a COMMUNITIES attribute longer than
// 255 bytes (more than 63 communities), exercising the RFC 4271
// extended-length attribute flag on both encode and decode.
func TestExtendedLengthAttribute(t *testing.T) {
	u := &Update{
		Announced: []netip.Prefix{netip.MustParsePrefix("192.88.99.1/32")},
		Origin:    OriginIGP,
		Path:      NewPath(3356, 65001),
		NextHop:   netip.MustParseAddr("10.0.0.1"),
	}
	for i := 0; i < 100; i++ {
		u.Communities = append(u.Communities, MakeCommunity(3356, uint16(i)))
	}
	wire, err := MarshalUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalUpdate(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Communities, u.Communities) {
		t.Fatalf("got %d communities, want %d", len(got.Communities), len(u.Communities))
	}
}

// TestASSetRoundTrip covers AS_SET segments through the wire format.
func TestASSetRoundTrip(t *testing.T) {
	u := &Update{
		Announced: []netip.Prefix{netip.MustParsePrefix("192.88.99.0/24")},
		Origin:    OriginIncomplete,
		Path: Path{Segments: []Segment{
			{Type: SegmentSequence, ASNs: []ASN{3356, 174}},
			{Type: SegmentSet, ASNs: []ASN{64512, 64513, 64514}},
		}},
		NextHop: netip.MustParseAddr("10.0.0.1"),
	}
	wire, err := MarshalUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalUpdate(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Path.Equal(u.Path) {
		t.Fatalf("path = %v, want %v", got.Path, u.Path)
	}
	if got.Origin != OriginIncomplete {
		t.Fatalf("origin = %v", got.Origin)
	}
}

// TestMalformedASPathSegment rejects unknown segment types and short
// segments.
func TestMalformedASPathSegment(t *testing.T) {
	u := &Update{
		Announced: []netip.Prefix{netip.MustParsePrefix("192.88.99.0/24")},
		Origin:    OriginIGP,
		Path:      NewPath(3356),
		NextHop:   netip.MustParseAddr("10.0.0.1"),
	}
	wire, err := MarshalUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the AS_PATH attribute (flags 0x40, code 2) and corrupt the
	// segment type.
	for i := HeaderLen; i+1 < len(wire); i++ {
		if wire[i] == flagTransitive && wire[i+1] == attrASPath {
			wire[i+3] = 9 // invalid segment type
			break
		}
	}
	if _, err := UnmarshalUpdate(wire); err == nil {
		t.Fatal("want error for invalid segment type")
	}
}

// TestUnknownAttributeSkipped: decoders must ignore unrecognised path
// attributes transparently.
func TestUnknownAttributeSkipped(t *testing.T) {
	u := &Update{
		Announced: []netip.Prefix{netip.MustParsePrefix("192.88.99.0/24")},
		Origin:    OriginIGP,
		Path:      NewPath(3356),
		NextHop:   netip.MustParseAddr("10.0.0.1"),
	}
	wire, err := MarshalUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	// Splice in an unknown attribute (code 99) before the NLRI. Rebuild
	// the message manually: parse header fields.
	// Withdrawn len is at body[0:2] (0), attrs len at body[2:4].
	body := append([]byte(nil), wire[HeaderLen:]...)
	attrsLen := int(body[2])<<8 | int(body[3])
	unknown := []byte{flagOptional | flagTransitive, 99, 2, 0xAB, 0xCD}
	newBody := append([]byte(nil), body[:4]...)
	newBody = append(newBody, body[4:4+attrsLen]...)
	newBody = append(newBody, unknown...)
	newBody = append(newBody, body[4+attrsLen:]...)
	newAttrsLen := attrsLen + len(unknown)
	newBody[2], newBody[3] = byte(newAttrsLen>>8), byte(newAttrsLen)

	msg, err := AppendMessage(nil, TypeUpdate, newBody)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalUpdate(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Path.Equal(u.Path) || len(got.Announced) != 1 {
		t.Fatal("known attributes lost around unknown one")
	}
}

// TestMarshalPathAttributesStandalone covers the MRT RIB-entry form.
func TestMarshalPathAttributesStandalone(t *testing.T) {
	u := &Update{
		Origin:           OriginEGP,
		Path:             NewPath(6939, 65010),
		NextHop:          netip.MustParseAddr("2001:db8::9"), // v6: MP_REACH form
		Communities:      []Community{CommunityBlackhole},
		LargeCommunities: []LargeCommunity{{212100, 666, 0}},
	}
	attrs := MarshalPathAttributes(u)
	got, err := UnmarshalPathAttributes(attrs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Origin != OriginEGP || !got.Path.Equal(u.Path) {
		t.Fatal("origin/path mismatch")
	}
	if got.NextHop != u.NextHop {
		t.Fatalf("v6 next hop = %v", got.NextHop)
	}
	if !reflect.DeepEqual(got.Communities, u.Communities) ||
		!reflect.DeepEqual(got.LargeCommunities, u.LargeCommunities) {
		t.Fatal("communities mismatch")
	}
	if len(got.Announced) != 0 {
		t.Fatal("standalone attributes should carry no NLRI")
	}
}

// TestNextHopRule holds both encoders to the one attribute writer's
// next-hop rule: an IPv4 next hop goes in NEXT_HOP, beside IPv4
// reachability only; an IPv6 one goes in MP_REACH_NLRI, which an update
// with IPv6 NLRI always carries (zero next hop if none is IPv6). What
// the encoder writes decodes back to the next hop the table names.
func TestNextHopRule(t *testing.T) {
	v4, v6 := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("2001:db8::1")
	p4, p6 := netip.MustParsePrefix("192.0.2.0/24"), netip.MustParsePrefix("2001:db8:1::/48")
	cases := []struct {
		name      string
		hop       netip.Addr
		announced []netip.Prefix // nil: the standalone RIB form
		nextHop   bool           // NEXT_HOP written
		mpReach   bool           // MP_REACH_NLRI written
		decoded   netip.Addr
	}{
		{"v4 hop, v4 nlri", v4, []netip.Prefix{p4}, true, false, v4},
		{"v6 hop, v4 nlri", v6, []netip.Prefix{p4}, false, true, v6},
		{"v6 hop, v6 nlri", v6, []netip.Prefix{p6}, false, true, v6},
		{"v4 hop, v6 nlri", v4, []netip.Prefix{p6}, false, true, netip.IPv6Unspecified()},
		{"no hop, v4 nlri", netip.Addr{}, []netip.Prefix{p4}, false, false, netip.Addr{}},
		{"v4 hop, standalone", v4, nil, true, false, v4},
		{"v6 hop, standalone", v6, nil, false, true, v6},
		{"no hop, standalone", netip.Addr{}, nil, false, false, netip.Addr{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			u := &Update{Announced: c.announced, Origin: OriginIGP, Path: NewPath(3356), NextHop: c.hop}
			var attrs []byte
			var got *Update
			if c.announced == nil {
				attrs = MarshalPathAttributes(u)
				var err error
				if got, err = UnmarshalPathAttributes(attrs); err != nil {
					t.Fatal(err)
				}
			} else {
				wire, err := MarshalUpdate(u)
				if err != nil {
					t.Fatal(err)
				}
				body := wire[HeaderLen+2:] // no withdrawn routes
				attrs = body[2 : 2+int(binary.BigEndian.Uint16(body))]
				if got, err = UnmarshalUpdate(wire); err != nil {
					t.Fatal(err)
				}
			}
			codes := map[byte]bool{}
			for len(attrs) > 0 {
				codes[attrs[1]] = true
				attrs = attrs[3+int(attrs[2]):] // no value here needs the extended length
			}
			if codes[attrNextHop] != c.nextHop || codes[attrMPReachNLRI] != c.mpReach {
				t.Fatalf("NEXT_HOP written %v, MP_REACH_NLRI written %v; want %v, %v",
					codes[attrNextHop], codes[attrMPReachNLRI], c.nextHop, c.mpReach)
			}
			if got.NextHop != c.decoded {
				t.Fatalf("decoded next hop %v, want %v", got.NextHop, c.decoded)
			}
		})
	}
}
