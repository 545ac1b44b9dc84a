package bgp

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"reflect"
	"testing"
)

// FuzzUnmarshalUpdate asserts the UPDATE decoder never panics, that a
// decode carved from a Slab earlier inputs have carved from equals the
// plain decode (nil lists included), and so does a decode into an update
// that last held another seed's decode, whose lists it fills again; that
// anything it accepts encodes without panicking, and that the encoding
// is a fixed point: it decodes, and encodes again to the same bytes (run
// with `go test -fuzz=FuzzUnmarshalUpdate ./internal/bgp` for a real
// fuzzing session; the seed corpus runs under plain `go test`).
func FuzzUnmarshalUpdate(f *testing.F) {
	seed := &Update{
		Announced:        []netip.Prefix{netip.MustParsePrefix("192.88.99.1/32")},
		Withdrawn:        []netip.Prefix{netip.MustParsePrefix("198.51.0.0/16")},
		Origin:           OriginIGP,
		Path:             NewPath(3356, 174, 65001),
		NextHop:          netip.MustParseAddr("10.0.0.1"),
		Communities:      []Community{CommunityBlackhole, CommunityNoExport},
		LargeCommunities: []LargeCommunity{{212100, 666, 0}},
	}
	wire, err := MarshalUpdate(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wire)
	f.Add(wire[:20])
	mut := append([]byte(nil), wire...)
	mut[25] ^= 0xFF
	f.Add(mut)
	f.Add([]byte{})
	f.Add(crossFamilyNextHop(f))
	// An empty COMMUNITIES attribute, and an AS_PATH of one empty segment.
	f.Add(mustMarshal(f, []byte{0x40, 1, 1, 0, 0xC0, 8, 0}, 24, 192, 0, 2))
	f.Add(mustMarshal(f, []byte{0x40, 1, 1, 0, 0x40, 2, 2, 2, 0}, 24, 192, 0, 2))

	var slab Slab // shared across inputs, so carving starts mid-chunk
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := UnmarshalUpdate(data)
		var carved, recycled Update
		if serr := slab.UnmarshalUpdate(&carved, data); (serr == nil) != (err == nil) {
			t.Fatalf("slab decode err %v, plain decode err %v", serr, err)
		}
		if serr := slab.UnmarshalUpdate(&recycled, wire); serr != nil {
			t.Fatal(serr)
		}
		if rerr := slab.UnmarshalUpdate(&recycled, data); (rerr == nil) != (err == nil) {
			t.Fatalf("recycled decode err %v, plain decode err %v", rerr, err)
		}
		if err != nil {
			return // rejection is fine; panics are not
		}
		if !reflect.DeepEqual(&carved, u) {
			t.Fatalf("slab decode %#v differs from plain decode %#v", carved, *u)
		}
		if !reflect.DeepEqual(&recycled, u) {
			t.Fatalf("decode into a recycled update %#v differs from plain decode %#v", recycled, *u)
		}
		// Accepted updates must re-encode (unless they exceed the size
		// limit after normalisation, which Marshal reports as an error,
		// not a panic).
		enc, err := MarshalUpdate(u)
		if err != nil {
			return
		}
		again, err := UnmarshalUpdate(enc)
		if err != nil {
			t.Fatalf("encoding of an accepted update does not decode: %v", err)
		}
		if enc2, err := MarshalUpdate(again); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixed point (err %v)", err)
		}
	})
}

// crossFamilyNextHop is an UPDATE the decoder accepts with IPv4 NLRI and
// an IPv6 next hop: an IPv6 announcement via 2001:db8::1 with the
// classic NLRI bytes 24 192 0 2 appended and the header length patched.
// An encoder that wrote every valid next hop into NEXT_HOP panicked on it
// ("As4 called on IPv6 address").
func crossFamilyNextHop(tb testing.TB) []byte {
	wire, err := MarshalUpdate(&Update{
		Announced: []netip.Prefix{netip.MustParsePrefix("2001:db8:1::/48")},
		Origin:    OriginIGP,
		Path:      NewPath(3356, 65001),
		NextHop:   netip.MustParseAddr("2001:db8::1"),
	})
	if err != nil {
		tb.Fatal(err)
	}
	wire = append(wire, 24, 192, 0, 2)
	binary.BigEndian.PutUint16(wire[16:18], uint16(len(wire)))
	return wire
}

// mustMarshal frames an UPDATE of no withdrawals, the path attributes
// attrs and the NLRI bytes nlri.
func mustMarshal(tb testing.TB, attrs []byte, nlri ...byte) []byte {
	body := binary.BigEndian.AppendUint16([]byte{0, 0}, uint16(len(attrs)))
	msg, err := AppendMessage(nil, TypeUpdate, append(append(body, attrs...), nlri...))
	if err != nil {
		tb.Fatal(err)
	}
	return msg
}

// FuzzUnmarshalPathAttributes covers the standalone attribute decoder
// used by MRT RIB entries: it never panics, and what it accepts encodes
// to a fixed point of decode → encode.
func FuzzUnmarshalPathAttributes(f *testing.F) {
	u := &Update{
		Origin:      OriginIGP,
		Path:        NewPath(3356, 65001),
		NextHop:     netip.MustParseAddr("10.0.0.1"),
		Communities: []Community{CommunityBlackhole},
	}
	f.Add(MarshalPathAttributes(u))
	u.NextHop = netip.MustParseAddr("2001:db8::1")
	f.Add(MarshalPathAttributes(u))
	f.Add([]byte{0x40, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalPathAttributes(data)
		if err != nil {
			return
		}
		enc := MarshalPathAttributes(got)
		if len(data) > 0xFFFF {
			return // merged attributes may outgrow a 16-bit length
		}
		again, err := UnmarshalPathAttributes(enc)
		if err != nil {
			t.Fatalf("encoding of accepted attributes does not decode: %v", err)
		}
		if !bytes.Equal(enc, MarshalPathAttributes(again)) {
			t.Fatal("attribute encoding is not a fixed point")
		}
	})
}

// FuzzParseCommunity covers the text parsers: what ParseCommunity or
// ParseLargeCommunity accepts prints in a canonical notation that parses
// back to the same value.
func FuzzParseCommunity(f *testing.F) {
	f.Add("65535:666")
	f.Add("0:0")
	f.Add("a:b")
	f.Add("1:2:3")
	f.Fuzz(func(t *testing.T, s string) {
		if c, err := ParseCommunity(s); err == nil {
			// Canonical notation must round-trip.
			back, err := ParseCommunity(c.String())
			if err != nil || back != c {
				t.Fatalf("round trip failed for %q -> %v", s, c)
			}
		}
		if lc, err := ParseLargeCommunity(s); err == nil {
			back, err := ParseLargeCommunity(lc.String())
			if err != nil || back != lc {
				t.Fatalf("large round trip failed for %q", s)
			}
		}
	})
}
