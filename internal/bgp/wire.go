package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"slices"
)

// RFC 4271 message framing.
const (
	// HeaderLen is the fixed BGP message header length (marker + length + type).
	HeaderLen = 19
	// MaxMessageLen is the maximum BGP message size without the extended
	// message capability.
	MaxMessageLen = 4096
	// TypeUpdate is the UPDATE message type code.
	TypeUpdate = 2
)

// Path attribute type codes used in this repository.
const (
	attrOrigin           = 1
	attrASPath           = 2
	attrNextHop          = 3
	attrCommunities      = 8
	attrMPReachNLRI      = 14
	attrMPUnreachNLRI    = 15
	attrExtCommunities   = 16
	attrLargeCommunities = 32
)

// Path attribute flag bits.
const (
	flagOptional   = 0x80
	flagTransitive = 0x40
	flagExtLen     = 0x10
)

// AFI/SAFI values for MP_REACH/MP_UNREACH.
const (
	afiIPv4     = 1
	afiIPv6     = 2
	safiUnicast = 1
)

// Wire format errors.
var (
	ErrShortMessage  = errors.New("bgp: message truncated")
	ErrBadMarker     = errors.New("bgp: bad message marker")
	ErrBadLength     = errors.New("bgp: bad message length")
	ErrNotUpdate     = errors.New("bgp: not an UPDATE message")
	ErrBadAttributes = errors.New("bgp: malformed path attributes")
	ErrBadNLRI       = errors.New("bgp: malformed NLRI")
)

// MarshalUpdate encodes the UPDATE as a complete BGP message (header
// included) using 4-octet AS numbers in AS_PATH, the encoding used inside
// MRT BGP4MP_MESSAGE_AS4 records. IPv6 reachability is carried in
// MP_REACH_NLRI / MP_UNREACH_NLRI attributes; IPv4 uses the classic
// withdrawn-routes and NLRI fields.
func MarshalUpdate(u *Update) ([]byte, error) {
	var withdrawn4, withdrawn6, nlri4, nlri6 []netip.Prefix
	for _, p := range u.Withdrawn {
		if p.Addr().Is4() {
			withdrawn4 = append(withdrawn4, p)
		} else {
			withdrawn6 = append(withdrawn6, p)
		}
	}
	for _, p := range u.Announced {
		if p.Addr().Is4() {
			nlri4 = append(nlri4, p)
		} else {
			nlri6 = append(nlri6, p)
		}
	}

	body := make([]byte, 0, 256)

	// Withdrawn routes (IPv4).
	wr := appendPrefixes(nil, withdrawn4)
	body = binary.BigEndian.AppendUint16(body, uint16(len(wr)))
	body = append(body, wr...)

	// Path attributes.
	var attrs []byte
	hasReach := len(nlri4) > 0 || len(nlri6) > 0
	if hasReach {
		attrs = appendAttr(attrs, flagTransitive, attrOrigin, []byte{byte(u.Origin)})
		attrs = appendAttr(attrs, flagTransitive, attrASPath, marshalASPath(u.Path))
		if len(nlri4) > 0 && u.NextHop.IsValid() {
			nh := u.NextHop.As4()
			attrs = appendAttr(attrs, flagTransitive, attrNextHop, nh[:])
		}
		if len(u.Communities) > 0 {
			val := make([]byte, 0, 4*len(u.Communities))
			for _, c := range u.Communities {
				val = binary.BigEndian.AppendUint32(val, uint32(c))
			}
			attrs = appendAttr(attrs, flagOptional|flagTransitive, attrCommunities, val)
		}
		if len(u.ExtendedCommunities) > 0 {
			val := make([]byte, 0, 8*len(u.ExtendedCommunities))
			for _, ec := range u.ExtendedCommunities {
				val = append(val, ec[:]...)
			}
			attrs = appendAttr(attrs, flagOptional|flagTransitive, attrExtCommunities, val)
		}
		if len(u.LargeCommunities) > 0 {
			val := make([]byte, 0, 12*len(u.LargeCommunities))
			for _, lc := range u.LargeCommunities {
				val = binary.BigEndian.AppendUint32(val, lc.Global)
				val = binary.BigEndian.AppendUint32(val, lc.Local1)
				val = binary.BigEndian.AppendUint32(val, lc.Local2)
			}
			attrs = appendAttr(attrs, flagOptional|flagTransitive, attrLargeCommunities, val)
		}
	}
	if len(nlri6) > 0 {
		val := make([]byte, 0, 64)
		val = binary.BigEndian.AppendUint16(val, afiIPv6)
		val = append(val, safiUnicast)
		if u.NextHop.IsValid() && u.NextHop.Is6() {
			nh := u.NextHop.As16()
			val = append(val, 16)
			val = append(val, nh[:]...)
		} else {
			val = append(val, 16)
			val = append(val, make([]byte, 16)...)
		}
		val = append(val, 0) // reserved SNPA count
		val = appendPrefixes(val, nlri6)
		attrs = appendAttr(attrs, flagOptional, attrMPReachNLRI, val)
	}
	if len(withdrawn6) > 0 {
		val := make([]byte, 0, 32)
		val = binary.BigEndian.AppendUint16(val, afiIPv6)
		val = append(val, safiUnicast)
		val = appendPrefixes(val, withdrawn6)
		attrs = appendAttr(attrs, flagOptional, attrMPUnreachNLRI, val)
	}
	body = binary.BigEndian.AppendUint16(body, uint16(len(attrs)))
	body = append(body, attrs...)

	// NLRI (IPv4).
	body = appendPrefixes(body, nlri4)

	total := HeaderLen + len(body)
	if total > MaxMessageLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadLength, total)
	}
	msg := make([]byte, 0, total)
	for i := 0; i < 16; i++ {
		msg = append(msg, 0xFF)
	}
	msg = binary.BigEndian.AppendUint16(msg, uint16(total))
	msg = append(msg, TypeUpdate)
	msg = append(msg, body...)
	return msg, nil
}

// UnmarshalUpdate decodes a complete BGP UPDATE message (header included)
// produced by MarshalUpdate or any RFC 4271-conformant sender using
// 4-octet AS_PATH encoding. Collection metadata (Time, PeerIP, PeerAS)
// is not part of the wire format and is left zero.
func UnmarshalUpdate(msg []byte) (*Update, error) {
	u := &Update{}
	if err := UnmarshalUpdateInto(u, msg); err != nil {
		return nil, err
	}
	return u, nil
}

// UnmarshalUpdateInto is UnmarshalUpdate decoding into caller-owned
// storage, so an archive reader can carry the update inside a larger
// per-record allocation. *u is overwritten; every field is copied out of
// msg, so msg may be reused once the call returns. On error *u holds a
// partial decode and must be discarded.
func UnmarshalUpdateInto(u *Update, msg []byte) error {
	if len(msg) < HeaderLen {
		return ErrShortMessage
	}
	for i := 0; i < 16; i++ {
		if msg[i] != 0xFF {
			return ErrBadMarker
		}
	}
	total := int(binary.BigEndian.Uint16(msg[16:18]))
	if total != len(msg) || total < HeaderLen {
		return fmt.Errorf("%w: header says %d, have %d", ErrBadLength, total, len(msg))
	}
	if msg[18] != TypeUpdate {
		return ErrNotUpdate
	}
	body := msg[HeaderLen:]

	*u = Update{}
	// Withdrawn routes.
	if len(body) < 2 {
		return ErrShortMessage
	}
	wlen := int(binary.BigEndian.Uint16(body[:2]))
	body = body[2:]
	if len(body) < wlen {
		return ErrShortMessage
	}
	var err error
	if u.Withdrawn, err = parsePrefixes(nil, body[:wlen], false); err != nil {
		return err
	}
	body = body[wlen:]

	// Path attributes.
	if len(body) < 2 {
		return ErrShortMessage
	}
	alen := int(binary.BigEndian.Uint16(body[:2]))
	body = body[2:]
	if len(body) < alen {
		return ErrShortMessage
	}
	attrs := body[:alen]
	body = body[alen:]
	if err := parseAttributes(u, attrs); err != nil {
		return err
	}

	// NLRI.
	u.Announced, err = parsePrefixes(u.Announced, body, false)
	return err
}

// MarshalPathAttributes encodes only the path-attribute section of the
// update (ORIGIN, AS_PATH, NEXT_HOP, communities and, for an IPv6 next
// hop, an MP_REACH_NLRI attribute carrying no NLRI). MRT TABLE_DUMP_V2
// RIB entries store attributes in exactly this standalone form.
func MarshalPathAttributes(u *Update) []byte {
	var attrs []byte
	attrs = appendAttr(attrs, flagTransitive, attrOrigin, []byte{byte(u.Origin)})
	attrs = appendAttr(attrs, flagTransitive, attrASPath, marshalASPath(u.Path))
	if u.NextHop.IsValid() && u.NextHop.Is4() {
		nh := u.NextHop.As4()
		attrs = appendAttr(attrs, flagTransitive, attrNextHop, nh[:])
	}
	if len(u.Communities) > 0 {
		val := make([]byte, 0, 4*len(u.Communities))
		for _, c := range u.Communities {
			val = binary.BigEndian.AppendUint32(val, uint32(c))
		}
		attrs = appendAttr(attrs, flagOptional|flagTransitive, attrCommunities, val)
	}
	if len(u.ExtendedCommunities) > 0 {
		val := make([]byte, 0, 8*len(u.ExtendedCommunities))
		for _, ec := range u.ExtendedCommunities {
			val = append(val, ec[:]...)
		}
		attrs = appendAttr(attrs, flagOptional|flagTransitive, attrExtCommunities, val)
	}
	if len(u.LargeCommunities) > 0 {
		val := make([]byte, 0, 12*len(u.LargeCommunities))
		for _, lc := range u.LargeCommunities {
			val = binary.BigEndian.AppendUint32(val, lc.Global)
			val = binary.BigEndian.AppendUint32(val, lc.Local1)
			val = binary.BigEndian.AppendUint32(val, lc.Local2)
		}
		attrs = appendAttr(attrs, flagOptional|flagTransitive, attrLargeCommunities, val)
	}
	if u.NextHop.IsValid() && u.NextHop.Is6() {
		val := make([]byte, 0, 24)
		val = binary.BigEndian.AppendUint16(val, afiIPv6)
		val = append(val, safiUnicast)
		nh := u.NextHop.As16()
		val = append(val, 16)
		val = append(val, nh[:]...)
		val = append(val, 0) // reserved SNPA count
		attrs = appendAttr(attrs, flagOptional, attrMPReachNLRI, val)
	}
	return attrs
}

// UnmarshalPathAttributes decodes a standalone path-attribute section as
// stored in MRT TABLE_DUMP_V2 RIB entries, returning an Update holding
// the decoded attributes (its prefix lists empty unless the attributes
// carried MP NLRI).
func UnmarshalPathAttributes(attrs []byte) (*Update, error) {
	u := &Update{}
	if err := parseAttributes(u, attrs); err != nil {
		return nil, err
	}
	return u, nil
}

func appendAttr(dst []byte, flags byte, code byte, val []byte) []byte {
	if len(val) > 255 {
		flags |= flagExtLen
	}
	dst = append(dst, flags, code)
	if flags&flagExtLen != 0 {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(val)))
	} else {
		dst = append(dst, byte(len(val)))
	}
	return append(dst, val...)
}

func marshalASPath(p Path) []byte {
	var out []byte
	for _, s := range p.Segments {
		if len(s.ASNs) == 0 {
			continue
		}
		out = append(out, byte(s.Type), byte(len(s.ASNs)))
		for _, a := range s.ASNs {
			out = binary.BigEndian.AppendUint32(out, uint32(a))
		}
	}
	return out
}

// parseASPath validates and sizes the attribute in a first pass, then
// decodes into one segment slice and one ASN array shared by all
// segments (each segment's slice is capacity-limited to its own ASNs).
func parseASPath(b []byte) (Path, error) {
	nseg, nasn := 0, 0
	for rest := b; len(rest) > 0; nseg++ {
		if len(rest) < 2 {
			return Path{}, ErrBadAttributes
		}
		st, n := SegmentType(rest[0]), int(rest[1])
		if st != SegmentSet && st != SegmentSequence {
			return Path{}, fmt.Errorf("%w: segment type %d", ErrBadAttributes, st)
		}
		if len(rest) < 2+4*n {
			return Path{}, ErrBadAttributes
		}
		nasn += n
		rest = rest[2+4*n:]
	}
	if nseg == 0 {
		return Path{}, nil
	}
	p := Path{Segments: make([]Segment, 0, nseg)}
	asns := make([]ASN, nasn)
	for len(b) > 0 {
		st, n := SegmentType(b[0]), int(b[1])
		b = b[2:]
		seg := asns[:n:n]
		asns = asns[n:]
		for i := range seg {
			seg[i] = ASN(binary.BigEndian.Uint32(b[4*i:]))
		}
		b = b[4*n:]
		p.Segments = append(p.Segments, Segment{Type: st, ASNs: seg})
	}
	return p, nil
}

func parseAttributes(u *Update, attrs []byte) error {
	for len(attrs) > 0 {
		if len(attrs) < 3 {
			return ErrBadAttributes
		}
		flags, code := attrs[0], attrs[1]
		var vlen int
		if flags&flagExtLen != 0 {
			if len(attrs) < 4 {
				return ErrBadAttributes
			}
			vlen = int(binary.BigEndian.Uint16(attrs[2:4]))
			attrs = attrs[4:]
		} else {
			vlen = int(attrs[2])
			attrs = attrs[3:]
		}
		if len(attrs) < vlen {
			return ErrBadAttributes
		}
		val := attrs[:vlen]
		attrs = attrs[vlen:]

		switch code {
		case attrOrigin:
			if vlen != 1 {
				return fmt.Errorf("%w: ORIGIN length %d", ErrBadAttributes, vlen)
			}
			u.Origin = Origin(val[0])
		case attrASPath:
			p, err := parseASPath(val)
			if err != nil {
				return err
			}
			u.Path = p
		case attrNextHop:
			if vlen != 4 {
				return fmt.Errorf("%w: NEXT_HOP length %d", ErrBadAttributes, vlen)
			}
			u.NextHop = netip.AddrFrom4([4]byte(val))
		case attrCommunities:
			if vlen%4 != 0 {
				return fmt.Errorf("%w: COMMUNITIES length %d", ErrBadAttributes, vlen)
			}
			u.Communities = slices.Grow(u.Communities, vlen/4)
			for i := 0; i < vlen; i += 4 {
				u.Communities = append(u.Communities, Community(binary.BigEndian.Uint32(val[i:])))
			}
		case attrExtCommunities:
			if vlen%8 != 0 {
				return fmt.Errorf("%w: EXT COMMUNITIES length %d", ErrBadAttributes, vlen)
			}
			for i := 0; i < vlen; i += 8 {
				u.ExtendedCommunities = append(u.ExtendedCommunities, ExtendedCommunity(val[i:i+8]))
			}
		case attrLargeCommunities:
			if vlen%12 != 0 {
				return fmt.Errorf("%w: LARGE COMMUNITIES length %d", ErrBadAttributes, vlen)
			}
			for i := 0; i < vlen; i += 12 {
				u.LargeCommunities = append(u.LargeCommunities, LargeCommunity{
					Global: binary.BigEndian.Uint32(val[i:]),
					Local1: binary.BigEndian.Uint32(val[i+4:]),
					Local2: binary.BigEndian.Uint32(val[i+8:]),
				})
			}
		case attrMPReachNLRI:
			if err := parseMPReach(u, val); err != nil {
				return err
			}
		case attrMPUnreachNLRI:
			if err := parseMPUnreach(u, val); err != nil {
				return err
			}
		default:
			// Unknown attributes are skipped (transparently ignored).
		}
	}
	return nil
}

func parseMPReach(u *Update, val []byte) (err error) {
	if len(val) < 5 {
		return ErrBadAttributes
	}
	afi := binary.BigEndian.Uint16(val[:2])
	safi := val[2]
	nhLen := int(val[3])
	if len(val) < 4+nhLen+1 {
		return ErrBadAttributes
	}
	nh := val[4 : 4+nhLen]
	rest := val[4+nhLen:]
	// Skip reserved SNPA octet.
	rest = rest[1:]
	if safi != safiUnicast {
		return nil
	}
	v6 := afi == afiIPv6
	if v6 && nhLen >= 16 {
		u.NextHop = netip.AddrFrom16([16]byte(nh[:16]))
	}
	u.Announced, err = parsePrefixes(u.Announced, rest, v6)
	return err
}

func parseMPUnreach(u *Update, val []byte) (err error) {
	if len(val) < 3 {
		return ErrBadAttributes
	}
	afi := binary.BigEndian.Uint16(val[:2])
	safi := val[2]
	if safi != safiUnicast {
		return nil
	}
	u.Withdrawn, err = parsePrefixes(u.Withdrawn, val[3:], afi == afiIPv6)
	return err
}

// appendPrefixes encodes prefixes in the RFC 4271 NLRI format: one length
// octet followed by ceil(len/8) address octets.
func appendPrefixes(dst []byte, ps []netip.Prefix) []byte {
	for _, p := range ps {
		bits := p.Bits()
		dst = append(dst, byte(bits))
		nb := (bits + 7) / 8
		if p.Addr().Is4() {
			a := p.Addr().As4()
			dst = append(dst, a[:nb]...)
		} else {
			a := p.Addr().As16()
			dst = append(dst, a[:nb]...)
		}
	}
	return dst
}

// parsePrefixes decodes RFC 4271 NLRI-encoded prefixes and appends them
// to dst, which grows at most once: the field is validated and counted
// before anything is allocated. v6 selects the address family for fields
// (MP attributes) where it is not implicit. An empty field returns dst
// unchanged, so a list nothing was appended to stays nil.
func parsePrefixes(dst []netip.Prefix, b []byte, v6 bool) ([]netip.Prefix, error) {
	maxBits := 32
	if v6 {
		maxBits = 128
	}
	n := 0
	for rest := b; len(rest) > 0; n++ {
		bits := int(rest[0])
		if bits > maxBits {
			return nil, fmt.Errorf("%w: prefix length %d", ErrBadNLRI, bits)
		}
		nb := 1 + (bits+7)/8
		if len(rest) < nb {
			return nil, ErrBadNLRI
		}
		rest = rest[nb:]
	}
	dst = slices.Grow(dst, n)
	for len(b) > 0 {
		bits := int(b[0])
		nb := (bits + 7) / 8
		var addr netip.Addr
		if v6 {
			var a [16]byte
			copy(a[:], b[1:1+nb])
			addr = netip.AddrFrom16(a)
		} else {
			var a [4]byte
			copy(a[:], b[1:1+nb])
			addr = netip.AddrFrom4(a)
		}
		p, err := addr.Prefix(bits)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadNLRI, err)
		}
		dst = append(dst, p)
		b = b[1+nb:]
	}
	return dst, nil
}
