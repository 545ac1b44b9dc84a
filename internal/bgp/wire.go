package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"unsafe"
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

// AppendMessage appends one framed BGP message to dst: the header — 16
// all-ones marker octets, the total length, the type — then body. It is
// the one writer of the RFC 4271 header, and refuses a message longer
// than MaxMessageLen.
func AppendMessage(dst []byte, typ byte, body []byte) ([]byte, error) {
	total := HeaderLen + len(body)
	if total > MaxMessageLen {
		return dst, fmt.Errorf("%w: %d bytes", ErrBadLength, total)
	}
	for range 16 {
		dst = append(dst, 0xFF)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(total))
	dst = append(dst, typ)
	return append(dst, body...), nil
}

// ParseHeader is AppendMessage's reader: it checks the header at the
// start of msg and returns the message type and the total length the
// header declares (at least HeaderLen). The upper bound is the caller's:
// a session enforces MaxMessageLen, an archived message must fill its
// record.
func ParseHeader(msg []byte) (typ byte, total int, err error) {
	if len(msg) < HeaderLen {
		return 0, 0, ErrShortMessage
	}
	for _, b := range msg[:16] {
		if b != 0xFF {
			return 0, 0, ErrBadMarker
		}
	}
	total = int(binary.BigEndian.Uint16(msg[16:18]))
	if total < HeaderLen {
		return 0, 0, fmt.Errorf("%w: header says %d", ErrBadLength, total)
	}
	return msg[18], total, nil
}

// MarshalUpdate encodes the UPDATE as a complete BGP message (header
// included) using 4-octet AS numbers in AS_PATH, the encoding used inside
// MRT BGP4MP_MESSAGE_AS4 records. IPv6 reachability is carried in
// MP_REACH_NLRI / MP_UNREACH_NLRI attributes; IPv4 uses the classic
// withdrawn-routes and NLRI fields. The path attributes follow
// appendAttributes' next-hop rule, so any update UnmarshalUpdate returns
// encodes, and Marshal(Unmarshal(Marshal(u))) == Marshal(u).
func MarshalUpdate(u *Update) ([]byte, error) {
	n4, _ := nlriSize(u.Announced, false)
	n6, _ := nlriSize(u.Announced, true)
	w6, w6size := nlriSize(u.Withdrawn, true)

	// Withdrawn routes (IPv4), then path attributes, each behind the
	// two-octet length patched in once it is known.
	body := make([]byte, 2, 256)
	body = appendPrefixes(body, u.Withdrawn, false)
	binary.BigEndian.PutUint16(body, uint16(len(body)-2))
	at := len(body)
	body = append(body, 0, 0)
	if n4 > 0 || n6 > 0 {
		body = appendAttributes(body, u, n4 > 0, true)
	}
	if w6 > 0 {
		body = appendAttrHeader(body, flagOptional, attrMPUnreachNLRI, 3+w6size)
		body = binary.BigEndian.AppendUint16(body, afiIPv6)
		body = append(body, safiUnicast)
		body = appendPrefixes(body, u.Withdrawn, true)
	}
	binary.BigEndian.PutUint16(body[at:], uint16(len(body)-at-2))

	// NLRI (IPv4).
	body = appendPrefixes(body, u.Announced, false)
	return AppendMessage(make([]byte, 0, HeaderLen+len(body)), TypeUpdate, body)
}

// UnmarshalUpdate decodes a complete BGP UPDATE message (header included)
// produced by MarshalUpdate or any RFC 4271-conformant sender using
// 4-octet AS_PATH encoding. Collection metadata (Time, PeerIP, PeerAS)
// is not part of the wire format and is left zero.
func UnmarshalUpdate(msg []byte) (*Update, error) {
	u := &Update{}
	if err := (*Slab)(nil).UnmarshalUpdate(u, msg); err != nil {
		return nil, err
	}
	return u, nil
}

// UnmarshalUpdateBody decodes an UPDATE whose header the caller has
// already read and checked — a session that framed the message off its
// connection — into u, from the body after the header, reusing u's
// lists as Slab.UnmarshalUpdate does.
func UnmarshalUpdateBody(u *Update, body []byte) error {
	return (*Slab)(nil).unmarshalBody(u, body)
}

// Slab is the storage the UPDATE decoder carves its slices from: prefix
// lists, standard communities and the AS path's segments and ASNs each
// come out of a chunk of slabChunkBytes shared with other decodes. Each
// carved slice is capacity-limited to its length and handed out once, so
// a decoded update may be retained and appended to like one decoded
// alone; it keeps its chunks alive. The zero value is ready to use. A nil
// *Slab allocates each slice on its own: the package-level decoders call
// the one decoder on nil. A Slab is not safe for concurrent use.
type Slab struct {
	prefixes    []netip.Prefix
	communities []Community
	segments    []Segment
	asns        []ASN
}

const slabChunkBytes = 4 << 10

// carve returns dst grown to hold n more elements: an empty dst takes
// spare when it has room, else is carved from the chunk field picks when
// s is not nil; else by slices.Grow. Either way the result is nil
// exactly when dst is nil and n is 0.
func carve[T any](s *Slab, field func(*Slab) *[]T, spare, dst []T, n int) []T {
	if len(dst) == 0 && n > 0 && cap(spare) >= n {
		return spare[:0]
	}
	if s == nil || len(dst) > 0 || n == 0 {
		return slices.Grow(dst, n)
	}
	chunk := field(s)
	if len(*chunk) < n {
		*chunk = make([]T, max(n, slabChunkBytes/int(unsafe.Sizeof(*new(T)))))
	}
	out := (*chunk)[:0:n]
	*chunk = (*chunk)[n:]
	return out
}

// UnmarshalUpdate is the package-level UnmarshalUpdate decoding into u,
// carving u's slices from s. *u is overwritten, its prefix, community and
// AS-path lists decoded into where they have room, so they must be u's
// alone. Every field is copied out of msg, so msg may be reused once the
// call returns. On error *u holds a partial decode and must be discarded.
func (s *Slab) UnmarshalUpdate(u *Update, msg []byte) error {
	typ, total, err := ParseHeader(msg)
	if err != nil {
		return err
	}
	if total != len(msg) {
		return fmt.Errorf("%w: header says %d, have %d", ErrBadLength, total, len(msg))
	}
	if typ != TypeUpdate {
		return ErrNotUpdate
	}
	return s.unmarshalBody(u, msg[HeaderLen:])
}

func (s *Slab) unmarshalBody(u *Update, body []byte) error {
	spare := *u // the lists to decode into again
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
	if u.Withdrawn, err = s.parsePrefixes(spare.Withdrawn, nil, body[:wlen], false); err != nil {
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
	if err := s.parseAttributes(u, &spare, attrs); err != nil {
		return err
	}

	// NLRI.
	u.Announced, err = s.parsePrefixes(spare.Announced, u.Announced, body, false)
	return err
}

// MarshalPathAttributes encodes only the path-attribute section of the
// update (ORIGIN, AS_PATH, NEXT_HOP, communities and, for an IPv6 next
// hop, an MP_REACH_NLRI attribute carrying no NLRI). MRT TABLE_DUMP_V2
// RIB entries store attributes in exactly this standalone form.
func MarshalPathAttributes(u *Update) []byte {
	return appendAttributes(nil, u, true, false)
}

// UnmarshalPathAttributes decodes a standalone path-attribute section as
// stored in MRT TABLE_DUMP_V2 RIB entries, returning an Update holding
// the decoded attributes (its prefix lists empty unless the attributes
// carried MP NLRI).
func UnmarshalPathAttributes(attrs []byte) (*Update, error) {
	u := &Update{}
	if err := (*Slab)(nil).parseAttributes(u, &Update{}, attrs); err != nil {
		return nil, err
	}
	return u, nil
}

// appendAttributes is the one path-attribute writer: ORIGIN, AS_PATH,
// NEXT_HOP, COMMUNITIES, EXTENDED and LARGE COMMUNITIES, MP_REACH_NLRI,
// in that order. The next-hop rule: an IPv4 next hop goes in NEXT_HOP,
// written only beside IPv4 reachability (v4: classic NLRI follow, or the
// standalone RIB form); an IPv6 next hop goes in MP_REACH_NLRI, which is
// also written — with a zero next hop if none is IPv6 — when v6 asks for
// the update's IPv6 announcements to be carried there.
func appendAttributes(dst []byte, u *Update, v4, v6 bool) []byte {
	dst = appendAttrHeader(dst, flagTransitive, attrOrigin, 1)
	dst = append(dst, byte(u.Origin))
	pathLen := 0
	for _, s := range u.Path.Segments {
		if len(s.ASNs) > 0 {
			pathLen += 2 + 4*len(s.ASNs)
		}
	}
	dst = appendAttrHeader(dst, flagTransitive, attrASPath, pathLen)
	for _, s := range u.Path.Segments {
		if len(s.ASNs) == 0 {
			continue
		}
		dst = append(dst, byte(s.Type), byte(len(s.ASNs)))
		for _, a := range s.ASNs {
			dst = binary.BigEndian.AppendUint32(dst, uint32(a))
		}
	}
	if v4 && u.NextHop.Is4() {
		nh := u.NextHop.As4()
		dst = appendAttrHeader(dst, flagTransitive, attrNextHop, 4)
		dst = append(dst, nh[:]...)
	}
	if len(u.Communities) > 0 {
		dst = appendAttrHeader(dst, flagOptional|flagTransitive, attrCommunities, 4*len(u.Communities))
		for _, c := range u.Communities {
			dst = binary.BigEndian.AppendUint32(dst, uint32(c))
		}
	}
	if len(u.ExtendedCommunities) > 0 {
		dst = appendAttrHeader(dst, flagOptional|flagTransitive, attrExtCommunities, 8*len(u.ExtendedCommunities))
		for _, ec := range u.ExtendedCommunities {
			dst = append(dst, ec[:]...)
		}
	}
	if len(u.LargeCommunities) > 0 {
		dst = appendAttrHeader(dst, flagOptional|flagTransitive, attrLargeCommunities, 12*len(u.LargeCommunities))
		for _, lc := range u.LargeCommunities {
			dst = binary.BigEndian.AppendUint32(dst, lc.Global)
			dst = binary.BigEndian.AppendUint32(dst, lc.Local1)
			dst = binary.BigEndian.AppendUint32(dst, lc.Local2)
		}
	}
	n6, size6 := 0, 0
	if v6 {
		n6, size6 = nlriSize(u.Announced, true)
	}
	if n6 > 0 || u.NextHop.Is6() {
		var nh [16]byte
		if u.NextHop.Is6() {
			nh = u.NextHop.As16()
		}
		dst = appendAttrHeader(dst, flagOptional, attrMPReachNLRI, 5+len(nh)+size6)
		dst = binary.BigEndian.AppendUint16(dst, afiIPv6)
		dst = append(dst, safiUnicast, byte(len(nh)))
		dst = append(dst, nh[:]...)
		dst = append(dst, 0) // reserved SNPA count
		if v6 {
			dst = appendPrefixes(dst, u.Announced, true)
		}
	}
	return dst
}

// appendAttrHeader appends a path attribute's flags, type code and the
// length of its n-byte value, in the extended two-octet form past 255.
func appendAttrHeader(dst []byte, flags, code byte, n int) []byte {
	if n > 255 {
		return binary.BigEndian.AppendUint16(append(dst, flags|flagExtLen, code), uint16(n))
	}
	return append(dst, flags, code, byte(n))
}

// parseASPath validates and sizes the attribute in a first pass, then
// decodes into one segment slice and one ASN array shared by all
// segments, spare's if they have room; each segment's slice is
// capacity-limited to its own ASNs, the last one's to the array's end.
func (s *Slab) parseASPath(spare Path, b []byte) (Path, error) {
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
	var spareASNs []ASN // spare's array starts with its first segment
	if len(spare.Segments) > 0 {
		spareASNs = spare.Segments[0].ASNs
	}
	p := Path{Segments: carve(s, func(s *Slab) *[]Segment { return &s.segments }, spare.Segments, nil, nseg)}
	asns := carve(s, func(s *Slab) *[]ASN { return &s.asns }, spareASNs, nil, nasn)[:nasn]
	for len(b) > 0 {
		st, n := SegmentType(b[0]), int(b[1])
		b = b[2:]
		seg := asns[:n:n]
		if len(p.Segments) == nseg-1 {
			seg = asns[:n]
		}
		asns = asns[n:]
		for i := range seg {
			seg[i] = ASN(binary.BigEndian.Uint32(b[4*i:]))
		}
		b = b[4*n:]
		p.Segments = append(p.Segments, Segment{Type: st, ASNs: seg})
	}
	return p, nil
}

func (s *Slab) parseAttributes(u, spare *Update, attrs []byte) error {
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
			p, err := s.parseASPath(spare.Path, val)
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
			u.Communities = carve(s, func(s *Slab) *[]Community { return &s.communities }, spare.Communities, u.Communities, vlen/4)
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
			if err := s.parseMPReach(u, spare, val); err != nil {
				return err
			}
		case attrMPUnreachNLRI:
			if err := s.parseMPUnreach(u, spare, val); err != nil {
				return err
			}
		default:
			// Unknown attributes are skipped (transparently ignored).
		}
	}
	return nil
}

func (s *Slab) parseMPReach(u, spare *Update, val []byte) (err error) {
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
	u.Announced, err = s.parsePrefixes(spare.Announced, u.Announced, rest, v6)
	return err
}

func (s *Slab) parseMPUnreach(u, spare *Update, val []byte) (err error) {
	if len(val) < 3 {
		return ErrBadAttributes
	}
	afi := binary.BigEndian.Uint16(val[:2])
	safi := val[2]
	if safi != safiUnicast {
		return nil
	}
	u.Withdrawn, err = s.parsePrefixes(spare.Withdrawn, u.Withdrawn, val[3:], afi == afiIPv6)
	return err
}

// AppendPrefix appends p in the RFC 4271 NLRI encoding: one length
// octet, then the ceil(length/8) leading octets of the address. It is the
// one writer of the form — UPDATE fields, MP attributes and MRT RIB
// records alike.
func AppendPrefix(dst []byte, p netip.Prefix) []byte {
	bits := p.Bits()
	dst = append(dst, byte(bits))
	nb := (bits + 7) / 8
	if p.Addr().Is4() {
		a := p.Addr().As4()
		return append(dst, a[:nb]...)
	}
	a := p.Addr().As16()
	return append(dst, a[:nb]...)
}

// ParsePrefix is AppendPrefix's reader: the prefix at the start of b, in
// the address family v6 selects, and the bytes after it. Every error
// wraps ErrBadNLRI; one for a prefix cut short also wraps
// ErrShortMessage.
func ParsePrefix(b []byte, v6 bool) (netip.Prefix, []byte, error) {
	n, err := prefixSize(b, v6)
	if err != nil {
		return netip.Prefix{}, nil, err
	}
	var addr netip.Addr
	if v6 {
		var a [16]byte
		copy(a[:], b[1:n])
		addr = netip.AddrFrom16(a)
	} else {
		var a [4]byte
		copy(a[:], b[1:n])
		addr = netip.AddrFrom4(a)
	}
	p, _ := addr.Prefix(int(b[0])) // prefixSize bounded the length
	return p, b[n:], nil
}

var errShortPrefix = fmt.Errorf("%w: %w", ErrBadNLRI, ErrShortMessage)

// prefixSize checks the length octet at the start of b against the
// family and the bytes present, and returns the encoded prefix's size.
func prefixSize(b []byte, v6 bool) (int, error) {
	if len(b) == 0 {
		return 0, errShortPrefix
	}
	bits, maxBits := int(b[0]), 32
	if v6 {
		maxBits = 128
	}
	if bits > maxBits {
		return 0, fmt.Errorf("%w: prefix length %d", ErrBadNLRI, bits)
	}
	if n := 1 + (bits+7)/8; len(b) >= n {
		return n, nil
	}
	return 0, errShortPrefix
}

// nlriSize counts the prefixes of ps in one address family (v6, or IPv4)
// and the bytes appendPrefixes writes for them.
func nlriSize(ps []netip.Prefix, v6 bool) (n, size int) {
	for _, p := range ps {
		if p.Addr().Is4() != v6 {
			n++
			size += 1 + (p.Bits()+7)/8
		}
	}
	return n, size
}

// appendPrefixes appends the prefixes of ps in one address family (v6,
// or IPv4), in order.
func appendPrefixes(dst []byte, ps []netip.Prefix, v6 bool) []byte {
	for _, p := range ps {
		if p.Addr().Is4() != v6 {
			dst = AppendPrefix(dst, p)
		}
	}
	return dst
}

// parsePrefixes decodes a field of NLRI-encoded prefixes and appends them
// to dst (an empty one to spare, if it has room), which grows at most
// once: the field is validated and counted before anything is allocated.
// v6 selects the address family for fields (MP attributes) where it is
// not implicit. An empty field returns dst unchanged, so a list nothing
// was appended to stays nil.
func (s *Slab) parsePrefixes(spare, dst []netip.Prefix, b []byte, v6 bool) ([]netip.Prefix, error) {
	n := 0
	for rest := b; len(rest) > 0; n++ {
		size, err := prefixSize(rest, v6)
		if err != nil {
			return nil, err
		}
		rest = rest[size:]
	}
	dst = carve(s, func(s *Slab) *[]netip.Prefix { return &s.prefixes }, spare, dst, n)
	for len(b) > 0 {
		var p netip.Prefix
		p, b, _ = ParsePrefix(b, v6) // the pass above validated every prefix
		dst = append(dst, p)
	}
	return dst, nil
}
