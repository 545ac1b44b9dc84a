// Package mrt implements the Multi-Threaded Routing Toolkit (MRT) export
// format of RFC 6396, the archive format published by RIPE RIS, Route
// Views and PCH and consumed by BGPStream-style pipelines.
//
// Two record families are supported, the two that matter for BGP
// measurement studies:
//
//   - BGP4MP / BGP4MP_MESSAGE_AS4 — archived BGP UPDATE messages,
//     carrying the full RFC 4271 wire message plus peer metadata.
//   - TABLE_DUMP_V2 — periodic RIB snapshots: a PEER_INDEX_TABLE record
//     followed by RIB_IPV4_UNICAST / RIB_IPV6_UNICAST records.
//
// A Writer produces archives byte-compatible with this package's Reader,
// following RFC 6396 framing: a 12-byte common header (timestamp, type,
// subtype, length) followed by the type-specific body.
package mrt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"time"

	"bgpblackholing/internal/bgp"
)

// MRT record types and subtypes (RFC 6396 §4).
const (
	TypeTableDumpV2 = 13
	TypeBGP4MP      = 16

	SubtypePeerIndexTable = 1
	SubtypeRIBIPv4Unicast = 2
	SubtypeRIBIPv6Unicast = 4

	SubtypeBGP4MPMessageAS4 = 4
)

// Errors returned by the decoder.
var (
	ErrTruncated      = errors.New("mrt: truncated record")
	ErrNoPeerIndex    = errors.New("mrt: RIB record before PEER_INDEX_TABLE")
	ErrBadPeerIndex   = errors.New("mrt: peer index out of range")
	ErrRecordTooLarge = errors.New("mrt: record exceeds size limit")
)

// maxRecordLen bounds a single MRT record body, protecting the reader
// against corrupt length fields.
const maxRecordLen = 16 << 20

// headerLen is the size of the MRT common header.
const headerLen = 12

// window is the Reader's read-ahead: records are parsed in place from a
// buffer this large, so the underlying reader sees one Read per window
// instead of two per record.
const window = 64 << 10

// Record is any decoded MRT record.
type Record interface {
	// Timestamp is the MRT common-header time of the record.
	Timestamp() time.Time
}

// BGP4MPMessage is an archived BGP message exchange (subtype
// BGP4MP_MESSAGE_AS4): the raw UPDATE plus the peer that sent it.
type BGP4MPMessage struct {
	Time    time.Time
	PeerAS  bgp.ASN
	LocalAS bgp.ASN
	PeerIP  netip.Addr
	LocalIP netip.Addr
	// Update is the decoded BGP UPDATE carried by the record, stamped
	// with the record time and peer metadata.
	Update *bgp.Update
}

// Timestamp implements Record.
func (m *BGP4MPMessage) Timestamp() time.Time { return m.Time }

// Peer is one entry of a TABLE_DUMP_V2 PEER_INDEX_TABLE.
type Peer struct {
	BGPID netip.Addr
	IP    netip.Addr
	AS    bgp.ASN
}

// PeerIndexTable is the TABLE_DUMP_V2 PEER_INDEX_TABLE record that maps
// the peer indexes used by subsequent RIB records.
type PeerIndexTable struct {
	Time        time.Time
	CollectorID netip.Addr
	ViewName    string
	Peers       []Peer
}

// Timestamp implements Record.
func (p *PeerIndexTable) Timestamp() time.Time { return p.Time }

// RIBEntry is one per-peer route of a RIB record.
type RIBEntry struct {
	PeerIndex      uint16
	OriginatedTime time.Time
	// Attrs holds the decoded path attributes; its prefix lists are empty.
	Attrs *bgp.Update
}

// RIB is a TABLE_DUMP_V2 RIB_IPVx_UNICAST record: one prefix with the
// routes every peer contributed for it.
type RIB struct {
	Time     time.Time
	Sequence uint32
	Prefix   netip.Prefix
	Entries  []RIBEntry
}

// Timestamp implements Record.
func (r *RIB) Timestamp() time.Time { return r.Time }

// header is the 12-byte MRT common header.
func appendHeader(dst []byte, t time.Time, typ, subtype uint16, bodyLen int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(t.Unix()))
	dst = binary.BigEndian.AppendUint16(dst, typ)
	dst = binary.BigEndian.AppendUint16(dst, subtype)
	dst = binary.BigEndian.AppendUint32(dst, uint32(bodyLen))
	return dst
}

// Writer emits MRT records to an underlying io.Writer, one Write per
// record, assembling each in a scratch buffer it reuses.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter returns a Writer archiving to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// begin starts a record in the scratch buffer: the common header with a
// zero length, which emit patches once the body has been appended.
func (w *Writer) begin(t time.Time, typ, subtype uint16) []byte {
	return appendHeader(w.buf[:0], t, typ, subtype, 0)
}

func (w *Writer) emit(rec []byte) error {
	binary.BigEndian.PutUint32(rec[8:12], uint32(len(rec)-headerLen))
	w.buf = rec
	_, err := w.w.Write(rec)
	return err
}

// WriteUpdate archives a BGP UPDATE as a BGP4MP_MESSAGE_AS4 record using
// the update's own timestamp and peer metadata. The local side is the
// collector; pass its address and AS.
func (w *Writer) WriteUpdate(u *bgp.Update, localIP netip.Addr, localAS bgp.ASN) error {
	msg, err := bgp.MarshalUpdate(u)
	if err != nil {
		return err
	}
	body := w.begin(u.Time, TypeBGP4MP, SubtypeBGP4MPMessageAS4)
	body = binary.BigEndian.AppendUint32(body, uint32(u.PeerAS))
	body = binary.BigEndian.AppendUint32(body, uint32(localAS))
	body = binary.BigEndian.AppendUint16(body, 0) // interface index
	if u.PeerIP.Is6() {
		body = binary.BigEndian.AppendUint16(body, 2) // AFI IPv6
		p := u.PeerIP.As16()
		body = append(body, p[:]...)
		l := addr16(localIP)
		body = append(body, l[:]...)
	} else {
		body = binary.BigEndian.AppendUint16(body, 1) // AFI IPv4
		p := u.PeerIP.As4()
		body = append(body, p[:]...)
		l := addr4(localIP)
		body = append(body, l[:]...)
	}
	return w.emit(append(body, msg...))
}

// WritePeerIndexTable archives the peer index for subsequent RIB records.
func (w *Writer) WritePeerIndexTable(p *PeerIndexTable) error {
	body := w.begin(p.Time, TypeTableDumpV2, SubtypePeerIndexTable)
	id := addr4(p.CollectorID)
	body = append(body, id[:]...)
	body = binary.BigEndian.AppendUint16(body, uint16(len(p.ViewName)))
	body = append(body, p.ViewName...)
	body = binary.BigEndian.AppendUint16(body, uint16(len(p.Peers)))
	for _, peer := range p.Peers {
		// Peer type: bit 0 set = IPv6 address, bit 1 set = 4-byte AS.
		var pt byte = 0x02
		if peer.IP.Is6() {
			pt |= 0x01
		}
		body = append(body, pt)
		bid := addr4(peer.BGPID)
		body = append(body, bid[:]...)
		if peer.IP.Is6() {
			a := peer.IP.As16()
			body = append(body, a[:]...)
		} else {
			a := peer.IP.As4()
			body = append(body, a[:]...)
		}
		body = binary.BigEndian.AppendUint32(body, uint32(peer.AS))
	}
	return w.emit(body)
}

// WriteRIB archives one RIB record. The subtype follows the prefix
// address family.
func (w *Writer) WriteRIB(r *RIB) error {
	subtype := uint16(SubtypeRIBIPv4Unicast)
	if r.Prefix.Addr().Is6() {
		subtype = SubtypeRIBIPv6Unicast
	}
	body := w.begin(r.Time, TypeTableDumpV2, subtype)
	body = binary.BigEndian.AppendUint32(body, r.Sequence)
	body = bgp.AppendPrefix(body, r.Prefix)
	body = binary.BigEndian.AppendUint16(body, uint16(len(r.Entries)))
	for _, e := range r.Entries {
		body = binary.BigEndian.AppendUint16(body, e.PeerIndex)
		body = binary.BigEndian.AppendUint32(body, uint32(e.OriginatedTime.Unix()))
		attrs := bgp.MarshalPathAttributes(e.Attrs)
		body = binary.BigEndian.AppendUint16(body, uint16(len(attrs)))
		body = append(body, attrs...)
	}
	return w.emit(body)
}

// Reader decodes MRT records from an underlying io.Reader. RIB records
// are resolved against the most recent PEER_INDEX_TABLE, so that the
// caller receives fully populated peer metadata.
//
// The Reader reads ahead by up to one window and parses each record in
// place from that buffer; the decoders copy every field out (a BGP4MP
// update's lists into the Reader's bgp.Slab), so no returned record
// aliases it. A read returns as soon as the next record is complete — it
// never waits to fill the window — so a Reader can tail a pipe or a
// growing file.
type Reader struct {
	br    *bufio.Reader
	peers *PeerIndexTable
	// big holds a record larger than the window, reused.
	big  []byte
	slab bgp.Slab
}

// NewReader returns a Reader decoding from r.
func NewReader(r io.Reader) *Reader { return &Reader{br: bufio.NewReaderSize(r, window)} }

// Next decodes and returns the next record, or io.EOF at end of archive.
// Unknown record types are skipped transparently.
func (r *Reader) Next() (Record, error) { return r.NextInto(nil, nil) }

// NextInto is Next with caller-owned storage for a BGP4MP record, so
// the caller can reuse the message and keep the update in storage it
// manages: such a record is decoded into *m and *u (m.Update == u)
// and m is returned. Any other record leaves them untouched; after an
// error they may hold a partial decode. With nil m and u the Reader
// allocates the pair itself.
func (r *Reader) NextInto(m *BGP4MPMessage, u *bgp.Update) (Record, error) {
	for {
		hdr, err := r.br.Peek(headerLen)
		if err != nil {
			if len(hdr) > 0 && err == io.EOF {
				return nil, ErrTruncated
			}
			return nil, err
		}
		ts := time.Unix(int64(binary.BigEndian.Uint32(hdr[0:4])), 0).UTC()
		typ := binary.BigEndian.Uint16(hdr[4:6])
		subtype := binary.BigEndian.Uint16(hdr[6:8])
		blen := int(binary.BigEndian.Uint32(hdr[8:12]))
		if blen > maxRecordLen {
			return nil, fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, blen)
		}
		// In place from the window, or — larger than it — through big.
		n := headerLen + blen
		var raw []byte
		if n <= window {
			raw, err = r.br.Peek(n)
		} else {
			if cap(r.big) < n {
				r.big = make([]byte, n)
			}
			raw = r.big[:n]
			_, err = io.ReadFull(r.br, raw)
		}
		if err != nil {
			return nil, ErrTruncated
		}
		body := raw[headerLen:]

		var rec Record
		switch {
		case typ == TypeBGP4MP && subtype == SubtypeBGP4MPMessageAS4:
			rec, err = r.parseBGP4MP(ts, body, m, u)
		case typ == TypeTableDumpV2 && subtype == SubtypePeerIndexTable:
			var pit *PeerIndexTable
			if pit, err = parsePeerIndexTable(ts, body); err == nil {
				r.peers = pit
			}
			rec = pit
		case typ == TypeTableDumpV2 && (subtype == SubtypeRIBIPv4Unicast || subtype == SubtypeRIBIPv6Unicast):
			rec, err = parseRIB(ts, subtype, body)
		default:
			// Skip unknown record types, as BGPStream does.
		}
		if n <= window {
			// Cannot fail: the record was just peeked.
			_, _ = r.br.Discard(n)
		}
		if err != nil {
			return nil, err
		}
		if rec != nil {
			return rec, nil
		}
	}
}

// ReadAll decodes every remaining record in the archive.
func (r *Reader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// ResolveRIB converts a RIB record into per-peer bgp.RIBEntry values
// using the reader's current peer index table.
func (r *Reader) ResolveRIB(rib *RIB) ([]bgp.RIBEntry, error) {
	if r.peers == nil {
		return nil, ErrNoPeerIndex
	}
	out := make([]bgp.RIBEntry, 0, len(rib.Entries))
	for _, e := range rib.Entries {
		if int(e.PeerIndex) >= len(r.peers.Peers) {
			return nil, fmt.Errorf("%w: %d of %d", ErrBadPeerIndex, e.PeerIndex, len(r.peers.Peers))
		}
		p := r.peers.Peers[e.PeerIndex]
		out = append(out, bgp.RIBEntry{
			Prefix:              rib.Prefix,
			PeerIP:              p.IP,
			PeerAS:              p.AS,
			OriginatedAt:        e.OriginatedTime,
			Origin:              e.Attrs.Origin,
			Path:                e.Attrs.Path,
			NextHop:             e.Attrs.NextHop,
			Communities:         e.Attrs.Communities,
			LargeCommunities:    e.Attrs.LargeCommunities,
			ExtendedCommunities: e.Attrs.ExtendedCommunities,
		})
	}
	return out, nil
}

// parseBGP4MP decodes into *m and *u, or into one allocation holding
// both when they are nil.
func (r *Reader) parseBGP4MP(ts time.Time, body []byte, m *BGP4MPMessage, u *bgp.Update) (*BGP4MPMessage, error) {
	if len(body) < 12 {
		return nil, ErrTruncated
	}
	if m == nil {
		pair := new(struct {
			m BGP4MPMessage
			u bgp.Update
		})
		m, u = &pair.m, &pair.u
	}
	*m = BGP4MPMessage{Time: ts}
	m.PeerAS = bgp.ASN(binary.BigEndian.Uint32(body[0:4]))
	m.LocalAS = bgp.ASN(binary.BigEndian.Uint32(body[4:8]))
	afi := binary.BigEndian.Uint16(body[10:12])
	body = body[12:]
	switch afi {
	case 1:
		if len(body) < 8 {
			return nil, ErrTruncated
		}
		m.PeerIP = netip.AddrFrom4([4]byte(body[0:4]))
		m.LocalIP = netip.AddrFrom4([4]byte(body[4:8]))
		body = body[8:]
	case 2:
		if len(body) < 32 {
			return nil, ErrTruncated
		}
		m.PeerIP = netip.AddrFrom16([16]byte(body[0:16]))
		m.LocalIP = netip.AddrFrom16([16]byte(body[16:32]))
		body = body[32:]
	default:
		return nil, fmt.Errorf("mrt: BGP4MP AFI %d unsupported", afi)
	}
	if err := r.slab.UnmarshalUpdate(u, body); err != nil {
		return nil, fmt.Errorf("mrt: inner BGP message: %w", err)
	}
	u.Time = ts
	u.PeerIP = m.PeerIP
	u.PeerAS = m.PeerAS
	m.Update = u
	return m, nil
}

func parsePeerIndexTable(ts time.Time, body []byte) (*PeerIndexTable, error) {
	if len(body) < 8 {
		return nil, ErrTruncated
	}
	pit := &PeerIndexTable{Time: ts, CollectorID: netip.AddrFrom4([4]byte(body[0:4]))}
	nameLen := int(binary.BigEndian.Uint16(body[4:6]))
	body = body[6:]
	if len(body) < nameLen+2 {
		return nil, ErrTruncated
	}
	pit.ViewName = string(body[:nameLen])
	body = body[nameLen:]
	n := int(binary.BigEndian.Uint16(body[0:2]))
	body = body[2:]
	pit.Peers = make([]Peer, 0, n)
	for i := 0; i < n; i++ {
		if len(body) < 5 {
			return nil, ErrTruncated
		}
		pt := body[0]
		var peer Peer
		peer.BGPID = netip.AddrFrom4([4]byte(body[1:5]))
		body = body[5:]
		if pt&0x01 != 0 {
			if len(body) < 16 {
				return nil, ErrTruncated
			}
			peer.IP = netip.AddrFrom16([16]byte(body[0:16]))
			body = body[16:]
		} else {
			if len(body) < 4 {
				return nil, ErrTruncated
			}
			peer.IP = netip.AddrFrom4([4]byte(body[0:4]))
			body = body[4:]
		}
		if pt&0x02 != 0 {
			if len(body) < 4 {
				return nil, ErrTruncated
			}
			peer.AS = bgp.ASN(binary.BigEndian.Uint32(body[0:4]))
			body = body[4:]
		} else {
			if len(body) < 2 {
				return nil, ErrTruncated
			}
			peer.AS = bgp.ASN(binary.BigEndian.Uint16(body[0:2]))
			body = body[2:]
		}
		pit.Peers = append(pit.Peers, peer)
	}
	return pit, nil
}

func parseRIB(ts time.Time, subtype uint16, body []byte) (*RIB, error) {
	if len(body) < 5 {
		return nil, ErrTruncated
	}
	rib := &RIB{Time: ts, Sequence: binary.BigEndian.Uint32(body[0:4])}
	body = body[4:]
	prefix, rest, err := bgp.ParsePrefix(body, subtype == SubtypeRIBIPv6Unicast)
	if errors.Is(err, bgp.ErrShortMessage) {
		return nil, ErrTruncated
	}
	if err != nil {
		return nil, fmt.Errorf("mrt: RIB prefix: %w", err)
	}
	rib.Prefix = prefix
	body = rest
	if len(body) < 2 {
		return nil, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(body[0:2]))
	body = body[2:]
	rib.Entries = make([]RIBEntry, 0, n)
	for i := 0; i < n; i++ {
		if len(body) < 8 {
			return nil, ErrTruncated
		}
		var e RIBEntry
		e.PeerIndex = binary.BigEndian.Uint16(body[0:2])
		e.OriginatedTime = time.Unix(int64(binary.BigEndian.Uint32(body[2:6])), 0).UTC()
		alen := int(binary.BigEndian.Uint16(body[6:8]))
		body = body[8:]
		if len(body) < alen {
			return nil, ErrTruncated
		}
		attrs, err := bgp.UnmarshalPathAttributes(body[:alen])
		if err != nil {
			return nil, fmt.Errorf("mrt: RIB entry attributes: %w", err)
		}
		e.Attrs = attrs
		body = body[alen:]
		rib.Entries = append(rib.Entries, e)
	}
	return rib, nil
}

func addr4(a netip.Addr) [4]byte {
	if a.IsValid() && a.Is4() {
		return a.As4()
	}
	return [4]byte{}
}

func addr16(a netip.Addr) [16]byte {
	if a.IsValid() && a.Is6() {
		return a.As16()
	}
	return [16]byte{}
}
