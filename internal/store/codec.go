// Package store is the persistent blackholing event store: an
// append-only, segmented, checksummed binary log of closed events with
// atomic-rename commits and crash recovery, plus in-memory indexes —
// a binary radix (patricia) trie over announced prefixes, time-bucket
// postings, and per-user / per-provider / per-community postings —
// rebuilt on open, so longitudinal queries never replay raw BGP data.
//
// The store is single-writer, multi-reader: one process appends (the
// Detector sink), any number of goroutines query concurrently. A
// tiered compactor (see compact.go) merges runs of similar-sized
// segments within time partitions, drops superseded flush duplicates
// (the same blackholing closed once artificially by an end-of-window
// flush and again, longer, by a later replay), and physically erases
// tombstoned history (DeletePrefix).
package store

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/core"
)

// codecVersion is the record payload format version; bump on any layout
// change. Decoding rejects unknown versions rather than guessing.
// Version 2 prepends the event's global closing sequence number
// (core.Event.Seq); version 1 is the pre-seq layout, still written for
// unstamped events so hand-built stores and old goldens stay
// byte-stable, and still decoded (Seq = 0).
const (
	codecVersion    = 1
	codecVersionSeq = 2
)

// EncodeEvent appends the canonical binary encoding of ev to buf and
// returns the extended buffer. The encoding is deterministic: map keys
// are sorted, times are UTC nanoseconds, identical events encode to
// identical bytes (the round-trip tests compare raw encodings).
func EncodeEvent(buf []byte, ev *core.Event) []byte {
	if ev.Seq != 0 {
		buf = append(buf, codecVersionSeq)
		buf = binary.AppendUvarint(buf, ev.Seq)
	} else {
		buf = append(buf, codecVersion)
	}
	buf = appendPrefix(buf, ev.Prefix)
	buf = binary.AppendVarint(buf, ev.Start.UTC().UnixNano())
	buf = binary.AppendVarint(buf, ev.End.UTC().UnixNano())
	var flags byte
	if ev.StartUnknown {
		flags |= 1
	}
	if ev.DirectFeed {
		flags |= 2
	}
	if ev.SawNoExport {
		flags |= 4
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(ev.Detections))

	buf = appendSet(buf, ev.Providers, providerKeys)
	buf = appendSet(buf, ev.Users, asnKeys)
	buf = appendSet(buf, ev.Communities, communityKeys)
	buf = appendSet(buf, ev.Platforms, platformKeys)
	buf = appendSet(buf, ev.Peers, peerKeys)

	buf = binary.AppendUvarint(buf, uint64(len(ev.ASDistances)))
	for _, d := range ev.ASDistances {
		buf = binary.AppendVarint(buf, int64(d))
	}

	provs := sortedKeys(ev.ProviderDistances, providerKeys.cmp)
	buf = binary.AppendUvarint(buf, uint64(len(provs)))
	for _, pr := range provs {
		buf = appendProvider(buf, pr)
		buf = binary.AppendVarint(buf, int64(ev.ProviderDistances[pr]))
	}

	buf = appendSet(buf, ev.DirectProviders, providerKeys)

	plats := sortedKeys(ev.ProvidersByPlatform, platformKeys.cmp)
	buf = binary.AppendUvarint(buf, uint64(len(plats)))
	for _, p := range plats {
		buf = appendPlatform(buf, p)
		buf = appendSet(buf, ev.ProvidersByPlatform[p], providerKeys)
	}

	uplats := sortedKeys(ev.UsersByPlatform, platformKeys.cmp)
	buf = binary.AppendUvarint(buf, uint64(len(uplats)))
	for _, p := range uplats {
		buf = appendPlatform(buf, p)
		buf = appendSet(buf, ev.UsersByPlatform[p], asnKeys)
	}

	pus := sortedKeys(ev.ProviderUsers, providerKeys.cmp)
	buf = binary.AppendUvarint(buf, uint64(len(pus)))
	for _, pr := range pus {
		buf = appendProvider(buf, pr)
		buf = appendSet(buf, ev.ProviderUsers[pr], asnKeys)
	}
	return buf
}

// DecodeEvent decodes one event from data, which must hold exactly one
// EncodeEvent payload.
func DecodeEvent(data []byte) (*core.Event, error) {
	d := &decoder{buf: data}
	v := d.byte()
	if v != codecVersion && v != codecVersionSeq {
		return nil, fmt.Errorf("store: unsupported event encoding version %d", v)
	}
	ev := &core.Event{}
	if v == codecVersionSeq {
		ev.Seq = d.uvarint()
	}
	ev.Prefix = d.prefix()
	ev.Start = time.Unix(0, d.varint()).UTC()
	ev.End = time.Unix(0, d.varint()).UTC()
	flags := d.byte()
	ev.StartUnknown = flags&1 != 0
	ev.DirectFeed = flags&2 != 0
	ev.SawNoExport = flags&4 != 0
	ev.Detections = int(d.uvarint())

	ev.Providers = decodeSet(d, providerKeys)
	ev.Users = decodeSet(d, asnKeys)
	ev.Communities = decodeSet(d, communityKeys)
	ev.Platforms = decodeSet(d, platformKeys)
	ev.Peers = decodeSet(d, peerKeys)

	// Each distance takes at least one byte, so a count beyond the
	// remaining buffer is corruption — reject it before allocating
	// (a fuzzed record could otherwise request a huge slice).
	if n := int(d.uvarint()); n > 0 && d.err == nil {
		if n > len(d.buf) {
			d.fail("distance count")
		} else {
			ev.ASDistances = make([]int, n)
			for i := range ev.ASDistances {
				ev.ASDistances[i] = int(d.varint())
			}
		}
	}

	ev.ProviderDistances = map[core.ProviderRef]int{}
	for i, n := 0, int(d.uvarint()); i < n && d.err == nil; i++ {
		pr := d.provider()
		ev.ProviderDistances[pr] = int(d.varint())
	}

	ev.DirectProviders = decodeSet(d, providerKeys)

	ev.ProvidersByPlatform = map[collector.Platform]map[core.ProviderRef]bool{}
	for i, n := 0, int(d.uvarint()); i < n && d.err == nil; i++ {
		p := d.platform()
		ev.ProvidersByPlatform[p] = decodeSet(d, providerKeys)
	}
	ev.UsersByPlatform = map[collector.Platform]map[bgp.ASN]bool{}
	for i, n := 0, int(d.uvarint()); i < n && d.err == nil; i++ {
		p := d.platform()
		ev.UsersByPlatform[p] = decodeSet(d, asnKeys)
	}
	ev.ProviderUsers = map[core.ProviderRef]map[bgp.ASN]bool{}
	for i, n := 0, int(d.uvarint()); i < n && d.err == nil; i++ {
		pr := d.provider()
		ev.ProviderUsers[pr] = decodeSet(d, asnKeys)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("store: %d trailing bytes after event record", len(d.buf))
	}
	return ev, nil
}

// ---------------------------------------------------------------------
// Encoding helpers. Every set is written count-first with sorted keys.

func appendPrefix(buf []byte, p netip.Prefix) []byte {
	a := p.Addr()
	if a.Is4() {
		b := a.As4()
		buf = append(buf, 4)
		buf = append(buf, b[:]...)
	} else {
		b := a.As16()
		buf = append(buf, 16)
		buf = append(buf, b[:]...)
	}
	return append(buf, byte(p.Bits()))
}

func appendAddr(buf []byte, a netip.Addr) []byte {
	if a.Is4() {
		b := a.As4()
		buf = append(buf, 4)
		return append(buf, b[:]...)
	}
	b := a.As16()
	buf = append(buf, 16)
	return append(buf, b[:]...)
}

func appendProvider(buf []byte, pr core.ProviderRef) []byte {
	buf = append(buf, byte(pr.Kind))
	buf = binary.AppendUvarint(buf, uint64(pr.ASN))
	return binary.AppendUvarint(buf, uint64(pr.IXPID))
}

func appendPlatform(buf []byte, p collector.Platform) []byte {
	return binary.AppendVarint(buf, int64(p))
}

func appendUvarint[K ~uint32](buf []byte, k K) []byte {
	return binary.AppendUvarint(buf, uint64(k))
}

// keyCodec is how one kind of set member crosses the codec: its
// canonical order, its writer and its reader.
type keyCodec[K comparable] struct {
	cmp func(a, b K) int
	put func(buf []byte, k K) []byte
	get func(d *decoder) K
}

var (
	providerKeys  = keyCodec[core.ProviderRef]{core.ProviderRefCompare, appendProvider, (*decoder).provider}
	asnKeys       = keyCodec[bgp.ASN]{cmp.Compare[bgp.ASN], appendUvarint[bgp.ASN], uvarintKey[bgp.ASN]}
	communityKeys = keyCodec[bgp.Community]{cmp.Compare[bgp.Community], appendUvarint[bgp.Community], uvarintKey[bgp.Community]}
	platformKeys  = keyCodec[collector.Platform]{cmp.Compare[collector.Platform], appendPlatform, (*decoder).platform}
	peerKeys      = keyCodec[netip.Addr]{netip.Addr.Compare, appendAddr, (*decoder).addr}
)

// sortedKeys returns m's keys in compare order.
func sortedKeys[K comparable, V any](m map[K]V, compare func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compare)
	return keys
}

// appendSet writes a set count-first, members in canonical order.
func appendSet[K comparable](buf []byte, m map[K]bool, c keyCodec[K]) []byte {
	keys := sortedKeys(m, c.cmp)
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = c.put(buf, k)
	}
	return buf
}

// decodeSet reads what appendSet wrote.
func decodeSet[K comparable](d *decoder, c keyCodec[K]) map[K]bool {
	m := map[K]bool{}
	for i, n := 0, int(d.uvarint()); i < n && d.err == nil; i++ {
		m[c.get(d)] = true
	}
	return m
}

// ---------------------------------------------------------------------
// Tombstones. A tombstone is the durable form of DeletePrefix: it
// declares the erasure of a prefix's history. The semantics are purely
// declarative and time-based — an event is dead iff its prefix is
// covered by (or equal to) the tombstone's prefix and, when UpTo is
// set, the event ended at or before UpTo — so applying tombstones is
// independent of record replay order.

// Tombstone is one DeletePrefix erasure directive.
type Tombstone struct {
	// Prefix scopes the erasure: every stored event whose prefix lies
	// inside it (including exact matches) is affected.
	Prefix netip.Prefix
	// UpTo, when non-zero, bounds the erasure to events whose End is at
	// or before it; zero erases the prefix's whole history.
	UpTo time.Time
}

// Matches reports whether the tombstone kills ev.
func (tb Tombstone) Matches(ev *core.Event) bool {
	p := tb.Prefix.Masked()
	q := ev.Prefix.Masked()
	if p.Bits() > q.Bits() || !p.Contains(q.Addr()) {
		return false
	}
	return tb.UpTo.IsZero() || !ev.End.After(tb.UpTo)
}

// encodeTombstone appends the binary encoding of a tombstone record.
func encodeTombstone(buf []byte, tb Tombstone) []byte {
	buf = append(buf, kindTombstone)
	var flags byte
	if !tb.UpTo.IsZero() {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = appendPrefix(buf, tb.Prefix.Masked())
	if flags&1 != 0 {
		buf = binary.AppendVarint(buf, tb.UpTo.UTC().UnixNano())
	}
	return buf
}

// decodeTombstone decodes one tombstone record payload.
func decodeTombstone(data []byte) (Tombstone, error) {
	d := &decoder{buf: data}
	if d.byte() != kindTombstone {
		return Tombstone{}, fmt.Errorf("store: not a tombstone record")
	}
	flags := d.byte()
	tb := Tombstone{Prefix: d.prefix()}
	if flags&1 != 0 {
		tb.UpTo = time.Unix(0, d.varint()).UTC()
	}
	if d.err != nil {
		return Tombstone{}, d.err
	}
	if len(d.buf) != 0 {
		return Tombstone{}, fmt.Errorf("store: %d trailing bytes after tombstone record", len(d.buf))
	}
	return tb, nil
}

// ---------------------------------------------------------------------
// Decoding. The decoder is error-latching: after the first malformed
// field every accessor returns zero values and the error surfaces once.

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("store: truncated event record (%s)", what)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.buf) < 1 {
		d.fail("byte")
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) take(n int) []byte {
	if d.err != nil || len(d.buf) < n {
		d.fail("bytes")
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) addr() netip.Addr {
	switch n := d.byte(); n {
	case 4:
		b := d.take(4)
		if d.err != nil {
			return netip.Addr{}
		}
		return netip.AddrFrom4([4]byte(b))
	case 16:
		b := d.take(16)
		if d.err != nil {
			return netip.Addr{}
		}
		return netip.AddrFrom16([16]byte(b))
	default:
		d.fail("addr family")
		return netip.Addr{}
	}
}

func (d *decoder) prefix() netip.Prefix {
	a := d.addr()
	bits := int(d.byte())
	if d.err != nil {
		return netip.Prefix{}
	}
	p := netip.PrefixFrom(a, bits)
	if !p.IsValid() {
		d.fail("prefix bits")
		return netip.Prefix{}
	}
	return p
}

func (d *decoder) provider() core.ProviderRef {
	return core.ProviderRef{
		Kind:  core.ProviderKind(d.byte()),
		ASN:   bgp.ASN(d.uvarint()),
		IXPID: int(d.uvarint()),
	}
}

func (d *decoder) platform() collector.Platform { return collector.Platform(d.varint()) }

func uvarintKey[K ~uint32](d *decoder) K { return K(d.uvarint()) }
