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
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/core"
)

// The event payload versions; decoding rejects any other rather than
// guess. Version 3 is the one written. Versions 1 (no seq) and 2 are what
// earlier builds wrote, read with their distance list dropped.
const (
	codecV1      = 1
	codecV2      = 2
	codecVersion = 3
)

// EncodeEvent appends the canonical binary encoding of ev to buf and
// returns the extended buffer. The encoding is deterministic: an event's
// sets are already in canonical order (core.Event), so every one is a
// linear copy; times are UTC nanoseconds, identical events encode to
// identical bytes (the round-trip tests compare raw encodings).
func EncodeEvent(buf []byte, ev *core.Event) []byte {
	buf = append(buf, codecVersion)
	buf = binary.AppendUvarint(buf, ev.Seq)
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

	buf = providers.put(buf, ev.Providers)
	buf = asns.put(buf, ev.Users)
	buf = communities.put(buf, ev.Communities)
	buf = platforms.put(buf, ev.Platforms)
	buf = peers.put(buf, ev.Peers)
	buf = providerDistances.put(buf, ev.ProviderDistances)
	buf = providers.put(buf, ev.DirectProviders)
	buf = providersByPlatform.put(buf, ev.ProvidersByPlatform)
	buf = usersByPlatform.put(buf, ev.UsersByPlatform)
	return providerUsers.put(buf, ev.ProviderUsers)
}

// DecodeEvent decodes one event from data, which must hold exactly one
// EncodeEvent payload with every set and key list strictly ascending —
// what EncodeEvent writes for any event the store accepts.
func DecodeEvent(data []byte) (*core.Event, error) {
	d := &decoder{buf: data}
	v := d.byte()
	if v < codecV1 || v > codecVersion {
		return nil, fmt.Errorf("store: unsupported event encoding version %d", v)
	}
	ev := &core.Event{}
	if v != codecV1 {
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

	ev.Providers = providers.get(d)
	ev.Users = asns.get(d)
	ev.Communities = communities.get(d)
	ev.Platforms = platforms.get(d)
	ev.Peers = peers.get(d)
	if v != codecVersion {
		distances.get(d) // an earlier layout's distance list
	}
	ev.ProviderDistances = providerDistances.get(d)
	ev.DirectProviders = providers.get(d)
	ev.ProvidersByPlatform = providersByPlatform.get(d)
	ev.UsersByPlatform = usersByPlatform.get(d)
	ev.ProviderUsers = providerUsers.get(d)
	if err := d.finish("event record"); err != nil {
		return nil, err
	}
	if err := ev.Check(); err != nil {
		return nil, fmt.Errorf("store: corrupt event record: %w", err)
	}
	return ev, nil
}

// ---------------------------------------------------------------------
// Encoding helpers.

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

func appendVarint[K ~int](buf []byte, k K) []byte {
	return binary.AppendVarint(buf, int64(k))
}

func appendUvarint[K ~uint32](buf []byte, k K) []byte {
	return binary.AppendUvarint(buf, uint64(k))
}

// codec is how one kind of value crosses the codec: its writer and its
// reader. Order is not its business: a list goes out as it is held, and
// core.Event.Check is what says a decoded one is in canonical order.
type codec[T any] struct {
	put func(buf []byte, v T) []byte
	get func(d *decoder) T
}

// listOf is the codec of a list of c's values: count-first, members in
// the order held, an empty list read back as nil.
func listOf[T any](c codec[T]) codec[[]T] {
	return codec[[]T]{
		put: func(buf []byte, list []T) []byte {
			buf = binary.AppendUvarint(buf, uint64(len(list)))
			for _, v := range list {
				buf = c.put(buf, v)
			}
			return buf
		},
		get: func(d *decoder) []T {
			n := d.count()
			if n == 0 {
				return nil
			}
			list := make([]T, n)
			for i := range list {
				list[i] = c.get(d)
			}
			return list
		},
	}
}

// keyedOf is the codec of one keyed entry: its key, then its value.
func keyedOf[K, V any](key codec[K], val codec[V]) codec[core.Keyed[K, V]] {
	return codec[core.Keyed[K, V]]{
		put: func(buf []byte, e core.Keyed[K, V]) []byte { return val.put(key.put(buf, e.Key), e.Val) },
		get: func(d *decoder) core.Keyed[K, V] { return core.Keyed[K, V]{Key: key.get(d), Val: val.get(d)} },
	}
}

var (
	provider = codec[core.ProviderRef]{appendProvider, (*decoder).provider}
	asn      = codec[bgp.ASN]{appendUvarint[bgp.ASN], uvarintKey[bgp.ASN]}
	platform = codec[collector.Platform]{appendVarint[collector.Platform], varintKey[collector.Platform]}
	distance = codec[int]{appendVarint[int], varintKey[int]}

	providers   = listOf(provider)
	asns        = listOf(asn)
	communities = listOf(codec[bgp.Community]{appendUvarint[bgp.Community], uvarintKey[bgp.Community]})
	platforms   = listOf(platform)
	peers       = listOf(codec[netip.Addr]{appendAddr, (*decoder).addr})
	distances   = listOf(distance)

	providerDistances   = listOf(keyedOf(provider, distance))
	providersByPlatform = listOf(keyedOf(platform, providers))
	usersByPlatform     = listOf(keyedOf(platform, asns))
	providerUsers       = listOf(keyedOf(provider, asns))
)

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
	if err := d.finish("tombstone record"); err != nil {
		return Tombstone{}, err
	}
	return tb, nil
}

// ---------------------------------------------------------------------
// Decoding. The decoder is error-latching: after the first malformed
// field every accessor returns zero values and the error surfaces once.
// It is the one reader of every payload the store writes — events,
// tombstones, markers, sidecars — and it reads only canonical bytes:
// varints in their shortest form, what binary.AppendUvarint writes.

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("store: truncated or malformed payload (%s)", what)
	}
}

// finish is the end of every payload: the first error, or one for bytes
// left over after what.
func (d *decoder) finish(what string) error {
	if d.err == nil && len(d.buf) != 0 {
		d.err = fmt.Errorf("store: %d trailing bytes after %s", len(d.buf), what)
	}
	return d.err
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
	if n <= 0 || overlong(d.buf[:n]) {
		d.fail("uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// overlong reports whether a varint's bytes are longer than its value
// needs: a last byte of zero after a continuation.
func overlong(b []byte) bool { return len(b) > 1 && b[len(b)-1] == 0 }

// bool reads a flag byte that is 0 or 1.
func (d *decoder) bool() bool {
	b := d.byte()
	if b > 1 {
		d.fail("flag")
	}
	return b == 1
}

func (d *decoder) u64le() uint64 {
	if b := d.take(8); d.err == nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// count reads an element count. Every element takes at least one byte,
// so a count beyond the remaining buffer is corruption — refused before
// anything is allocated for it (a fuzzed record could otherwise request
// a huge slice).
func (d *decoder) count() int {
	n := d.uvarint()
	if n > uint64(len(d.buf)) {
		d.fail("count")
		return 0
	}
	return int(n)
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 || overlong(d.buf[:n]) {
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

func varintKey[K ~int](d *decoder) K { return K(d.varint()) }

func uvarintKey[K ~uint32](d *decoder) K { return K(d.uvarint()) }
