package store

// Sidecar summaries. A sealed segment is immutable, so everything a
// cold open needs from it — how many event records it holds, which of
// them were dead under the tombstones in force when it sealed, its
// time bounds, and digests of the prefixes / users / providers /
// communities its live events post into the indexes — can be computed
// once, at seal or compaction time, and written next to the segment as
// a small "seg-NNNNNNNN.sum" sidecar. Open then reserves index
// ordinals from the sidecar without reading the segment itself, and
// queries prune whole segments through the digests before a byte of
// event data is touched; the first query that does touch a cold
// segment hydrates it (decodes and indexes its records) under the
// write lock.
//
// Sidecars are strictly advisory: they carry their own magic, version
// and CRC, and they self-invalidate when the segment file's size no
// longer matches the size recorded at write (a compaction rewrote the
// segment) or when a tombstone not in the recorded applied set could
// affect the segment's events (liveness counts would be stale). Any
// missing, corrupt or stale sidecar just demotes that segment to the
// classic full decode at open, after which a read-write open rewrites
// the sidecar (self-heal). Losing a sidecar can never lose data.
//
// Sidecar file layout (see docs/FORMAT.md for the normative spec):
//
//	8-byte magic "BHSTSUM\x01"
//	u32le payload length | u32le CRC-32 (IEEE) | payload
//
// The payload is a single versioned record; decoding rejects unknown
// versions so the format can evolve by bumping sumVersion.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"bgpblackholing/internal/core"
)

var sumMagic = []byte("BHSTSUM\x01")

// sumVersion is the sidecar payload format version; bump on any layout
// change. Decoding rejects unknown versions rather than guessing.
const sumVersion = 1

// maxSidecarBytes bounds a sidecar payload so a corrupt length field
// can't trigger a huge allocation.
const maxSidecarBytes = 16 << 20

// sumName renders the canonical sidecar file name for a segment
// sequence number.
func sumName(seq uint64) string {
	return fmt.Sprintf("seg-%08d.sum", seq)
}

func sumPath(dir string, seq uint64) string {
	return filepath.Join(dir, sumName(seq))
}

// parseSumName extracts the sequence number from a sidecar file name.
func parseSumName(name string) (uint64, bool) {
	rest, ok := strings.CutSuffix(name, ".sum")
	if !ok {
		return 0, false
	}
	return parseSegName(rest + ".log")
}

// segSummary is the decoded (or freshly built) content of one sidecar.
type segSummary struct {
	seq      uint64
	fileSize int64 // segment file size when the sidecar was written
	// segDesc is the segment as describe saw it when the sidecar was
	// written — size the byte offset past the last valid record, dead
	// judged by the applied tombstones — so an open that trusts the
	// sidecar takes the description from here instead of the records.
	segDesc
	// truncated records that the segment carries garbage past size (a
	// recovered wounded segment); open counts it as a recovered tail
	// without rescanning the file.
	truncated bool

	// Time bounds in UnixNano beside segDesc's earliest start: allMaxEnd
	// covers every event record, live* only the live ones (what feeds
	// Stats.MinStart/MaxEnd and time-range pruning). Sentinels
	// noMinStart / noMaxEnd when the respective set is empty.
	allMaxEnd                int64
	liveMinStart, liveMaxEnd int64

	// deadBits is a bitmap over event-record positions (file order); a
	// set bit marks a record dead under the applied tombstones.
	// Hydration skips those without re-evaluating tombstones.
	deadBits []byte

	// others holds the segment's non-event record payloads (compaction
	// markers, tombstones) verbatim, in file order — open replays them
	// without touching the segment file.
	others [][]byte

	// applied is the full tombstone set in force when the sidecar was
	// written, each encoded with encodeTombstone. The tombstone set only
	// grows, so staleness is exactly "a current tombstone outside this
	// set could affect the segment".
	applied [][]byte

	// v4/v6 bound the live events' masked network addresses per family.
	v4, v6 famRange

	// Digests over the live events' index keys. No false negatives: a
	// digest miss proves the segment cannot contribute to that posting
	// list, so pruning keeps query results byte-identical.
	prefixes, users, providers, communities bloom
}

// noMaxEnd is the max-end sentinel for an empty event set.
const noMaxEnd = -1 << 63

// famRange is a per-family closed range over masked network addresses,
// in the family's native byte width (4 or 16).
type famRange struct {
	present  bool
	min, max []byte
}

func (r *famRange) add(addr []byte) {
	if !r.present {
		r.present = true
		r.min = slices.Clone(addr)
		r.max = slices.Clone(addr)
		return
	}
	if bytes.Compare(addr, r.min) < 0 {
		r.min = slices.Clone(addr)
	}
	if bytes.Compare(addr, r.max) > 0 {
		r.max = slices.Clone(addr)
	}
}

// overlaps reports whether the range intersects [first, last].
func (r *famRange) overlaps(first, last []byte) bool {
	return r.present && bytes.Compare(r.min, last) <= 0 && bytes.Compare(r.max, first) >= 0
}

// ---------------------------------------------------------------------
// Bloom digests: split double hashing over FNV-1a, ~10 bits and 7
// probes per element. One-sided by construction — mayContain can
// return spurious trues (a segment hydrates for nothing) but never a
// false negative (which would silently drop query results).

type bloom struct {
	k     int
	nbits uint64
	words []uint64
}

func newBloom(n int) bloom {
	nbits := uint64(n) * 10
	nbits = (nbits + 63) &^ 63
	if nbits < 64 {
		nbits = 64
	}
	return bloom{k: 7, nbits: nbits, words: make([]uint64, nbits/64)}
}

func bloomHash(key []byte) (h1, h2 uint64) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h, h*0x9E3779B97F4A7C15 | 1
}

func (b bloom) add(key []byte) {
	h1, h2 := bloomHash(key)
	for i := 0; i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % b.nbits
		b.words[bit>>6] |= 1 << (bit & 63)
	}
}

func (b bloom) mayContain(key []byte) bool {
	if b.nbits == 0 || len(b.words) == 0 {
		return false
	}
	h1, h2 := bloomHash(key)
	for i := 0; i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % b.nbits
		if b.words[bit>>6]&(1<<(bit&63)) == 0 {
			return false
		}
	}
	return true
}

// Digest keys reuse the codec's deterministic encodings.

func bloomPrefixKey(buf []byte, p netip.Prefix) []byte {
	return appendPrefix(buf[:0], p.Masked())
}

func bloomUserKey(buf []byte, u uint64) []byte {
	return binary.AppendUvarint(buf[:0], u)
}

func bloomProviderKey(buf []byte, pr core.ProviderRef) []byte {
	return appendProvider(buf[:0], pr)
}

// ---------------------------------------------------------------------
// Building.

// sumRec is one event record's contribution to a summary.
type sumRec struct {
	ev   *core.Event
	dead bool
}

// buildSummary computes the sidecar content for a sealed segment from
// its decoded event records (file order, dead flags pre-evaluated
// against the tombstones in force), its non-event record payloads, and
// the full applied tombstone set.
func buildSummary(seq uint64, fileSize, validLen int64, truncated bool, recs []sumRec, others, applied [][]byte) *segSummary {
	m := &segSummary{
		seq:          seq,
		fileSize:     fileSize,
		segDesc:      describe(validLen, recs),
		truncated:    truncated,
		allMaxEnd:    noMaxEnd,
		liveMinStart: noMinStart,
		liveMaxEnd:   noMaxEnd,
		others:       others,
		applied:      applied,
	}
	if len(recs) > 0 {
		m.deadBits = make([]byte, (len(recs)+7)/8)
	}
	// Digest sizing needs the live distinct-key counts first.
	prefixSet := map[netip.Prefix]bool{}
	userSet := map[uint64]bool{}
	provSet := map[core.ProviderRef]bool{}
	commSet := map[uint64]bool{}
	for k, r := range recs {
		start := r.ev.Start.UTC().UnixNano()
		end := r.ev.End.UTC().UnixNano()
		if end > m.allMaxEnd {
			m.allMaxEnd = end
		}
		if r.dead {
			m.deadBits[k>>3] |= 1 << (k & 7)
			continue
		}
		if start < m.liveMinStart {
			m.liveMinStart = start
		}
		if end > m.liveMaxEnd {
			m.liveMaxEnd = end
		}
		p := r.ev.Prefix.Masked()
		prefixSet[p] = true
		if p.Addr().Is4() {
			m.v4.add(keyBytes(p.Addr()))
		} else {
			m.v6.add(keyBytes(p.Addr()))
		}
		for _, u := range r.ev.Users {
			userSet[uint64(u)] = true
		}
		for _, pr := range r.ev.Providers {
			provSet[pr] = true
		}
		for _, c := range r.ev.Communities {
			commSet[uint64(c)] = true
		}
	}
	m.prefixes = newBloom(len(prefixSet))
	m.users = newBloom(len(userSet))
	m.providers = newBloom(len(provSet))
	m.communities = newBloom(len(commSet))
	var kb []byte
	for p := range prefixSet {
		kb = bloomPrefixKey(kb, p)
		m.prefixes.add(kb)
	}
	for u := range userSet {
		kb = bloomUserKey(kb, u)
		m.users.add(kb)
	}
	for pr := range provSet {
		kb = bloomProviderKey(kb, pr)
		m.providers.add(kb)
	}
	for c := range commSet {
		kb = bloomUserKey(kb, c)
		m.communities.add(kb)
	}
	return m
}

func (m *segSummary) deadBit(k int) bool {
	return m.deadBits[k>>3]&(1<<(k&7)) != 0
}

// ---------------------------------------------------------------------
// Pruning and staleness predicates.

// mayMatchPrefix reports whether the segment could contribute to the
// candidate postings of a prefix query. Exact lookups go through the
// prefix digest; containment modes use the per-family address ranges —
// conservative but sound: a stored prefix containing the query must
// have a network address at or below the query's, and a stored prefix
// inside the query must have its network address within the query's
// span.
func (m *segSummary) mayMatchPrefix(q netip.Prefix, mode PrefixMode) bool {
	if m.live() == 0 {
		return false
	}
	q = q.Masked()
	fam := &m.v4
	if !q.Addr().Is4() {
		fam = &m.v6
	}
	switch mode {
	case PrefixExact:
		var kb [18]byte
		return m.prefixes.mayContain(bloomPrefixKey(kb[:0], q))
	case PrefixLPM, PrefixCovering:
		return fam.present && bytes.Compare(fam.min, keyBytes(q.Addr())) <= 0
	case PrefixCovered:
		first, last := prefixRangeBytes(q)
		return fam.overlaps(first, last)
	}
	return true
}

// mayMatchTime reports whether any live event could post into a day
// bucket in [fromDay, toDay] — the same granularity the byDay index
// uses, so pruning matches the warm store's candidate set exactly.
func (m *segSummary) mayMatchTime(fromDay, toDay int64) bool {
	if m.live() == 0 {
		return false
	}
	return unixDayNano(m.liveMinStart) <= toDay && unixDayNano(m.liveMaxEnd) >= fromDay
}

// tombMayAffect reports whether a tombstone outside the sidecar's
// applied set could kill any of the segment's live events — if so the
// recorded liveness counts can't be trusted and the sidecar is stale.
func (m *segSummary) tombMayAffect(tb Tombstone) bool {
	if m.live() == 0 {
		return false
	}
	if !tb.UpTo.IsZero() && m.liveMinStart > tb.UpTo.UTC().UnixNano() {
		// Every live event starts (hence ends) after the erasure bound.
		return false
	}
	p := tb.Prefix.Masked()
	fam := &m.v4
	if !p.Addr().Is4() {
		fam = &m.v6
	}
	first, last := prefixRangeBytes(p)
	return fam.overlaps(first, last)
}

// prefixRangeBytes returns the first and last network addresses a
// prefix can cover, as native-width big-endian bytes.
func prefixRangeBytes(p netip.Prefix) (first, last []byte) {
	p = p.Masked()
	first = keyBytes(p.Addr())
	last = slices.Clone(first)
	for i := p.Bits(); i < len(last)*8; i++ {
		last[i>>3] |= 1 << (7 - i&7)
	}
	return first, last
}

func unixDayNano(nano int64) int64 {
	return unixDay(time.Unix(0, nano).UTC())
}

// ---------------------------------------------------------------------
// Encoding.

// The sidecar's byte strings, lists of them, and bloom words, as codec
// values: each count-first (FORMAT.md's bytes and list). A count is
// bounded by the bytes left, so a corrupt word count can allocate at
// most 8× the capped payload.
var (
	blob  = listOf(codec[byte]{func(buf []byte, b byte) []byte { return append(buf, b) }, (*decoder).byte})
	blobs = listOf(blob)
	words = listOf(codec[uint64]{binary.LittleEndian.AppendUint64, (*decoder).u64le})
)

func encodeSummary(m *segSummary) []byte {
	p := []byte{sumVersion}
	p = binary.AppendUvarint(p, m.seq)
	p = binary.AppendVarint(p, m.fileSize)
	p = binary.AppendVarint(p, m.size)
	var flags byte
	if m.truncated {
		flags |= 1
	}
	p = append(p, flags)
	p = binary.AppendUvarint(p, uint64(m.events))
	p = binary.AppendUvarint(p, uint64(m.live()))
	p = binary.AppendVarint(p, m.minStartNano)
	p = binary.AppendVarint(p, m.allMaxEnd)
	p = binary.AppendVarint(p, m.liveMinStart)
	p = binary.AppendVarint(p, m.liveMaxEnd)
	p = blob.put(p, m.deadBits)
	p = blobs.put(p, m.others)
	p = blobs.put(p, m.applied)
	p = appendFamRange(p, m.v4)
	p = appendFamRange(p, m.v6)
	p = appendBloom(p, m.prefixes)
	p = appendBloom(p, m.users)
	p = appendBloom(p, m.providers)
	p = appendBloom(p, m.communities)

	out := make([]byte, 0, len(sumMagic)+recordHeaderBytes+len(p))
	return appendRecord(append(out, sumMagic...), p)
}

func appendFamRange(buf []byte, r famRange) []byte {
	if !r.present {
		return append(buf, 0)
	}
	return blob.put(blob.put(append(buf, 1), r.min), r.max)
}

func appendBloom(buf []byte, b bloom) []byte {
	buf = append(buf, byte(b.k))
	buf = binary.AppendUvarint(buf, b.nbits)
	return words.put(buf, b.words)
}

// decodeSummary reads a sidecar, accepting only the bytes encodeSummary
// writes: one framed record after the magic and nothing after it, flags
// and presence bytes 0 or 1, shortest varints, blooms of whole words.
func decodeSummary(data []byte) (*segSummary, error) {
	if !bytes.HasPrefix(data, sumMagic) {
		return nil, fmt.Errorf("store: not a sidecar file (bad magic)")
	}
	p, rest, ok := nextRecord(data[len(sumMagic):], maxSidecarBytes)
	if !ok || len(rest) != 0 {
		return nil, fmt.Errorf("store: sidecar frame torn, oversized, failing its checksum or followed by bytes")
	}
	d := &decoder{buf: p}
	if v := d.byte(); v != sumVersion {
		return nil, fmt.Errorf("store: unsupported sidecar version %d", v)
	}
	m := &segSummary{}
	m.seq = d.uvarint()
	m.fileSize = d.varint()
	m.size = d.varint()
	m.truncated = d.bool()
	events, live := int(d.uvarint()), int(d.uvarint())
	m.events, m.dead = events, events-live
	m.minStartNano = d.varint()
	m.allMaxEnd = d.varint()
	m.liveMinStart = d.varint()
	m.liveMaxEnd = d.varint()
	m.deadBits = blob.get(d)
	m.others = blobs.get(d)
	m.applied = blobs.get(d)
	m.v4 = d.famRange()
	m.v6 = d.famRange()
	m.prefixes = d.bloom()
	m.users = d.bloom()
	m.providers = d.bloom()
	m.communities = d.bloom()
	if err := d.finish("sidecar payload"); err != nil {
		return nil, fmt.Errorf("store: corrupt sidecar: %w", err)
	}
	if events < 0 || live < 0 || live > events ||
		(events > 0 && len(m.deadBits) != (events+7)/8) {
		return nil, fmt.Errorf("store: corrupt sidecar: inconsistent counts")
	}
	for _, rec := range m.others {
		if !isMarker(rec) && !isTombstone(rec) {
			// Includes the retired 0xFF marker: the segment falls back
			// to a scan, where the codec rejects the record.
			return nil, fmt.Errorf("store: corrupt sidecar: unknown non-event record kind")
		}
	}
	return m, nil
}

func (d *decoder) famRange() famRange {
	if !d.bool() {
		return famRange{}
	}
	return famRange{present: true, min: blob.get(d), max: blob.get(d)}
}

func (d *decoder) bloom() bloom {
	b := bloom{k: int(d.byte()), nbits: d.uvarint(), words: words.get(d)}
	if d.err == nil && (len(b.words) == 0 || b.nbits != 64*uint64(len(b.words))) {
		d.fail("sidecar bloom")
	}
	return b
}

// ---------------------------------------------------------------------
// Files.

// writeSummary is the one sidecar writer: open's heal, seal and a
// merge's swap summarize a segment through it — size its file length,
// validLen / truncated what a scan of it finds, recs its event records
// in file order with their liveness, others its non-event payloads. The
// applied set is the tombstones in force, so the caller has judged recs
// by exactly those and lets no other in before this returns (open is
// alone; seal and the swap hold the write lock). Best-effort: after a
// failed write the next open fully decodes the segment and heals.
func (s *Store) writeSummary(seq uint64, size, validLen int64, truncated bool, recs []sumRec, others [][]byte) {
	if writeSidecar(s.dir, buildSummary(seq, size, validLen, truncated, recs, others, s.appliedTombs())) == nil {
		s.inst.SidecarWrites.Inc()
	}
}

// appliedTombs encodes the tombstones in force: a sidecar's applied
// set when written now, and what open's staleness pass looks up in the
// sets of the sidecars it finds.
func (s *Store) appliedTombs() [][]byte {
	applied := make([][]byte, len(s.tombs))
	for i, tb := range s.tombs {
		applied[i] = encodeTombstone(nil, tb.Tombstone)
	}
	return applied
}

// writeSidecar commits the sidecar next to its segment. No fsync:
// sidecars are advisory and self-checked, so a crash can at worst leave
// a sidecar behind that fails validation and demotes its segment to a
// full decode.
func writeSidecar(dir string, m *segSummary) error {
	return CommitFile(dir, sumName(m.seq), false, func(w *bufio.Writer) error {
		_, err := w.Write(encodeSummary(m))
		return err
	})
}

// loadSidecar reads and structurally validates one sidecar file.
func loadSidecar(path string) (*segSummary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeSummary(data)
}
