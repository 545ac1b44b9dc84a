package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/core"
)

var testEpoch = time.Date(2014, 12, 1, 0, 0, 0, 0, time.UTC)

// makeEvent builds a fully populated synthetic event, deterministic in i.
func makeEvent(i int) *core.Event {
	pr := core.ProviderRef{Kind: core.ProviderAS, ASN: bgp.ASN(100 + i%7)}
	xr := core.ProviderRef{Kind: core.ProviderIXP, IXPID: i % 3}
	user := bgp.ASN(7000 + i%11)
	comm := bgp.MakeCommunity(uint16(100+i%7), 666)
	peer := netip.AddrFrom4([4]byte{192, 0, 2, byte(i % 250)})
	start := testEpoch.Add(time.Duration(i) * 13 * time.Minute)
	ev := &core.Event{
		Prefix:       netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i % 5), byte(i % 200), 0}), 24).Masked(),
		Start:        start,
		End:          start.Add(time.Duration(1+i%9) * 11 * time.Minute),
		StartUnknown: i%13 == 0,
		Providers:    []core.ProviderRef{pr, xr},
		Users:        []bgp.ASN{user, user + 1},
		Communities:  []bgp.Community{comm},
		Platforms:    []collector.Platform{collector.PlatformRIS, collector.PlatformPCH},
		Peers:        []netip.Addr{peer},
		ProviderDistances: []core.Keyed[core.ProviderRef, int]{
			{Key: pr, Val: 1}, {Key: xr, Val: core.NoPath},
		},
		DirectProviders: []core.ProviderRef{pr},
		ProvidersByPlatform: []core.Keyed[collector.Platform, []core.ProviderRef]{
			{Key: collector.PlatformRIS, Val: []core.ProviderRef{pr}},
			{Key: collector.PlatformPCH, Val: []core.ProviderRef{xr}},
		},
		UsersByPlatform: []core.Keyed[collector.Platform, []bgp.ASN]{
			{Key: collector.PlatformRIS, Val: []bgp.ASN{user}},
			{Key: collector.PlatformPCH},
		},
		ProviderUsers: []core.Keyed[core.ProviderRef, []bgp.ASN]{
			{Key: pr, Val: []bgp.ASN{user, user + 1}},
		},
		Detections:  3 + i%5,
		DirectFeed:  i%2 == 0,
		SawNoExport: i%3 == 0,
	}
	return ev
}

func encodeAll(t *testing.T, events []*core.Event) [][]byte {
	t.Helper()
	out := make([][]byte, len(events))
	for i, ev := range events {
		out[i] = EncodeEvent(nil, ev)
	}
	return out
}

func collectAll(s *Store) []*core.Event {
	var out []*core.Event
	for ev := range s.All() {
		out = append(out, ev)
	}
	return out
}

func TestCodecRoundTrip(t *testing.T) {
	for i := 0; i < 100; i++ {
		ev := makeEvent(i)
		enc := EncodeEvent(nil, ev)
		dec, err := DecodeEvent(enc)
		if err != nil {
			t.Fatalf("event %d: decode: %v", i, err)
		}
		re := EncodeEvent(nil, dec)
		if !bytes.Equal(enc, re) {
			t.Fatalf("event %d: decode→encode not byte-identical\n  first:  %x\n  second: %x", i, enc, re)
		}
		if dec.Prefix != ev.Prefix || !dec.Start.Equal(ev.Start) || !dec.End.Equal(ev.End) ||
			dec.Detections != ev.Detections || len(dec.Providers) != len(ev.Providers) ||
			len(dec.Users) != len(ev.Users) || len(dec.Peers) != len(ev.Peers) {
			t.Fatalf("event %d: decoded fields diverge: %+v vs %+v", i, dec, ev)
		}
	}
}

// legacyPayloads is one event written by hand in the layouts earlier
// builds wrote: 0x01 (no seq) and 0x02 (seq 7), each carrying the
// per-inference distance list [1, NoPath, 2] between the peers and the
// provider distances. want is what either reads as, Seq aside.
func legacyPayloads() (v1, v2 []byte, want *core.Event) {
	start, end := testEpoch, testEpoch.Add(time.Hour)
	body := []byte{4, 10, 0, 0, 0, 24} // 10.0.0.0/24
	body = binary.AppendVarint(body, start.UnixNano())
	body = binary.AppendVarint(body, end.UnixNano())
	body = append(body,
		2,            // flags: direct-feed
		3,            // detections
		1, 0, 100, 0, // providers: AS100
		1, 0xd8, 0x36, // users: AS7000
		1, 0x9a, 0x85, 0x90, 0x03, // communities: 100:666
		1, 0, // platforms: RIS
		1, 4, 192, 0, 2, 1, // peers: 192.0.2.1
		3, 2, 1, 4, // as-distances: 1, NoPath, 2
		1, 0, 100, 0, 2, // provider-distances: AS100 → 1
		1, 0, 100, 0, // direct-providers: AS100
		1, 0, 1, 0, 100, 0, // providers-by-platform: RIS → AS100
		1, 0, 1, 0xd8, 0x36, // users-by-platform: RIS → AS7000
		1, 0, 100, 0, 1, 0xd8, 0x36, // provider-users: AS100 → AS7000
	)
	as100 := core.ProviderRef{Kind: core.ProviderAS, ASN: 100}
	want = &core.Event{
		Prefix: netip.MustParsePrefix("10.0.0.0/24"), Start: start, End: end,
		Providers: []core.ProviderRef{as100}, Users: []bgp.ASN{7000},
		Communities:         []bgp.Community{bgp.MakeCommunity(100, 666)},
		Platforms:           []collector.Platform{collector.PlatformRIS},
		Peers:               []netip.Addr{netip.MustParseAddr("192.0.2.1")},
		ProviderDistances:   []core.Keyed[core.ProviderRef, int]{{Key: as100, Val: 1}},
		DirectProviders:     []core.ProviderRef{as100},
		ProvidersByPlatform: []core.Keyed[collector.Platform, []core.ProviderRef]{{Key: collector.PlatformRIS, Val: []core.ProviderRef{as100}}},
		UsersByPlatform:     []core.Keyed[collector.Platform, []bgp.ASN]{{Key: collector.PlatformRIS, Val: []bgp.ASN{7000}}},
		ProviderUsers:       []core.Keyed[core.ProviderRef, []bgp.ASN]{{Key: as100, Val: []bgp.ASN{7000}}},
		Detections:          3,
		DirectFeed:          true,
	}
	return append([]byte{codecV1}, body...), append([]byte{codecV2, 7}, body...), want
}

// TestCodecReadsLegacyLayouts: a 0x01 or 0x02 record decodes to the
// event it holds with its distance list dropped, and that event is its
// own 0x03 round trip, every field equal.
func TestCodecReadsLegacyLayouts(t *testing.T) {
	v1, v2, want := legacyPayloads()
	for _, c := range []struct {
		payload []byte
		seq     uint64
	}{{v1, 0}, {v2, 7}} {
		ev, err := DecodeEvent(c.payload)
		if err != nil {
			t.Fatalf("0x%02X: %v", c.payload[0], err)
		}
		want.Seq = c.seq
		if !reflect.DeepEqual(ev, want) {
			t.Fatalf("0x%02X decodes to\n  %+v\nwant\n  %+v", c.payload[0], ev, want)
		}
		enc := EncodeEvent(nil, ev)
		if enc[0] != codecVersion {
			t.Fatalf("0x%02X re-encodes as version 0x%02X, want 0x%02X", c.payload[0], enc[0], codecVersion)
		}
		re, err := DecodeEvent(enc)
		if err != nil || !reflect.DeepEqual(re, ev) {
			t.Fatalf("0x%02X: the 0x03 round trip gives %+v (%v), want %+v", c.payload[0], re, err, ev)
		}
		if len(enc) != len(v2)-4 {
			t.Fatalf("0x%02X: the 0x03 record is %d bytes, want the 0x02 one (%d) less its 4-byte distance list", c.payload[0], len(enc), len(v2))
		}
	}
}

func TestCodecRejectsCorruptRecords(t *testing.T) {
	enc := EncodeEvent(nil, makeEvent(5))
	for _, cut := range []int{1, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeEvent(enc[:cut]); err == nil {
			t.Fatalf("decode of %d/%d-byte truncation succeeded", cut, len(enc))
		}
	}
	if _, err := DecodeEvent(append([]byte{99}, enc[1:]...)); err == nil {
		t.Fatal("decode accepted unknown version")
	}
	// A set or key list out of canonical form: EncodeEvent writes what it
	// is given, and the decoder must refuse every one of them.
	for name, ev := range nonCanonicalEvents() {
		if _, err := DecodeEvent(EncodeEvent(nil, ev)); err == nil || !strings.Contains(err.Error(), "not strictly ascending") {
			t.Errorf("%s: decode error %v, want a not-strictly-ascending refusal", name, err)
		}
	}
}

// nonCanonicalEvents is makeEvent(5) broken one field at a time: two
// members swapped, or one member twice.
func nonCanonicalEvents() map[string]*core.Event {
	out := map[string]*core.Event{}
	ev := func(name string) *core.Event {
		out[name] = makeEvent(5)
		return out[name]
	}
	swap := func(n int, swap func(i, j int)) { swap(n-2, n-1) }
	e := ev("Providers swapped")
	swap(len(e.Providers), reflect.Swapper(e.Providers))
	e = ev("Users swapped")
	swap(len(e.Users), reflect.Swapper(e.Users))
	e = ev("Platforms swapped")
	swap(len(e.Platforms), reflect.Swapper(e.Platforms))
	e = ev("ProviderDistances swapped")
	swap(len(e.ProviderDistances), reflect.Swapper(e.ProviderDistances))
	e = ev("ProvidersByPlatform swapped")
	swap(len(e.ProvidersByPlatform), reflect.Swapper(e.ProvidersByPlatform))
	e = ev("UsersByPlatform swapped")
	swap(len(e.UsersByPlatform), reflect.Swapper(e.UsersByPlatform))
	e = ev("ProviderUsers members swapped")
	swap(len(e.ProviderUsers[0].Val), reflect.Swapper(e.ProviderUsers[0].Val))
	e = ev("Communities duplicated")
	e.Communities = append(e.Communities, e.Communities[0])
	e = ev("Peers duplicated")
	e.Peers = append(e.Peers, e.Peers[0])
	e = ev("DirectProviders duplicated")
	e.DirectProviders = append(e.DirectProviders, e.DirectProviders[0])
	e = ev("ProviderUsers key duplicated")
	e.ProviderUsers = append(e.ProviderUsers, e.ProviderUsers[0])
	e = ev("ProvidersByPlatform members duplicated")
	e.ProvidersByPlatform[0].Val = append(e.ProvidersByPlatform[0].Val, e.ProvidersByPlatform[0].Val[0])
	return out
}

// TestAppendRefusesNonCanonicalEvents: a hand-built event that breaks
// the Event invariant never reaches disk — the batch is refused whole
// with ErrNotCanonical before a byte is written, and the store goes on
// to append and reopen as if it had never been offered.
func TestAppendRefusesNonCanonicalEvents(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(makeEvent(0)); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	for name, bad := range nonCanonicalEvents() {
		if err := s.Append(makeEvent(1), bad); !errors.Is(err, ErrNotCanonical) {
			t.Fatalf("%s: Append error %v, want ErrNotCanonical", name, err)
		}
	}
	if s.Len() != 1 || !reflect.DeepEqual(dirFiles(t, dir), before) {
		t.Fatalf("a refused batch left a trace: %d events", s.Len())
	}
	if err := s.Append(makeEvent(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 2 || r.Stats().RecoveredTails != 0 {
		t.Fatalf("reopened store has %d events, %d torn tails", r.Len(), r.Stats().RecoveredTails)
	}
}

func TestStoreAppendReopenPreservesOrderAndBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var events []*core.Event
	for i := 0; i < 200; i++ {
		events = append(events, makeEvent(i))
	}
	if err := s.Append(events...); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := collectAll(r)
	if len(got) != len(events) {
		t.Fatalf("reopened store has %d events, want %d", len(got), len(events))
	}
	want := encodeAll(t, events)
	for i, g := range encodeAll(t, got) {
		if !bytes.Equal(g, want[i]) {
			t.Fatalf("event %d not byte-identical after reopen", i)
		}
	}
	st := r.Stats()
	if st.Events != 200 || st.Segments == 0 || st.MinStart.IsZero() {
		t.Fatalf("odd stats after reopen: %+v", st)
	}
}

func TestStoreSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := s.Append(makeEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Segments < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := r.Len(); n != 300 {
		t.Fatalf("reopen after rotation: %d events, want 300", n)
	}
}

// TestStoreCrashRecoveryTruncatedSegment is the acceptance-criteria
// crash test: a segment truncated mid-record reopens cleanly, keeps
// every intact record, and accepts new appends.
func TestStoreCrashRecoveryTruncatedSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Append(makeEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail mid-record, as a crash during a write would.
	segs, _, err := listDir(dir, true)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listDir: %v %v", segs, err)
	}
	path := segs[len(segs)-1].path
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-37); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	got := collectAll(r)
	if len(got) != 49 {
		t.Fatalf("recovered %d events, want 49 (the torn record dropped)", len(got))
	}
	if st := r.Stats(); st.RecoveredTails != 1 {
		t.Fatalf("RecoveredTails = %d, want 1", st.RecoveredTails)
	}
	for i, g := range encodeAll(t, got) {
		if want := EncodeEvent(nil, makeEvent(i)); !bytes.Equal(g, want) {
			t.Fatalf("recovered event %d corrupted", i)
		}
	}
	// The store stays writable at a clean record boundary.
	if err := r.Append(makeEvent(999)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if n := r2.Len(); n != 50 {
		t.Fatalf("after recovery + append + reopen: %d events, want 50", n)
	}
}

func TestStoreCorruptedChecksumDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Append(makeEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, _ := listDir(dir, true)
	path := segs[len(segs)-1].path
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF // flip payload bits inside the last record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := r.Len(); n != 9 {
		t.Fatalf("store kept %d events past a checksum failure, want 9", n)
	}
}

// TestStoreTornNewestSegmentMagic: a crash between a segment's
// creation and its first sync can leave the newest file shorter than
// the magic; open must recover, not refuse.
func TestStoreTornNewestSegmentMagic(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Append(makeEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, _ := listDir(dir, true)
	torn := filepath.Join(dir, segName(segs[len(segs)-1].seq+1))
	if err := os.WriteFile(torn, []byte("BHS"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open with torn-magic newest segment: %v", err)
	}
	if n := r.Len(); n != 10 {
		t.Fatalf("recovered %d events, want 10", n)
	}
	if st := r.Stats(); st.RecoveredTails != 1 {
		t.Fatalf("RecoveredTails = %d, want 1", st.RecoveredTails)
	}
	if err := r.Append(makeEvent(99)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatal("torn segment file not cleaned up")
	}
}

// TestStoreWriterLock: the single-writer invariant is enforced — a
// second read-write open fails while the first is live, read-only
// opens still work, and the lock releases on Close.
func TestStoreWriterLock(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(makeEvent(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second read-write open of a live store succeeded")
	}
	if r, err := Open(dir, Options{ReadOnly: true}); err != nil {
		t.Fatalf("read-only open alongside the writer: %v", err)
	} else {
		r.Close()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	s2.Close()

	// A lock left by a dead process (bogus pid) is stolen.
	if err := os.WriteFile(filepath.Join(dir, lockName), []byte("999999999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open over a stale lock: %v", err)
	}
	s3.Close()
}

func TestStoreReadOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(makeEvent(1), makeEvent(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Append(makeEvent(3)); err != ErrReadOnly {
		t.Fatalf("Append on read-only store: %v, want ErrReadOnly", err)
	}
	if _, err := r.Compact(Policy{MergeAll: true}); err != ErrReadOnly {
		t.Fatalf("Compact on read-only store: %v, want ErrReadOnly", err)
	}
	if n := r.Len(); n != 2 {
		t.Fatalf("read-only store has %d events, want 2", n)
	}
	if _, err := Open(filepath.Join(dir, "missing"), Options{ReadOnly: true}); err == nil {
		t.Fatal("read-only open of a missing store dir succeeded")
	}
}

// TestCompactDropsSupersededFlushDuplicates: the same blackholing
// closed once by an end-of-window flush and again, longer, by an
// overlapping replay collapses to the longer record.
func TestCompactDropsSupersededFlushDuplicates(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	short := makeEvent(7) // flush-closed at window end
	long := makeEvent(7)  // the same occurrence, observed longer
	long.End = long.End.Add(3 * time.Hour)
	long.Detections += 4
	other := makeEvent(8)
	if err := s.Append(short, other, long); err != nil {
		t.Fatal(err)
	}
	st, err := s.Compact(Policy{MergeAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Dropped != 1 || st.EventsAfter != 2 {
		t.Fatalf("compact stats: %+v, want 1 dropped / 2 kept", st)
	}
	got := collectAll(s)
	if len(got) != 2 {
		t.Fatalf("post-compact store has %d events", len(got))
	}
	// Survivor sits at the duplicate's first position, and is the long one.
	if !got[0].End.Equal(long.End) {
		t.Fatalf("survivor end = %v, want the superseding %v", got[0].End, long.End)
	}
	if got[1].Prefix != other.Prefix {
		t.Fatalf("unrelated event lost: %+v", got[1])
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Compaction is durable: reopen sees the merged state.
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := r.Len(); n != 2 {
		t.Fatalf("reopen after compact: %d events, want 2", n)
	}
}

// TestCompactCrashLeftoversIgnored: a crash between the merged
// segment's atomic commit (renamed over the run's highest member) and
// the removal of the lower run members leaves both generations on
// disk. The v2 marker must make recovery skip (and remove) the stale
// members instead of double-indexing their events.
func TestCompactCrashLeftoversIgnored(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	dup := makeEvent(3)
	dup.End = dup.End.Add(time.Hour)
	for i := 0; i < 20; i++ {
		if err := s.Append(makeEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(dup); err != nil {
		t.Fatal(err)
	}
	st, err := s.Compact(Policy{MergeAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Dropped != 1 || st.EventsAfter != 20 {
		t.Fatalf("compact: %+v", st)
	}
	if len(st.Merged) < 2 {
		t.Fatalf("expected a multi-segment run, merged only %v", st.Merged)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Resurrect a stale lower run member, as an interrupted cleanup
	// would leave behind: the merged segment's marker names it.
	stalePath := filepath.Join(dir, segName(st.Merged[0]))
	f, err := createSegment(openSegmentFile, stalePath)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for i := 0; i < 5; i++ {
		buf = appendRecord(buf[:0], EncodeEvent(nil, makeEvent(i)))
		if _, err := f.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Len(); n != 20 {
		t.Fatalf("reopen indexed %d events, want 20 (stale generation must be skipped)", n)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stalePath); !os.IsNotExist(err) {
		t.Fatalf("stale segment not cleaned up on open: %v", err)
	}
}

// TestOpenRejectsRetiredMarker: the 0xFF tag was the pre-tiered
// one-byte marker that superseded every lower segment. It has no
// writer, so a reader no longer honours it: the record reaches the
// codec as an unknown version and Open fails — read-only, read-write,
// and cold with a sidecar that carries the byte among its non-event
// payloads — without deleting the lower segments or anything else.
func TestOpenRejectsRetiredMarker(t *testing.T) {
	dir := t.TempDir()
	writeSeg := func(seq uint64, payloads ...[]byte) int64 {
		buf := slices.Clone(segMagic)
		for _, p := range payloads {
			buf = appendRecord(buf, p)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(seq)), buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return int64(len(buf))
	}
	enc := func(i int) []byte { return EncodeEvent(nil, makeEvent(i)) }
	writeSeg(1, enc(0), enc(1), enc(2))
	size2 := writeSeg(2, []byte{0xFF}, enc(3), enc(4))
	writeSeg(3, enc(5))

	snapshot := func() map[string]string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string]string{}
		for _, e := range ents {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(data)
		}
		return files
	}
	check := func(name string, opts Options) {
		before := snapshot()
		if s, err := Open(dir, opts); err == nil {
			s.Close()
			t.Fatalf("%s: Open accepted a segment holding the retired 0xFF marker", name)
		}
		if after := snapshot(); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: a failed Open changed the store directory", name)
		}
	}
	check("read-only", Options{ReadOnly: true})
	check("read-write", Options{})

	m := buildSummary(2, size2, size2, false,
		[]sumRec{{ev: makeEvent(3)}, {ev: makeEvent(4)}}, [][]byte{{0xFF}}, nil)
	if err := writeSidecar(dir, m); err != nil {
		t.Fatal(err)
	}
	check("cold with sidecar", Options{ReadOnly: true})
}

// TestOpenRejectsMarkerTrailingBytes: a compaction marker is its list
// and nothing after it. One stray byte behind the list makes the marker
// corrupt, and Open fails — read-only and read-write — with every file
// still on disk, the segments it lists included.
func TestOpenRejectsMarkerTrailingBytes(t *testing.T) {
	dir := t.TempDir()
	for seq, payloads := range map[uint64][][]byte{
		1: {EncodeEvent(nil, makeEvent(0))},
		2: {append(appendMarkerV2(nil, []uint64{1}), 0), EncodeEvent(nil, makeEvent(0))},
		3: {EncodeEvent(nil, makeEvent(1))},
	} {
		buf := slices.Clone(segMagic)
		for _, p := range payloads {
			buf = appendRecord(buf, p)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(seq)), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, opts := range []Options{{ReadOnly: true}, {}} {
		if s, err := Open(dir, opts); err == nil {
			s.Close()
			t.Fatalf("Open(%+v) accepted a marker with a trailing byte", opts)
		}
		for seq := uint64(1); seq <= 3; seq++ {
			if _, err := os.Stat(filepath.Join(dir, segName(seq))); err != nil {
				t.Fatalf("a failed Open(%+v) removed %s: %v", opts, segName(seq), err)
			}
		}
	}
}

// TestCompactConcurrentAppendsSurvive: events appended while a
// compaction's merge phase runs land in a segment the marker does not
// supersede, and survive both the swap and a reopen.
func TestCompactConcurrentAppendsSurvive(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.Append(makeEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Compact(Policy{MergeAll: true})
		done <- err
	}()
	for i := 100; i < 160; i++ {
		if err := s.Append(makeEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := s.Len(); n != 160 {
		t.Fatalf("store holds %d events after concurrent compact+append, want 160", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := r.Len(); n != 160 {
		t.Fatalf("reopen holds %d events, want 160", n)
	}
}

func TestBackgroundCompactorMergesSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 1024, CompactSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := s.Append(makeEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := s.Stats(); st.Segments <= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background compactor never merged: %+v", s.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := r.Len(); n != 400 {
		t.Fatalf("after background compaction: %d events, want 400", n)
	}
}

func TestQueryAgainstNaiveFilter(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var events []*core.Event
	for i := 0; i < 500; i++ {
		events = append(events, makeEvent(i))
	}
	if err := s.Append(events...); err != nil {
		t.Fatal(err)
	}

	filters := []Filter{
		{},
		{User: 7003},
		{Community: bgp.MakeCommunity(103, 666)},
		{Provider: &core.ProviderRef{Kind: core.ProviderAS, ASN: 102}},
		{Provider: &core.ProviderRef{Kind: core.ProviderIXP, IXPID: 1}},
		{From: testEpoch.Add(24 * time.Hour), To: testEpoch.Add(48 * time.Hour)},
		{From: testEpoch.Add(24 * time.Hour)},
		{To: testEpoch.Add(24 * time.Hour)},
		{MinDuration: 40 * time.Minute},
		{MaxDuration: 30 * time.Minute},
		{Prefix: events[17].Prefix, Mode: PrefixExact},
		{Prefix: netip.MustParsePrefix("10.2.0.0/16"), Mode: PrefixCovered},
		{Prefix: netip.PrefixFrom(events[17].Prefix.Addr(), 32), Mode: PrefixLPM},
		{Prefix: netip.PrefixFrom(events[17].Prefix.Addr(), 32), Mode: PrefixCovering},
		{User: 7003, MinDuration: 30 * time.Minute, From: testEpoch, To: testEpoch.Add(240 * time.Hour)},
		{User: 424242}, // no match
	}
	for fi, f := range filters {
		res := s.Query(f)
		var want []*core.Event
		for _, ev := range events {
			if naiveMatch(ev, f, s) {
				want = append(want, ev)
			}
		}
		if res.Total != len(want) || len(res.Events) != len(want) {
			t.Fatalf("filter %d (%+v): got %d/%d events, want %d", fi, f, len(res.Events), res.Total, len(want))
		}
		for i := range want {
			if res.Events[i] != want[i] {
				t.Fatalf("filter %d: result %d out of order", fi, i)
			}
		}
		if f.User != 0 || f.Community != 0 || f.Provider != nil || f.Prefix.IsValid() {
			if res.Scanned > len(events)/2 {
				t.Fatalf("filter %d: indexed query scanned %d of %d events", fi, res.Scanned, len(events))
			}
		}
	}

	// Limit caps Events but not Total.
	res := s.Query(Filter{Limit: 5})
	if len(res.Events) != 5 || res.Total != len(events) {
		t.Fatalf("limit: got %d events / total %d", len(res.Events), res.Total)
	}
}

// naiveMatch re-implements the filter semantics sans indexes. LPM needs
// the trie's answer for "the longest stored prefix", so it consults the
// store's trie only to find that prefix, then compares plainly.
func naiveMatch(ev *core.Event, f Filter, s *Store) bool {
	if !f.From.IsZero() && ev.End.Before(f.From) {
		return false
	}
	if !f.To.IsZero() && ev.Start.After(f.To) {
		return false
	}
	if f.Prefix.IsValid() {
		q := f.Prefix.Masked()
		p := ev.Prefix.Masked()
		switch f.Mode {
		case PrefixExact:
			if p != q {
				return false
			}
		case PrefixCovered:
			if !(p.Bits() >= q.Bits() && q.Contains(p.Addr())) {
				return false
			}
		case PrefixCovering:
			if !(p.Bits() <= q.Bits() && p.Contains(q.Addr())) {
				return false
			}
		case PrefixLPM:
			lpm, _, ok := s.trie.LPM(q)
			if !ok || p != lpm {
				return false
			}
		}
	}
	if f.User != 0 && !slices.Contains(ev.Users, f.User) {
		return false
	}
	if f.Provider != nil && !slices.Contains(ev.Providers, *f.Provider) {
		return false
	}
	if f.Community != 0 && !slices.Contains(ev.Communities, f.Community) {
		return false
	}
	if f.MinDuration > 0 && ev.Duration() < f.MinDuration {
		return false
	}
	if f.MaxDuration > 0 && ev.Duration() > f.MaxDuration {
		return false
	}
	return true
}
