package store

import (
	"bytes"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/core"
)

// buildSidecarDir writes a store directory with several sealed,
// sidecar-backed segments, a tombstone in force, and fresh summaries:
// the append pass seals segments as it rolls, the DeletePrefix lands a
// tombstone in the active segment (staling the earlier sidecars), and
// the extra open/close cycle lets the self-heal pass rewrite them with
// the tombstone in their applied set. Returns the deleted prefix.
func buildSidecarDir(t testing.TB, dir string) netip.Prefix {
	t.Helper()
	s, err := Open(dir, Options{MaxSegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := s.Append(makeEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	victim := makeEvent(17).Prefix
	if _, err := s.DeletePrefix(victim, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Segments < 4 {
		t.Fatalf("builder produced only %d segments; want several sealed ones", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Heal pass: the tombstone postdates the seal-time sidecars, so this
	// open scans the affected segments and rewrites their summaries.
	s, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return victim
}

// sidecarFiles lists the .sum files in dir.
func sidecarFiles(t testing.TB, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".sum") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// sidecarless copies the store directory dir and deletes the copy's
// sidecars: opening the copy decodes every segment, the reference the
// cold open is held to.
func sidecarless(t *testing.T, dir string) string {
	t.Helper()
	cp := copySnapshot(t, dir)
	for _, p := range sidecarFiles(t, cp) {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	return cp
}

// equivalenceFilters is the query matrix the cold open and the decode
// of every segment must agree on: every prefix mode, each secondary
// index, time windows, duration bounds, limits, and combinations.
func equivalenceFilters() []Filter {
	p17 := makeEvent(17).Prefix
	return []Filter{
		{},
		{Prefix: p17, Mode: PrefixExact},
		{Prefix: netip.MustParsePrefix("10.2.0.0/16"), Mode: PrefixCovered},
		{Prefix: netip.PrefixFrom(p17.Addr(), 32), Mode: PrefixLPM},
		{Prefix: netip.PrefixFrom(p17.Addr(), 32), Mode: PrefixCovering},
		{User: 7003},
		{User: 424242}, // no match
		{Provider: &core.ProviderRef{Kind: core.ProviderAS, ASN: 102}},
		{Provider: &core.ProviderRef{Kind: core.ProviderIXP, IXPID: 1}},
		{Community: bgp.MakeCommunity(103, 666)},
		{From: testEpoch.Add(12 * time.Hour), To: testEpoch.Add(36 * time.Hour)},
		{From: testEpoch.Add(40 * time.Hour)},
		{To: testEpoch.Add(6 * time.Hour)},
		{MinDuration: 40 * time.Minute},
		{MaxDuration: 30 * time.Minute},
		{Limit: 7},
		{User: 7004, From: testEpoch, To: testEpoch.Add(200 * time.Hour), MinDuration: 20 * time.Minute},
	}
}

// queryFingerprint runs f and flattens the result into comparable
// form: encoded event bytes plus the Total/Scanned accounting.
type queryFingerprint struct {
	total, scanned int
	events         [][]byte
}

func fingerprint(s *Store, f Filter) queryFingerprint {
	res := s.Query(f)
	fp := queryFingerprint{total: res.Total, scanned: res.Scanned}
	for _, ev := range res.Events {
		fp.events = append(fp.events, EncodeEvent(nil, ev))
	}
	return fp
}

func sameFingerprint(a, b queryFingerprint) bool {
	if a.total != b.total || a.scanned != b.scanned || len(a.events) != len(b.events) {
		return false
	}
	for i := range a.events {
		if !bytes.Equal(a.events[i], b.events[i]) {
			return false
		}
	}
	return true
}

// TestColdOpenQueryEquivalence is the acceptance matrix: a sidecar
// cold open (with and without mmap) and a fallback open with the
// sidecars deleted (with and without mmap) must answer every filter
// byte-identically to a decode of every segment — same events, same
// Total, same Scanned.
func TestColdOpenQueryEquivalence(t *testing.T) {
	dir := t.TempDir()
	buildSidecarDir(t, dir)
	bare := sidecarless(t, dir)

	ref, err := Open(bare, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	filters := equivalenceFilters()
	want := make([]queryFingerprint, len(filters))
	for i, f := range filters {
		want[i] = fingerprint(ref, f)
	}
	wantAll := encodeAll(t, collectAll(ref))
	wantStats := ref.Stats()

	modes := []struct {
		name string
		dir  string
		opts Options
	}{
		{name: "cold", dir: dir, opts: Options{ReadOnly: true}},
		{name: "cold+mmap", dir: dir, opts: Options{ReadOnly: true, Mmap: true}},
		{name: "mmap-only", dir: bare, opts: Options{ReadOnly: true, Mmap: true}},
		{name: "cold-no-sidecars", dir: bare, opts: Options{ReadOnly: true}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			s, err := Open(m.dir, m.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if got := s.Len(); got != wantStats.Events {
				t.Fatalf("Len() = %d, want %d", got, wantStats.Events)
			}
			st := s.Stats()
			if !st.MinStart.Equal(wantStats.MinStart) || !st.MaxEnd.Equal(wantStats.MaxEnd) {
				t.Fatalf("time span [%v, %v], want [%v, %v]", st.MinStart, st.MaxEnd, wantStats.MinStart, wantStats.MaxEnd)
			}
			for i, f := range filters {
				if got := fingerprint(s, f); !sameFingerprint(got, want[i]) {
					t.Fatalf("filter %d (%+v): got total=%d scanned=%d n=%d, want total=%d scanned=%d n=%d",
						i, f, got.total, got.scanned, len(got.events), want[i].total, want[i].scanned, len(want[i].events))
				}
			}
			gotAll := encodeAll(t, collectAll(s))
			if len(gotAll) != len(wantAll) {
				t.Fatalf("All(): %d events, want %d", len(gotAll), len(wantAll))
			}
			for i := range wantAll {
				if !bytes.Equal(gotAll[i], wantAll[i]) {
					t.Fatalf("All(): event %d not byte-identical", i)
				}
			}
		})
	}
}

// TestColdOpenDecodesNothing proves the headline property: with fresh
// sidecars, open decodes zero event records from sealed segments, and
// segments hydrate only when a query touches them.
func TestColdOpenDecodesNothing(t *testing.T) {
	dir := t.TempDir()
	buildSidecarDir(t, dir)

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.Stats()
	if st.OpenDecodedEvents != 0 {
		t.Fatalf("cold open decoded %d sealed-segment events, want 0", st.OpenDecodedEvents)
	}
	if st.SegmentsCold == 0 {
		t.Fatalf("cold open left no cold segments (of %d): sidecars not used", st.Segments)
	}
	if st.SegmentsHydrated != 0 || st.HydratedEvents != 0 {
		t.Fatalf("hydration before any query: %+v", st)
	}

	// A narrow prefix query should warm at most the segments whose
	// summaries may contain it — not the whole store.
	cold := st.SegmentsCold
	s.Query(Filter{Prefix: makeEvent(3).Prefix, Mode: PrefixExact})
	st = s.Stats()
	if st.SegmentsCold == cold {
		t.Fatalf("touching query hydrated nothing (still %d cold)", cold)
	}
	if st.HydratedEvents == 0 {
		t.Fatalf("segments hydrated but no events decoded: %+v", st)
	}

	// All() must see everything, so it finishes the warm-up.
	collectAll(s)
	if st = s.Stats(); st.SegmentsCold != 0 {
		t.Fatalf("All() left %d segments cold", st.SegmentsCold)
	}
}

// TestSidecarFallbackMatrix exercises the degraded paths: a missing,
// corrupt, or stale sidecar demotes its segment to a full decode at
// open (correct answers, just slower) and a read-write open heals the
// sidecar so the next open is cold again.
func TestSidecarFallbackMatrix(t *testing.T) {
	breakers := map[string]func(t *testing.T, dir string, victim netip.Prefix){
		"missing": func(t *testing.T, dir string, _ netip.Prefix) {
			sums := sidecarFiles(t, dir)
			if len(sums) == 0 {
				t.Fatal("builder wrote no sidecars")
			}
			if err := os.Remove(sums[0]); err != nil {
				t.Fatal(err)
			}
		},
		"corrupt": func(t *testing.T, dir string, _ netip.Prefix) {
			sums := sidecarFiles(t, dir)
			data, err := os.ReadFile(sums[0])
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0xFF
			if err := os.WriteFile(sums[0], data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"non-canonical": func(t *testing.T, dir string, _ netip.Prefix) {
			// A bit no writer sets in the flags byte, under a valid
			// checksum: the reader takes only what encodeSummary writes.
			sums := sidecarFiles(t, dir)
			data, err := os.ReadFile(sums[0])
			if err != nil {
				t.Fatal(err)
			}
			p := slices.Clone(data[len(sumMagic)+recordHeaderBytes:])
			d := &decoder{buf: p[1:]} // past the version: seq, file size, valid length
			d.uvarint()
			d.varint()
			d.varint()
			p[len(p)-len(d.buf)] |= 2
			if err := os.WriteFile(sums[0], appendRecord(slices.Clone(sumMagic), p), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"stale": func(t *testing.T, dir string, victim netip.Prefix) {
			// A new tombstone lands in the active segment; the sealed
			// sidecars' applied sets no longer cover the tombstones in
			// force, so open must rescan the segments it may affect.
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.DeletePrefix(makeEvent(4).Prefix, time.Time{}); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, breaker := range breakers {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			victim := buildSidecarDir(t, dir)
			breaker(t, dir, victim)

			// Reference answers from a sidecar-less decode.
			ref, err := Open(sidecarless(t, dir), Options{ReadOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			wantAll := encodeAll(t, collectAll(ref))
			ref.Close()

			// The degraded cold open: must fall back to decoding the
			// affected segments (OpenDecodedEvents > 0) yet answer
			// identically, and — being read-write — heal the sidecars.
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.OpenDecodedEvents == 0 {
				t.Fatalf("%s sidecar did not force a fallback decode", name)
			}
			gotAll := encodeAll(t, collectAll(s))
			if len(gotAll) != len(wantAll) {
				t.Fatalf("fallback open: %d events, want %d", len(gotAll), len(wantAll))
			}
			for i := range wantAll {
				if !bytes.Equal(gotAll[i], wantAll[i]) {
					t.Fatalf("fallback open: event %d not byte-identical", i)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// Self-heal: the next cold open decodes nothing again.
			s, err = Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if st := s.Stats(); st.OpenDecodedEvents != 0 {
				t.Fatalf("after heal, cold open still decoded %d events", st.OpenDecodedEvents)
			}
		})
	}
}

// TestCompactionWritesMergedSidecar checks the compaction interplay: a
// pass over sidecar-backed segments hydrates its run members, writes a
// fresh summary for the merged segment, and the result cold-opens with
// zero decodes and unchanged answers.
func TestCompactionWritesMergedSidecar(t *testing.T) {
	dir := t.TempDir()
	buildSidecarDir(t, dir)

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantAll := encodeAll(t, collectAll(s))
	if _, err := s.Compact(Policy{MergeAll: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.OpenDecodedEvents != 0 {
		t.Fatalf("cold open after compaction decoded %d events; merged sidecar missing or stale", st.OpenDecodedEvents)
	}
	gotAll := encodeAll(t, collectAll(s))
	if len(gotAll) != len(wantAll) {
		t.Fatalf("after compaction: %d events, want %d", len(gotAll), len(wantAll))
	}
	for i := range wantAll {
		if !bytes.Equal(gotAll[i], wantAll[i]) {
			t.Fatalf("after compaction: event %d not byte-identical", i)
		}
	}
}
