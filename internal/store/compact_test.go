package store

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/core"
)

const testPartition = 30 * 24 * time.Hour

// partitionedEpoch is the first partition boundary at or after
// testEpoch. Partitions are absolute (floor-divided unix time), so day
// offsets from this base map cleanly onto testPartition-wide
// partitions: days 0–29 are partition 0, days 30–59 partition 1, …
var partitionedEpoch = time.Unix(0, (partitionKey(testEpoch.UnixNano(), testPartition)+1)*int64(testPartition)).UTC()

// makeEventOn is makeEvent with the event timed on a given day offset
// from partitionedEpoch, so tests can spread events across partitions.
func makeEventOn(i, day int) *core.Event {
	ev := makeEvent(i)
	ev.Start = partitionedEpoch.Add(time.Duration(day)*24*time.Hour + time.Duration(i%7)*time.Hour)
	ev.End = ev.Start.Add(time.Duration(1+i%9) * 11 * time.Minute)
	return ev
}

// propertyFilters is the query battery the compaction property tests
// replay: every prefix mode, time ranges, and the posting-list filters.
func propertyFilters(sample *core.Event) []Filter {
	host := netip.PrefixFrom(sample.Prefix.Addr(), sample.Prefix.Addr().BitLen())
	return []Filter{
		{},
		{Prefix: sample.Prefix, Mode: PrefixExact},
		{Prefix: host, Mode: PrefixLPM},
		{Prefix: netip.MustParsePrefix("10.0.0.0/8"), Mode: PrefixCovered},
		{Prefix: netip.MustParsePrefix("10.2.0.0/16"), Mode: PrefixCovered},
		{Prefix: host, Mode: PrefixCovering},
		{From: partitionedEpoch.Add(29 * 24 * time.Hour), To: partitionedEpoch.Add(35 * 24 * time.Hour)},
		{From: partitionedEpoch.Add(60 * 24 * time.Hour)},
		{To: partitionedEpoch.Add(31 * 24 * time.Hour)},
		{User: 7003},
		{Provider: &core.ProviderRef{Kind: core.ProviderAS, ASN: 102}},
		{Community: bgp.MakeCommunity(103, 666)},
		{User: 7004, From: partitionedEpoch, To: partitionedEpoch.Add(90 * 24 * time.Hour), MinDuration: 20 * time.Minute},
	}
}

// resultBytes renders a query battery's results as raw event encodings,
// so "byte-identical" is literal.
func resultBytes(t *testing.T, s *Store, filters []Filter) [][][]byte {
	t.Helper()
	out := make([][][]byte, len(filters))
	for i, f := range filters {
		res := s.Query(f)
		out[i] = make([][]byte, len(res.Events))
		for j, ev := range res.Events {
			out[i][j] = EncodeEvent(nil, ev)
		}
	}
	return out
}

func assertSameResults(t *testing.T, what string, want, got [][][]byte) {
	t.Helper()
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("%s: filter %d: %d events, want %d", what, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !bytes.Equal(want[i][j], got[i][j]) {
				t.Fatalf("%s: filter %d: event %d not byte-identical", what, i, j)
			}
		}
	}
}

// diskEvents decodes every event record physically present in dir's
// segment files, honouring compaction markers (superseded segments are
// exactly what recovery would skip).
func diskEvents(t *testing.T, dir string) []*core.Event {
	t.Helper()
	segs, _, err := listDir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	superseded := map[uint64]bool{}
	scans := make([]scanResult, len(segs))
	for i, sf := range segs {
		sc, err := readSegment(sf.path)
		if err != nil {
			t.Fatalf("%s: %v", sf.path, err)
		}
		scans[i] = sc
		for _, rec := range sc.records {
			if isMarker(rec) {
				listed, err := markerV2Seqs(rec)
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range listed {
					superseded[q] = true
				}
			}
		}
	}
	var out []*core.Event
	for i, sf := range segs {
		if superseded[sf.seq] {
			continue
		}
		for _, rec := range scans[i].records {
			if isMarker(rec) || isTombstone(rec) {
				continue
			}
			ev, err := DecodeEvent(rec)
			if err != nil {
				t.Fatalf("%s: %v", sf.path, err)
			}
			out = append(out, ev)
		}
	}
	return out
}

// TestTieredCompactionQueryIdentical is the acceptance property test:
// a store spanning three time partitions with mixed segment sizes
// answers every query mode byte-identically before and after a tiered
// compaction — in process and across a reopen — while the size-ratio
// policy provably skips the cold, already-merged segment.
func TestTieredCompactionQueryIdentical(t *testing.T) {
	dir := t.TempDir()
	pol := Policy{Partition: testPartition, SizeRatio: 4, MinRun: 2}
	opts := Options{MaxSegmentBytes: 2048, Policy: pol}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Partition 0: many small segments, then merged into one big cold
	// segment (huge ratio = merge whatever is sealed).
	var sample *core.Event
	for i := 0; i < 120; i++ {
		ev := makeEventOn(i, i%6)
		if i == 17 {
			sample = ev
		}
		if err := s.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	warm, err := s.Compact(Policy{Partition: testPartition, SizeRatio: 1e9, MinRun: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Merged) < 2 {
		t.Fatalf("setup merge touched %v, wanted several segments", warm.Merged)
	}
	coldSeq := warm.Merged[len(warm.Merged)-1] // the merged segment keeps the run's highest seq

	// Partitions 1 and 2: fresh small segments on each side of the
	// partition boundary; the roll keeps them partition-pure.
	for i := 120; i < 180; i++ {
		if err := s.Append(makeEventOn(i, 30+i%4)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 180; i < 240; i++ {
		if err := s.Append(makeEventOn(i, 60+i%4)); err != nil {
			t.Fatal(err)
		}
	}

	filters := propertyFilters(sample)
	before := resultBytes(t, s, filters)
	if len(before[0]) != 240 {
		t.Fatalf("full scan sees %d events, want 240", len(before[0]))
	}

	stats, err := s.Compact(pol)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Partitions != 3 {
		t.Fatalf("Partitions = %d, want 3", stats.Partitions)
	}
	if len(stats.Merged) == 0 {
		t.Fatal("tiered pass merged nothing; wanted the small fresh segments merged")
	}
	skipped := false
	for _, q := range stats.Skipped {
		if q == coldSeq {
			skipped = true
		}
	}
	if !skipped {
		t.Fatalf("cold segment %d not in Skipped %v (Merged %v)", coldSeq, stats.Skipped, stats.Merged)
	}
	for _, q := range stats.Merged {
		if q == coldSeq {
			t.Fatalf("cold segment %d was rewritten by the tiered pass", coldSeq)
		}
	}

	assertSameResults(t, "after tiered compaction", before, resultBytes(t, s, filters))

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	assertSameResults(t, "after reopen", before, resultBytes(t, r, filters))
}

// TestTieredCompactionPartitionIsolation: merges never combine
// segments from different time partitions.
func TestTieredCompactionPartitionIsolation(t *testing.T) {
	dir := t.TempDir()
	pol := Policy{Partition: testPartition, SizeRatio: 1e9, MinRun: 2}
	s, err := Open(dir, Options{MaxSegmentBytes: 1024, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 60; i++ {
		if err := s.Append(makeEventOn(i, (i/20)*30)); err != nil { // 3 partitions
			t.Fatal(err)
		}
	}
	st := s.Stats()
	stats, err := s.Compact(pol)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Partitions != 3 {
		t.Fatalf("Partitions = %d, want 3", stats.Partitions)
	}
	// With even a boundless size ratio, three partitions can never end
	// up in fewer than three segments (plus the active one).
	if after := s.Stats(); after.Segments < 4 && st.Segments >= 4 {
		t.Fatalf("compaction collapsed partitions: %d segments (was %d)", after.Segments, st.Segments)
	}
	// Every merged segment must hold a single partition's events.
	for _, sf := range s.sealed {
		var pk int64
		seen := false
		for _, sl := range s.slots {
			if sl.ev == nil || sl.seg != sf.seq {
				continue
			}
			k := partitionKey(sl.ev.Start.UTC().UnixNano(), pol.Partition)
			if seen && k != pk {
				t.Fatalf("segment %d mixes partitions %d and %d", sf.seq, pk, k)
			}
			pk, seen = k, true
		}
	}
}

// TestDeletePrefixImmediateAndPhysical: DeletePrefix hides a prefix's
// history from queries at once, and the next compaction of its
// partition removes the bytes from disk.
func TestDeletePrefixImmediateAndPhysical(t *testing.T) {
	dir := t.TempDir()
	pol := Policy{Partition: testPartition, SizeRatio: 4, MinRun: 2}
	opts := Options{MaxSegmentBytes: 1024, Policy: pol}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.Append(makeEventOn(i, i%5)); err != nil {
			t.Fatal(err)
		}
	}
	// Roll into a new partition so every partition-0 segment is sealed.
	if err := s.Append(makeEventOn(100, 40)); err != nil {
		t.Fatal(err)
	}

	target := netip.MustParsePrefix("10.2.0.0/16")
	covered := s.Query(Filter{Prefix: target, Mode: PrefixCovered})
	if covered.Total == 0 {
		t.Fatal("setup: no events under the target prefix")
	}
	victim := covered.Events[0]
	total := s.Len()

	n, err := s.DeletePrefix(target, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if n != covered.Total {
		t.Fatalf("DeletePrefix erased %d events, want %d", n, covered.Total)
	}

	// Absent from every query shape immediately.
	if res := s.Query(Filter{Prefix: target, Mode: PrefixCovered}); res.Total != 0 {
		t.Fatalf("covered query still sees %d events", res.Total)
	}
	if res := s.Query(Filter{Prefix: victim.Prefix, Mode: PrefixExact}); res.Total != 0 {
		t.Fatalf("exact query still sees %d events", res.Total)
	}
	host := netip.PrefixFrom(victim.Prefix.Addr(), victim.Prefix.Addr().BitLen())
	if _, _, ok := s.trie.LPM(host); ok {
		t.Fatal("trie still resolves the erased prefix")
	}
	if res := s.Query(Filter{}); res.Total != total-n {
		t.Fatalf("full scan sees %d events, want %d", res.Total, total-n)
	}
	for _, u := range victim.Users {
		for _, ev := range s.Query(Filter{User: u}).Events {
			if target.Contains(ev.Prefix.Addr()) && target.Bits() <= ev.Prefix.Bits() {
				t.Fatalf("user posting still reaches erased event %v", ev.Prefix)
			}
		}
	}
	if st := s.Stats(); st.Tombstones != 1 || st.PendingErasure != n {
		t.Fatalf("stats after delete: %+v (want 1 tombstone, %d pending)", st, n)
	}

	// Physical erasure at the partition's next compaction.
	stats, err := s.Compact(pol)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Erased < n {
		t.Fatalf("compaction erased %d dead records, want >= %d", stats.Erased, n)
	}
	for _, ev := range diskEvents(t, dir) {
		if target.Contains(ev.Prefix.Addr()) && target.Bits() <= ev.Prefix.Bits() {
			t.Fatalf("erased event %v still on disk", ev.Prefix)
		}
	}

	// An appended event the tombstone covers stays invisible. Its
	// record lands in the active segment — which the next tiered pass
	// must seal and rewrite (the dead-record escape hatch), so an
	// explicit "compact now" admin pass really purges the disk.
	old := makeEventOn(300, 2)
	old.Prefix = netip.MustParsePrefix("10.2.99.0/24")
	if err := s.Append(old); err != nil {
		t.Fatal(err)
	}
	if res := s.Query(Filter{Prefix: target, Mode: PrefixCovered}); res.Total != 0 {
		t.Fatalf("tombstone did not cover a late append: %d events", res.Total)
	}
	if _, err := s.Compact(pol); err != nil {
		t.Fatal(err)
	}
	for _, ev := range diskEvents(t, dir) {
		if target.Contains(ev.Prefix.Addr()) && target.Bits() <= ev.Prefix.Bits() {
			t.Fatalf("dead active-segment record %v survived an explicit tiered pass", ev.Prefix)
		}
	}

	// Erasure and the tombstone survive a reopen.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if res := r.Query(Filter{Prefix: target, Mode: PrefixCovered}); res.Total != 0 {
		t.Fatalf("reopen resurrected %d erased events", res.Total)
	}
	if st := r.Stats(); st.Tombstones != 1 {
		t.Fatalf("tombstone lost on reopen: %+v", st)
	}
}

// TestDeletePrefixUpToBound: a time-bounded tombstone erases only the
// history ending at or before the bound.
func TestDeletePrefixUpToBound(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	early := makeEventOn(7, 0)
	late := makeEventOn(7, 10)
	late.Start = late.Start.Add(time.Minute) // distinct dupKey
	if err := s.Append(early, late); err != nil {
		t.Fatal(err)
	}
	upTo := partitionedEpoch.Add(5 * 24 * time.Hour)
	n, err := s.DeletePrefix(early.Prefix, upTo)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("erased %d events, want 1 (only the early one)", n)
	}
	res := s.Query(Filter{Prefix: early.Prefix, Mode: PrefixExact})
	if res.Total != 1 || !res.Events[0].End.Equal(late.End) {
		t.Fatalf("bounded delete kept wrong events: %+v", res)
	}
}

// TestTombstoneSurvivesRepeatedCompaction: the tombstone's segment
// attribution must follow it into each merged segment — a second
// compaction re-emits it again instead of dropping the only copy
// (regression: a stale tombSeg lost the record at the second merge,
// resurrecting GDPR-erased data on reopen).
func TestTombstoneSurvivesRepeatedCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	target := netip.MustParsePrefix("10.3.0.0/16")
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			if err := s.Append(makeEvent(100*round + i)); err != nil {
				t.Fatal(err)
			}
		}
		if round == 0 {
			if _, err := s.DeletePrefix(target, time.Time{}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Compact(Policy{MergeAll: true}); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Tombstones != 1 {
			t.Fatalf("round %d: tombstone count %d, want 1", round, st.Tombstones)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); st.Tombstones != 1 {
		t.Fatalf("tombstone lost after repeated compactions: %+v", st)
	}
	// Still in force against an old matching event.
	old := makeEvent(3)
	old.Prefix = netip.MustParsePrefix("10.3.55.0/24")
	if err := r.Append(old); err != nil {
		t.Fatal(err)
	}
	if res := r.Query(Filter{Prefix: target, Mode: PrefixCovered}); res.Total != 0 {
		t.Fatalf("tombstone no longer honored after repeated compactions: %d events", res.Total)
	}
}

// TestTombstoneSurvivesMergeOfItsSegment: when the segment holding a
// tombstone record merges, the tombstone is re-emitted into the merged
// segment, so it stays in force after reopen.
func TestTombstoneSurvivesMergeOfItsSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := s.Append(makeEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	target := netip.MustParsePrefix("10.3.0.0/16")
	if _, err := s.DeletePrefix(target, time.Time{}); err != nil {
		t.Fatal(err)
	}
	// Merge everything: the tombstone's segment is part of the run.
	if _, err := s.Compact(Policy{MergeAll: true}); err != nil {
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
	if st := r.Stats(); st.Tombstones != 1 {
		t.Fatalf("tombstone lost through merge+reopen: %+v", st)
	}
	// Still in force: a matching old event stays invisible.
	old := makeEvent(3)
	old.Prefix = netip.MustParsePrefix("10.3.77.0/24")
	if err := r.Append(old); err != nil {
		t.Fatal(err)
	}
	if res := r.Query(Filter{Prefix: target, Mode: PrefixCovered}); res.Total != 0 {
		t.Fatalf("tombstone not honored after merge+reopen: %d events", res.Total)
	}
}
