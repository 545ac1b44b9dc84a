package store

import (
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// The compaction crash-point matrix: the tiered commit protocol is
// interrupted (by snapshotting the directory, which is exactly what a
// crash leaves behind) at every stage —
//
//	pre-commit      merged temp file written, atomic rename not yet done
//	post-commit     merged segment renamed, superseded run members still
//	                on disk (the marker must keep them from double-indexing)
//	post-cleanup    run members removed, next run not yet started
//
// — including the stages of the erasure run that physically drops
// tombstoned records ("mid-tombstone-drop"). Reopening each snapshot
// must show no event loss, no double-indexing, and tombstones still
// honored.

// copySnapshot clones the store directory's current files, minus the
// writer lock (after a real crash the owning pid is gone; here the pid
// is this test process, which would block the stale-lock steal).
func copySnapshot(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || e.Name() == lockName {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// encodedSet renders a store's live events as sorted encodings, the
// canonical multiset for comparing recovery outcomes.
func encodedSet(s *Store) []string {
	var out []string
	for ev := range s.All() {
		out = append(out, string(EncodeEvent(nil, ev)))
	}
	sort.Strings(out)
	return out
}

func TestCompactionCrashPointMatrix(t *testing.T) {
	dir := t.TempDir()
	pol := Policy{Partition: testPartition, SizeRatio: 1e9, MinRun: 2}
	opts := Options{MaxSegmentBytes: 1024, Policy: pol}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Partition 0 carries a duplicate pair (flush-closed short + longer
	// replay close); partition 1 carries the events a tombstone erases.
	// Index 8 keeps the pair's prefix (10.3.8.0/24) clear of the
	// tombstone target below.
	short := makeEventOn(8, 1)
	long := makeEventOn(8, 1)
	long.End = long.End.Add(3 * time.Hour)
	long.Detections += 5
	if err := s.Append(short); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 30; i++ {
		if err := s.Append(makeEventOn(i, 1+i%3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(long); err != nil {
		t.Fatal(err)
	}
	for i := 30; i < 70; i++ {
		if err := s.Append(makeEventOn(i, 31+i%3)); err != nil {
			t.Fatal(err)
		}
	}
	// Roll once more so every partition-1 segment is sealed.
	if err := s.Append(makeEventOn(70, 61)); err != nil {
		t.Fatal(err)
	}

	target := netip.MustParsePrefix("10.2.0.0/16")
	erased, err := s.DeletePrefix(target, partitionedEpoch.Add(60*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if erased == 0 {
		t.Fatal("setup: tombstone erased nothing")
	}

	// The two recovery outcomes: every live event (the duplicate pair
	// both present until its run commits), and the same minus the
	// superseded short close.
	withDup := encodedSet(s)
	var deduped []string
	shortEnc := string(EncodeEvent(nil, short))
	for _, e := range withDup {
		if e != shortEnc {
			deduped = append(deduped, e)
		}
	}
	if len(deduped) != len(withDup)-1 {
		t.Fatal("setup: duplicate pair not live before compaction")
	}

	// Drive the compaction, snapshotting the directory at every stage.
	type snap struct {
		stage string
		hi    uint64
		dir   string
	}
	var snaps []snap
	var pendingHi uint64
	CommitHook = func() {
		snaps = append(snaps, snap{"pre-commit", pendingHi, copySnapshot(t, dir)})
	}
	compactStageHook = func(stage string, hi uint64) {
		pendingHi = hi // runs commit in ascending order; first hook call trails the first rename
		snaps = append(snaps, snap{stage, hi, copySnapshot(t, dir)})
	}
	defer func() { CommitHook, compactStageHook = nil, nil }()

	stats, err := s.Compact(pol)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped != 1 {
		t.Fatalf("compaction dropped %d duplicates, want 1: %+v", stats.Dropped, stats)
	}
	if stats.Erased < erased {
		t.Fatalf("compaction erased %d dead records, want >= %d", stats.Erased, erased)
	}
	if len(snaps) < 6 {
		t.Fatalf("only %d crash points captured (want pre/post/cleanup for >= 2 runs)", len(snaps))
	}

	// The short duplicate disappears from disk once the partition-0
	// run (the first to commit) has renamed its merged segment.
	dupRunCommitted := false
	for _, sn := range snaps {
		r, err := Open(sn.dir, opts)
		if err != nil {
			t.Fatalf("stage %s (run %d): reopen: %v", sn.stage, sn.hi, err)
		}
		got := encodedSet(r)

		// No double-indexing, ever: no encoding may appear twice.
		for i := 1; i < len(got); i++ {
			if got[i] == got[i-1] {
				t.Fatalf("stage %s (run %d): event double-indexed after recovery", sn.stage, sn.hi)
			}
		}
		// Tombstones honored at every stage.
		for _, res := range []Result{
			r.Query(Filter{Prefix: target, Mode: PrefixCovered}),
		} {
			for _, ev := range res.Events {
				if !ev.End.After(partitionedEpoch.Add(60 * 24 * time.Hour)) {
					t.Fatalf("stage %s (run %d): tombstoned event %v resurrected", sn.stage, sn.hi, ev.Prefix)
				}
			}
		}
		// No event loss: recovery yields exactly the pre-compaction
		// live set, or the same set with the superseded duplicate
		// dropped once its run has committed. The first rename to land
		// is the partition-0 (duplicate-carrying) run's.
		if sn.stage == "post-commit" {
			dupRunCommitted = true
		}
		want := withDup
		if dupRunCommitted {
			want = deduped
		}
		if len(got) != len(want) {
			t.Fatalf("stage %s (run %d): recovered %d events, want %d", sn.stage, sn.hi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("stage %s (run %d): recovered event set diverges at %d", sn.stage, sn.hi, i)
			}
		}
		// The store must stay fully usable: append and reopen.
		before := r.Len()
		if err := r.Append(makeEvent(900)); err != nil {
			t.Fatalf("stage %s: append after recovery: %v", sn.stage, err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("stage %s: close: %v", sn.stage, err)
		}
		r2, err := Open(sn.dir, opts)
		if err != nil {
			t.Fatalf("stage %s: second reopen: %v", sn.stage, err)
		}
		if r2.Len() != before+1 {
			t.Fatalf("stage %s: second reopen lost events (%d, want %d)", sn.stage, r2.Len(), before+1)
		}
		r2.Close()
	}

	// Final state: the tombstoned records are gone from disk too.
	upTo := partitionedEpoch.Add(60 * 24 * time.Hour)
	for _, ev := range diskEvents(t, dir) {
		if target.Bits() <= ev.Prefix.Bits() && target.Contains(ev.Prefix.Addr()) && !ev.End.After(upTo) {
			t.Fatalf("tombstoned event %v still on disk after the erasure run", ev.Prefix)
		}
	}
}
