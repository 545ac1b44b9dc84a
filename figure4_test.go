package bgpblackholing

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"bgpblackholing/internal/analysis"
)

// checkFigure4MatchesScan asserts the materialized daily aggregates
// answer Figure4 identically to the reference sequential scan, for the
// store's whole span plus windows hanging off either edge.
func checkFigure4MatchesScan(t *testing.T, st *Store, stage string) {
	t.Helper()
	stats := st.Stats()
	if stats.MinStart.IsZero() {
		t.Fatalf("%s: store is empty", stage)
	}
	base := stats.MinStart.UTC().Truncate(24 * time.Hour)
	span := int(stats.MaxEnd.Sub(base).Hours()/24) + 1
	windows := []struct {
		start time.Time
		days  int
	}{
		{base, span},
		{base.AddDate(0, 0, -3), span + 3},            // leading empty days
		{base.AddDate(0, 0, 2), 3},                    // interior slice
		{base.AddDate(0, 0, span+5), 4},               // past the span: all-zero
		{base, 1},                                     // single day
		{base.Add(7 * time.Hour), span},               // unaligned: scan fallback
		{base.In(time.FixedZone("UTC+3", 3*3600)), 2}, // aligned instant, non-UTC location
	}
	for wi, w := range windows {
		got := st.Figure4(w.start, w.days)
		want := analysis.Figure4Seq(st.s.All(), w.start, w.days)
		if len(got) != len(want) {
			t.Fatalf("%s window %d: %d points, want %d", stage, wi, len(got), len(want))
		}
		for d := range want {
			if !got[d].Day.Equal(want[d].Day) || got[d].Providers != want[d].Providers ||
				got[d].Users != want[d].Users || got[d].Prefixes != want[d].Prefixes {
				t.Fatalf("%s window %d day %d: got %+v, want %+v", stage, wi, d, got[d], want[d])
			}
		}

		// The mergeable shape obeys the same law: the per-day sets read
		// from the view are, as JSON bytes, the scan's.
		scan := analysis.NewFigure4Partial(w.start, w.days)
		for ev := range st.s.All() {
			scan.Observe(ev)
		}
		wantSets, err := json.Marshal(scan.Sets())
		if err != nil {
			t.Fatal(err)
		}
		sets, err := NewStoreBackend(st, nil).Figure4Sets(context.Background(), w.start, w.days)
		if err != nil {
			t.Fatal(err)
		}
		if gotSets, _ := json.Marshal(sets); !bytes.Equal(gotSets, wantSets) {
			t.Fatalf("%s window %d: Figure4Sets diverges from the scan:\n got %.300s\nwant %.300s", stage, wi, gotSets, wantSets)
		}
		if _, ok := st.s.DailySets(w.start, w.days); ok != (w.start.UnixNano()%int64(24*time.Hour) == 0) {
			t.Fatalf("%s window %d: DailySets ok = %v for start %v", stage, wi, ok, w.start)
		}
	}
}

// TestFigure4MaterializedMatchesScan is the equivalence property for
// the O(days) materialized read path: at every store lifecycle stage —
// freshly ingested, after a tombstone, after compaction, and across a
// cold reopen — Figure4 answers exactly what the full sequential scan
// over All() computes.
func TestFigure4MaterializedMatchesScan(t *testing.T) {
	p, err := NewPipeline(SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := OpenStoreWith(dir, StoreOptions{MaxSegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	det := p.NewDetector()
	wait := det.SinkToStore(st)
	res, err := det.Run(context.Background(), p.Replay(800, 812))
	if err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("replay window produced no events")
	}
	checkFigure4MatchesScan(t, st, "ingested")

	// Tombstone a prefix that actually has events: dayRemove must keep
	// the refcounted aggregates in step with the live set.
	victim := res.Events[len(res.Events)/2].Prefix
	n, err := st.DeletePrefix(victim, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatalf("DeletePrefix(%s) removed nothing", victim)
	}
	checkFigure4MatchesScan(t, st, "tombstoned")

	if _, err := st.Compact(CompactionPolicy{MergeAll: true}); err != nil {
		t.Fatal(err)
	}
	checkFigure4MatchesScan(t, st, "compacted")

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = OpenStoreWith(dir, StoreOptions{ReadOnly: true, ColdOpen: true, Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if cold := st.Stats().SegmentsCold; cold == 0 {
		t.Fatal("reopen found no cold segments; sidecars missing")
	}
	checkFigure4MatchesScan(t, st, "reopened-cold")
}

// TestFigure4SetsColdStore takes the mergeable Figure 4 through what
// TestFigure4MaterializedMatchesScan's merge-all pass leaves out: a
// store of many segments under tiered compaction, reopened full, cold
// and cold+mmap — and checks that a cold store answering a window from
// its day view hydrates only the segments that overlap it.
func TestFigure4SetsColdStore(t *testing.T) {
	p, err := NewPipeline(SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := OpenStoreWith(dir, StoreOptions{MaxSegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	det := p.NewDetector()
	wait := det.SinkToStore(st)
	if _, err := det.Run(context.Background(), p.Replay(800, 812)); err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Compact(CompactionPolicy{Partition: 3 * 24 * time.Hour, SizeRatio: 4, MinRun: 2}); err != nil {
		t.Fatal(err)
	}
	checkFigure4MatchesScan(t, st, "tiered")
	stats := st.Stats()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// One early day: segments holding only later events stay cold.
	day := stats.MinStart.UTC().Truncate(24 * time.Hour)
	for name, opts := range map[string]StoreOptions{
		"full":      {ReadOnly: true},
		"cold":      {ReadOnly: true, ColdOpen: true},
		"cold+mmap": {ReadOnly: true, ColdOpen: true, Mmap: true},
	} {
		st, err := OpenStoreWith(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if opts.ColdOpen {
			cold := st.Stats().SegmentsCold
			if cold < 3 {
				t.Fatalf("%s: only %d cold segments; fixture too coarse", name, cold)
			}
			if _, ok := st.s.DailySets(day, 1); !ok {
				t.Fatalf("%s: DailySets refused an aligned window", name)
			}
			if after := st.Stats(); after.SegmentsHydrated == 0 || after.SegmentsHydrated >= cold {
				t.Errorf("%s: a one-day window hydrated %d of %d cold segments, want some but not all",
					name, after.SegmentsHydrated, cold)
			}
		}
		checkFigure4MatchesScan(t, st, name)
		st.Close()
	}
}
