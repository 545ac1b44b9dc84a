package bgpblackholing

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"bgpblackholing/internal/store"
)

// TestStoreRoundTripMatchesRun is the persistence contract: a Detector
// run with a store sink, closed, reopened and queried-all yields events
// byte-identical (under the canonical store encoding) to the in-memory
// RunResult.Events, for every worker count.
func TestStoreRoundTripMatchesRun(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := SmallOptions()
			opts.Workers = workers
			p, err := NewPipeline(opts)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			st, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			det := p.NewDetector()
			wait := det.SinkToStore(st)
			res, err := det.Run(context.Background(), p.Replay(800, 806))
			if err != nil {
				t.Fatal(err)
			}
			if err := wait(); err != nil {
				t.Fatalf("store sink: %v", err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			r, err := OpenStoreReadOnly(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			got := r.Events()
			if len(got) != len(res.Events) {
				t.Fatalf("store has %d events, run produced %d", len(got), len(res.Events))
			}
			if len(got) == 0 {
				t.Fatal("window produced no events; test window too narrow")
			}
			for i := range got {
				want := store.EncodeEvent(nil, res.Events[i])
				have := store.EncodeEvent(nil, got[i])
				if !bytes.Equal(want, have) {
					t.Fatalf("event %d (%s) not byte-identical after persist/reopen", i, res.Events[i].Prefix)
				}
			}

			// The reopened store answers point queries from its indexes —
			// no replay, no raw updates.
			ev := res.Events[0]
			qr := r.Query(Query{Prefix: ev.Prefix, Mode: PrefixLPM})
			if qr.Total == 0 {
				t.Fatalf("LPM query for %s found nothing", ev.Prefix)
			}
			if qr.Scanned > len(got) {
				t.Fatalf("LPM query scanned %d > %d stored events", qr.Scanned, len(got))
			}
			var user ASN
			for _, u := range ev.Users {
				user = u
				break
			}
			if user != 0 {
				if qr := r.Query(Query{OriginASN: user}); qr.Total == 0 {
					t.Fatalf("per-origin query for AS%d found nothing", user)
				}
			}
		})
	}
}

// TestStoreSinkAcrossRunsAccumulates: the sink covers one Run; a second
// Run with a fresh sink appends to the same store.
func TestStoreSinkAcrossRunsAccumulates(t *testing.T) {
	p, err := NewPipeline(SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	total := 0
	for _, window := range [][2]int{{800, 803}, {803, 806}} {
		det := p.NewDetector()
		wait := det.SinkToStore(st)
		res, err := det.Run(context.Background(), p.Replay(window[0], window[1]))
		if err != nil {
			t.Fatal(err)
		}
		if err := wait(); err != nil {
			t.Fatal(err)
		}
		total += len(res.Events)
	}
	if st.Len() != total {
		t.Fatalf("store accumulated %d events across runs, want %d", st.Len(), total)
	}
}
