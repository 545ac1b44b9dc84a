package store

import (
	"bytes"
	"iter"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/core"
)

// randomFilter draws a filter that exercises every index path: prefix
// modes over the trie, user/provider/community postings, time buckets,
// duration bounds, limits, and the unconstrained full scan.
func randomFilter(r *rand.Rand) Filter {
	var f Filter
	switch r.Intn(6) {
	case 0:
		f.Prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(r.Intn(5)), byte(r.Intn(200)), byte(r.Intn(2))}), 8+r.Intn(25)).Masked()
		f.Mode = PrefixMode(r.Intn(4))
	case 1:
		f.User = bgp.ASN(7000 + r.Intn(13))
	case 2:
		f.Provider = &core.ProviderRef{Kind: core.ProviderAS, ASN: bgp.ASN(100 + r.Intn(8))}
	case 3:
		f.Community = bgp.MakeCommunity(uint16(100+r.Intn(8)), 666)
	case 4:
		f.From = testEpoch.Add(time.Duration(r.Intn(48)) * time.Hour)
		f.To = f.From.Add(time.Duration(r.Intn(72)) * time.Hour)
	}
	if r.Intn(3) == 0 {
		f.MinDuration = time.Duration(r.Intn(60)) * time.Minute
	}
	if r.Intn(3) == 0 {
		f.Limit = 1 + r.Intn(20)
	}
	return f
}

// TestQuerySeqMatchesQuery property-tests both forms of the store's read
// walk against naiveMatch: Query's Events and Total, and what QuerySeq
// yields, are the reference's matches in append order, cut at Limit,
// across random filters and after erasures — on a store that holds its
// events, and on a cold reopened, sidecar-backed one whose segments
// hydrate as the filters reach them.
func TestQuerySeqMatchesQuery(t *testing.T) {
	var events []*core.Event
	for i := 0; i < 300; i++ {
		events = append(events, makeEvent(i))
	}
	warm, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	for _, ev := range events {
		if err := warm.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	// An erasure nils slots mid-array, which both paths must skip.
	erased := Tombstone{Prefix: netip.MustParsePrefix("10.2.0.0/16")}
	if _, err := warm.DeletePrefix(erased.Prefix, time.Time{}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	victim := Tombstone{Prefix: buildSidecarDir(t, dir)} // the same 300 events
	cold, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if cold.Stats().SegmentsCold == 0 {
		t.Fatal("fixture: the reopened store has no cold segment")
	}

	for _, c := range []struct {
		name string
		s    *Store
		gone Tombstone
	}{{"warm", warm, erased}, {"cold", cold, victim}} {
		r := rand.New(rand.NewSource(3))
		for trial := 0; trial < 200; trial++ {
			f := randomFilter(r)
			res := c.s.Query(f) // first: it hydrates what f touches, which naiveMatch's LPM reads
			var want [][]byte
			for _, ev := range events {
				if !c.gone.Matches(ev) && naiveMatch(ev, f, c.s) {
					want = append(want, EncodeEvent(nil, ev))
				}
			}
			if res.Total != len(want) {
				t.Fatalf("%s trial %d (%+v): Query's Total is %d, want %d", c.name, trial, f, res.Total, len(want))
			}
			if f.Limit > 0 && len(want) > f.Limit {
				want = want[:f.Limit]
			}
			for form, got := range map[string][]*core.Event{"Query": res.Events, "QuerySeq": slices.Collect(c.s.QuerySeq(f))} {
				if len(got) != len(want) {
					t.Fatalf("%s trial %d (%+v): %s gave %d events, want %d", c.name, trial, f, form, len(got), len(want))
				}
				for i := range got {
					if !bytes.Equal(EncodeEvent(nil, got[i]), want[i]) {
						t.Fatalf("%s trial %d (%+v): %s's event %d differs", c.name, trial, f, form, i)
					}
				}
			}
		}
	}
}

// TestQuerySeqIsASnapshot: a walk yields the live set as it stood when
// it was asked for. Paused mid-way, a QuerySeq walk and an All walk let
// the same goroutine append matching events and erase some they have
// yet to yield — nothing waits on a lock a walk holds — and, drained,
// yield no appended event and every erased one.
func TestQuerySeqIsASnapshot(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var held []*core.Event
	for i := 0; i < 100; i++ {
		held = append(held, makeEvent(i))
	}
	if err := s.Append(held...); err != nil {
		t.Fatal(err)
	}
	f := Filter{Community: bgp.MakeCommunity(103, 666)} // events i ≡ 3 (mod 7)
	var matched []*core.Event
	for _, ev := range held {
		if naiveMatch(ev, f, s) {
			matched = append(matched, ev)
		}
	}

	nextSeq, stopSeq := iter.Pull(s.QuerySeq(f))
	defer stopSeq()
	nextAll, stopAll := iter.Pull(s.All())
	defer stopAll()
	pull := func(next func() (*core.Event, bool), n int) (got []*core.Event) {
		for ev, ok := next(); ok; ev, ok = next() {
			got = append(got, ev)
			if len(got) == n {
				break
			}
		}
		return got
	}
	gotSeq, gotAll := pull(nextSeq, 3), pull(nextAll, 50)

	var later []*core.Event
	for i := 100; i < 130; i++ {
		later = append(later, makeEvent(i))
	}
	if err := s.Append(later...); err != nil {
		t.Fatal(err)
	}
	// Event 80 matches f and is past both walks' positions; its /24
	// holds no other stored event.
	if n, err := s.DeletePrefix(held[80].Prefix, time.Time{}); err != nil || n != 1 {
		t.Fatalf("erasing event 80: %d erased, %v", n, err)
	}

	gotSeq, gotAll = append(gotSeq, pull(nextSeq, -1)...), append(gotAll, pull(nextAll, -1)...)
	if !slices.Equal(gotSeq, matched) {
		t.Errorf("the QuerySeq walk yielded %d events, want the %d that matched when it was called", len(gotSeq), len(matched))
	}
	if !slices.Equal(gotAll, held) {
		t.Errorf("the All walk yielded %d events, want the %d held when it was called", len(gotAll), len(held))
	}
	// The store itself moved on: the erased event is gone, the appended
	// ones are in.
	want := len(matched) - 1
	for _, ev := range later {
		if naiveMatch(ev, f, s) {
			want++
		}
	}
	if got := s.Query(f).Total; got != want {
		t.Errorf("after the walks: %d events match, want %d", got, want)
	}
}

// TestQuerySeqEarlyStop proves a consumer can abandon the iterator
// mid-stream without draining it.
func TestQuerySeqEarlyStop(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 50; i++ {
		if err := s.Append(makeEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for range s.QuerySeq(Filter{}) {
		n++
		if n == 7 {
			break
		}
	}
	if n != 7 {
		t.Fatalf("stopped after %d events, want 7", n)
	}
}
