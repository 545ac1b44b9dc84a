package store

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"bgpblackholing/internal/core"
)

// randPrefix draws a random IPv4 or IPv6 prefix. Small address pools
// force heavy overlap, exercising splits, covering chains and shared
// subtrees.
func randPrefix(rng *rand.Rand) netip.Prefix {
	if rng.Intn(2) == 0 {
		var b [4]byte
		b[0] = byte(10 + rng.Intn(3))
		b[1] = byte(rng.Intn(4))
		b[2] = byte(rng.Intn(8))
		b[3] = byte(rng.Intn(256))
		bits := rng.Intn(33)
		return netip.PrefixFrom(netip.AddrFrom4(b), bits).Masked()
	}
	var b [16]byte
	b[0], b[1] = 0x20, 0x01
	b[2] = byte(rng.Intn(2))
	b[3] = byte(rng.Intn(4))
	b[7] = byte(rng.Intn(8))
	b[15] = byte(rng.Intn(256))
	bits := rng.Intn(129)
	return netip.PrefixFrom(netip.AddrFrom16(b), bits).Masked()
}

// naive is the O(n) reference the trie must agree with.
type naive struct {
	ords map[netip.Prefix][]int32
}

func (n *naive) insert(p netip.Prefix, ord int32) {
	n.ords[p] = append(n.ords[p], ord)
}

func (n *naive) exact(q netip.Prefix) []int32 { return n.ords[q] }

func (n *naive) covering(q netip.Prefix) map[netip.Prefix][]int32 {
	out := map[netip.Prefix][]int32{}
	for p, o := range n.ords {
		if p.Addr().Is4() == q.Addr().Is4() && p.Bits() <= q.Bits() && p.Contains(q.Addr()) {
			out[p] = o
		}
	}
	return out
}

func (n *naive) covered(q netip.Prefix) map[netip.Prefix][]int32 {
	out := map[netip.Prefix][]int32{}
	for p, o := range n.ords {
		if p.Addr().Is4() == q.Addr().Is4() && p.Bits() >= q.Bits() && q.Contains(p.Addr()) {
			out[p] = o
		}
	}
	return out
}

func (n *naive) lpm(q netip.Prefix) (netip.Prefix, bool) {
	best, ok := netip.Prefix{}, false
	for p := range n.covering(q) {
		if !ok || p.Bits() > best.Bits() {
			best, ok = p, true
		}
	}
	return best, ok
}

func asMap(ms []CoveringMatch) map[netip.Prefix][]int32 {
	out := map[netip.Prefix][]int32{}
	for _, m := range ms {
		out[m.Prefix] = m.Ords
	}
	return out
}

func sameOrds(a, b []int32) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

func samePostings(t *testing.T, what string, q netip.Prefix, got, want map[netip.Prefix][]int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s(%s): got %d prefixes, want %d\ngot:  %v\nwant: %v", what, q, len(got), len(want), got, want)
	}
	for p, w := range want {
		g, ok := got[p]
		if !ok || !sameOrds(g, w) {
			t.Fatalf("%s(%s): prefix %s: got %v want %v", what, q, p, g, w)
		}
	}
}

// TestTriePropertyAgainstNaiveScan is the satellite property test:
// random IPv4/IPv6 prefix sets, with LPM / covering / covered answers
// checked against a naive O(n) scan.
func TestTriePropertyAgainstNaiveScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trie{}
		ref := &naive{ords: map[netip.Prefix][]int32{}}
		n := 200 + rng.Intn(400)
		for i := 0; i < n; i++ {
			p := randPrefix(rng)
			tr.Insert(p, int32(i))
			ref.insert(p, int32(i))
		}
		if tr.Len() != len(ref.ords) {
			t.Fatalf("seed %d: trie.Len=%d, naive has %d distinct prefixes", seed, tr.Len(), len(ref.ords))
		}

		// Queries: stored prefixes, their parents, and fresh randoms.
		var queries []netip.Prefix
		for p := range ref.ords {
			queries = append(queries, p)
			if p.Bits() > 0 {
				queries = append(queries, netip.PrefixFrom(p.Addr(), p.Bits()-1).Masked())
			}
		}
		for i := 0; i < 200; i++ {
			queries = append(queries, randPrefix(rng))
		}

		for _, q := range queries {
			if got, want := tr.Exact(q), ref.exact(q); !sameOrds(got, want) {
				t.Fatalf("seed %d: Exact(%s): got %v want %v", seed, q, got, want)
			}
			samePostings(t, "Covering", q, asMap(tr.Covering(q)), ref.covering(q))
			samePostings(t, "Covered", q, asMap(tr.Covered(q)), ref.covered(q))

			gotP, _, gotOK := tr.LPM(q)
			wantP, wantOK := ref.lpm(q)
			if gotOK != wantOK || (gotOK && gotP != wantP) {
				t.Fatalf("seed %d: LPM(%s): got %v,%v want %v,%v", seed, q, gotP, gotOK, wantP, wantOK)
			}
		}
	}
}

// TestTrieCoveringIsOrdered pins the shortest-first contract Covering
// documents (LPM depends on it).
func TestTrieCoveringIsOrdered(t *testing.T) {
	tr := &Trie{}
	for i, s := range []string{"10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.1.2.128/25"} {
		tr.Insert(netip.MustParsePrefix(s), int32(i))
	}
	cov := tr.Covering(netip.MustParsePrefix("10.1.2.129/32"))
	for i := 1; i < len(cov); i++ {
		if cov[i-1].Prefix.Bits() >= cov[i].Prefix.Bits() {
			t.Fatalf("Covering not shortest-first: %v", cov)
		}
	}
	if len(cov) != 4 {
		t.Fatalf("want full chain of 4, got %v", cov)
	}
	if p, ords, ok := tr.LPM(netip.MustParsePrefix("10.1.2.129/32")); !ok || p.String() != "10.1.2.128/25" || !slices.Equal(ords, []int32{3}) {
		t.Fatalf("LPM: got %v %v %v", p, ords, ok)
	}
}

// TestPostingsWalk drives the one walk of the five index dimensions
// through its three edits — index, move, unindex — over events with every
// dimension populated: each list an event is filed under holds its
// ordinal, then the one it moved to (sorted among a neighbour's), and in
// the end no map and no trie node holds anything.
func TestPostingsWalk(t *testing.T) {
	multiDay := makeEvent(3)
	multiDay.End = multiDay.Start.Add(60 * time.Hour)
	v6 := makeEvent(4)
	v6.Prefix = netip.MustParsePrefix("2001:db8:1::/48")
	for _, tc := range []struct {
		name      string
		ev        *core.Event
		neighbour bool // an event sharing every key sits at ordinal 1
	}{
		{"alone", makeEvent(1), false},
		{"beside a neighbour", makeEvent(2), true},
		{"spanning days", multiDay, true},
		{"v6", v6, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.slots = make([]slot, 3)
			want := func(ord int32) []int32 {
				if !tc.neighbour {
					return []int32{ord}
				}
				return slices.Sorted(slices.Values([]int32{1, ord}))
			}
			filed := func(when string, ord int32) {
				t.Helper()
				lists := map[string][]int32{"prefix": s.trie.Exact(tc.ev.Prefix)}
				for _, u := range tc.ev.Users {
					lists[fmt.Sprint("user ", u)] = s.byUser[u]
				}
				for _, pr := range tc.ev.Providers {
					lists[fmt.Sprint("provider ", pr)] = s.byProvider[pr]
				}
				for _, c := range tc.ev.Communities {
					lists[fmt.Sprint("community ", c)] = s.byCommunity[c]
				}
				for d := unixDay(tc.ev.Start); d <= unixDay(tc.ev.End); d++ {
					lists[fmt.Sprint("day ", d)] = s.byDay[d]
				}
				if len(lists) < 5 {
					t.Fatalf("the event populates only %d lists, want all five dimensions", len(lists))
				}
				for name, l := range lists {
					if !slices.Equal(l, want(ord)) {
						t.Errorf("%s: %s holds %v, want %v", when, name, l, want(ord))
					}
				}
			}
			if tc.neighbour {
				twin := *tc.ev
				s.live++
				s.indexAt(&twin, 1)
			}
			s.live++
			s.indexAt(tc.ev, 2)
			filed("indexed", 2)
			s.moveOrd(2, 0)
			filed("moved", 0)
			s.unindex(0)
			if tc.neighbour {
				s.unindex(1)
			}
			if n := len(s.byUser) + len(s.byProvider) + len(s.byCommunity) + len(s.byDay) + len(s.days) + s.trie.Len() + s.live; n != 0 {
				t.Errorf("after unindexing: %d users, %d providers, %d communities, %d days, %d day aggregates, %d prefixes, %d live; want none",
					len(s.byUser), len(s.byProvider), len(s.byCommunity), len(s.byDay), len(s.days), s.trie.Len(), s.live)
			}
			if cov := s.trie.Covering(tc.ev.Prefix); len(cov) != 0 {
				t.Errorf("the emptied trie still answers %v", cov)
			}
		})
	}
}
