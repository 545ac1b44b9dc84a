package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/core"
)

// randomEvents builds a deterministic pseudo-random event population
// with overlapping entities across events, so partitions genuinely
// share providers/users/prefixes (the case per-shard counting gets
// wrong and set-merging must get right).
func randomEvents(seed int64, n int) []*core.Event {
	rng := rand.New(rand.NewSource(seed))
	platforms := collector.Platforms()
	events := make([]*core.Event, n)
	for i := range events {
		prefix := fmt.Sprintf("31.%d.%d.%d/32", rng.Intn(4), rng.Intn(8), rng.Intn(16))
		provider := asRef(bgp.ASN(100 + 50*rng.Intn(4)))
		user := bgp.ASN(1000 + rng.Intn(6))
		startMin := rng.Intn(5 * 24 * 60)
		endMin := startMin + 1 + rng.Intn(3*24*60)
		ps := platforms[:1+rng.Intn(len(platforms))]
		ev := mkEvent(prefix, provider, user, startMin, endMin, ps...)
		ev.Seq = uint64(i + 1)
		if rng.Intn(4) == 0 {
			ev.StartUnknown = true
		}
		if rng.Intn(3) == 0 {
			ev.DirectProviders = []core.ProviderRef{provider}
		}
		if rng.Intn(5) == 0 {
			ixp := ixpRef(0)
			ev.Providers = append(ev.Providers, ixp) // an IXP sorts after every AS
			ev.ProviderUsers = append(ev.ProviderUsers, core.Keyed[core.ProviderRef, []bgp.ASN]{Key: ixp, Val: []bgp.ASN{user}})
		}
		events[i] = ev
	}
	return events
}

// partitions returns several ways of splitting events into shards:
// round-robin, by time half and by prefix into 3 — the same shapes the
// store-level ShardPlans produce — and, for k from 1 to 5, a seeded random
// split into k shards, some of which may stay empty.
func partitions(events []*core.Event) map[string][][]*core.Event {
	out := map[string][][]*core.Event{}
	rr := make([][]*core.Event, 3)
	for i, ev := range events {
		rr[i%3] = append(rr[i%3], ev)
	}
	out["round-robin"] = rr
	byTime := make([][]*core.Event, 3)
	for _, ev := range events {
		d := int(ev.End.Sub(t0)/(48*time.Hour)) % 3
		if d < 0 {
			d = 0
		}
		byTime[d] = append(byTime[d], ev)
	}
	out["by-time"] = byTime
	byPrefix := make([][]*core.Event, 3)
	for _, ev := range events {
		byPrefix[len(ev.Prefix.String())%3] = append(byPrefix[len(ev.Prefix.String())%3], ev)
	}
	out["by-prefix"] = byPrefix
	rng := rand.New(rand.NewSource(int64(len(events))))
	for k := 1; k <= 5; k++ {
		split, used := make([][]*core.Event, k), 1+rng.Intn(k) // events go to used of the k shards
		for _, ev := range events {
			j := rng.Intn(used)
			split[j] = append(split[j], ev)
		}
		rng.Shuffle(k, func(i, j int) { split[i], split[j] = split[j], split[i] })
		out[fmt.Sprintf("random %d-way, %d empty", k, k-used)] = split
	}
	return out
}

// figure4Oracle is Figure 4 by its definition, with no floorDays and no id
// table: day d counts the members of the events that start before
// start+(d+1)·24h and end at or after start+d·24h. The wire form's tables
// are every member of some day, ascending, and a day's indices are found
// in them by search.
func figure4Oracle(events []*core.Event, start time.Time, days int) ([]DailyPoint, Figure4Sets) {
	days = max(days, 0)
	var series []DailyPoint
	provs, users, prefs := make([]map[string]bool, days), make([]map[uint32]bool, days), make([]map[string]bool, days)
	allProvs, allPrefs := map[string]bool{}, map[string]bool{}
	for d := range days {
		from := start.Add(time.Duration(d) * 24 * time.Hour)
		provs[d], users[d], prefs[d] = map[string]bool{}, map[uint32]bool{}, map[string]bool{}
		for _, ev := range events {
			if ev.Start.Before(from.Add(24*time.Hour)) && !ev.End.Before(from) {
				for _, pr := range ev.Providers {
					provs[d][pr.String()], allProvs[pr.String()] = true, true
				}
				for _, u := range ev.Users {
					users[d][uint32(u)] = true
				}
				prefs[d][ev.Prefix.String()], allPrefs[ev.Prefix.String()] = true, true
			}
		}
		series = append(series, DailyPoint{Day: from, Providers: len(provs[d]), Users: len(users[d]), Prefixes: len(prefs[d])})
	}
	sets := Figure4Sets{Start: start, Days: days, Providers: slices.Sorted(maps.Keys(allProvs)), Prefixes: slices.Sorted(maps.Keys(allPrefs))}
	index := func(table []string, day map[string]bool) []uint32 {
		out := []uint32{}
		for name := range day {
			i, _ := slices.BinarySearch(table, name)
			out = append(out, uint32(i))
		}
		slices.Sort(out)
		return out
	}
	sets.DayProviders, sets.DayUsers, sets.DayPrefixes = make([][]uint32, days), make([][]uint32, days), make([][]uint32, days)
	for d := range days {
		sets.DayProviders[d] = index(sets.Providers, provs[d])
		sets.DayUsers[d] = append([]uint32{}, slices.Sorted(maps.Keys(users[d]))...)
		sets.DayPrefixes[d] = index(sets.Prefixes, prefs[d])
	}
	return series, sets
}

// TestFigure4PartialMerge: Figure 4 observed whole, and observed per shard
// with the shards' sets unioned through a JSON round trip — what crosses
// the shard boundary in a federated /figure4 — is Figure 4 by definition,
// counted and as the sets' bytes, for every partition and every window:
// over the events, inside them, before and after them, from an unaligned
// start, of no days and of fewer.
func TestFigure4PartialMerge(t *testing.T) {
	events := randomEvents(1, 80) // within [t0, t0+8d)
	const day = 24 * time.Hour
	for _, w := range []struct {
		name  string
		start time.Time
		days  int
	}{
		{"whole", t0, 9},
		{"interior", t0.Add(3 * day), 2},
		{"before", t0.Add(-4 * day), 3},
		{"after", t0.Add(10 * day), 3},
		{"unaligned", t0.Add(7*time.Hour + 30*time.Minute), 6},
		{"no days", t0, 0},
		{"negative days", t0, -2},
	} {
		wantSeries, oracle := figure4Oracle(events, w.start, w.days)
		wantSets, err := json.Marshal(oracle)
		if err != nil {
			t.Fatal(err)
		}
		check := func(how string, u *Figure4Union) {
			t.Helper()
			if got := u.Finalize(); !reflect.DeepEqual(got, wantSeries) {
				t.Errorf("%s window, %s: counts differ from the oracle's\ngot  %+v\nwant %+v", w.name, how, got, wantSeries)
			}
			if got, _ := json.Marshal(u.Sets()); !bytes.Equal(got, wantSets) {
				t.Errorf("%s window, %s: sets differ from the oracle's\ngot  %s\nwant %s", w.name, how, got, wantSets)
			}
		}
		whole := NewFigure4Union(w.start, w.days)
		for _, ev := range events {
			whole.Observe(ev)
		}
		check("whole", whole)
		if got := Figure4(events, w.start, w.days); !reflect.DeepEqual(got, wantSeries) {
			t.Errorf("%s window: Figure4 differs from the oracle\ngot  %+v\nwant %+v", w.name, got, wantSeries)
		}
		for name, shards := range partitions(events) {
			split := NewFigure4Union(w.start, w.days)
			for _, shard := range shards {
				p := NewFigure4Union(w.start, w.days)
				for _, ev := range shard {
					p.Observe(ev)
				}
				blob, err := json.Marshal(p.Sets())
				if err != nil {
					t.Fatalf("%s: marshal: %v", name, err)
				}
				var sets Figure4Sets
				if err := json.Unmarshal(blob, &sets); err != nil {
					t.Fatalf("%s: unmarshal: %v", name, err)
				}
				if err := split.Add(&sets); err != nil {
					t.Fatalf("%s: add sets: %v", name, err)
				}
			}
			check(name, split)
		}
	}
	sets := NewFigure4Union(t0, 10).Sets()
	if err := NewFigure4Union(t0, 9).Add(&sets); err == nil {
		t.Error("adding sets over another window should fail")
	}
}

// TestFigure4UnionSparseDays: a union's memory follows the days that hold
// a member, not the window. A router asked for a century, with members on
// three days of it, lays out bitsets for those three.
func TestFigure4UnionSparseDays(t *testing.T) {
	start, days := time.Date(1917, 1, 1, 0, 0, 0, 0, time.UTC), 36600
	occupied := []int{35000, 35001, 35004}
	const members, budget = 20000, 4 << 20
	sets := Figure4Sets{Start: start, Days: days, Prefixes: make([]string, members),
		DayProviders: make([][]uint32, days), DayUsers: make([][]uint32, days), DayPrefixes: make([][]uint32, days)}
	all := make([]uint32, members)
	events, observed := make([]*core.Event, members), map[int]int{} // observed[d] is how many events fall on day d
	for i := range members {
		sets.Prefixes[i] = fmt.Sprintf("10.%d.%d.0/24", i>>8, i&255)
		all[i] = uint32(i)
		observed[occupied[i%3]]++
		at := start.Add(time.Duration(occupied[i%3])*24*time.Hour + time.Hour)
		events[i] = &core.Event{Prefix: netip.MustParsePrefix(sets.Prefixes[i]), Start: at, End: at.Add(time.Hour)}
	}
	slices.Sort(sets.Prefixes)
	for d := range days {
		sets.DayProviders[d], sets.DayUsers[d], sets.DayPrefixes[d] = []uint32{}, []uint32{}, []uint32{}
	}
	for _, d := range occupied {
		sets.DayPrefixes[d] = all
	}
	added := NewFigure4Union(start, days)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := added.Add(&sets)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > budget {
		t.Errorf("adding %d prefixes on %d of %d days allocates %.1f MB, more than %d MB", members, len(occupied), days, float64(n)/(1<<20), budget>>20)
	}
	// Observed one event at a time, the layout grows toward each new day,
	// to at most twice the span of the days that hold a member.
	observedAll := NewFigure4Union(start, days)
	for _, ev := range events {
		observedAll.Observe(ev)
	}
	span := occupied[len(occupied)-1] - occupied[0] + 1
	for how, u := range map[string]*Figure4Union{"added": added, "observed": observedAll} {
		if u.prefixes.rows > 2*span {
			t.Errorf("%s: %d days have bitsets, for members on %d days spanning %d", how, u.prefixes.rows, len(occupied), span)
		}
		series := u.Finalize()
		for d, p := range series {
			want := observed[d]
			if how == "added" && want > 0 {
				want = members
			}
			if p.Prefixes != want {
				t.Fatalf("%s: day %d counts %d prefixes, want %d", how, d, p.Prefixes, want)
			}
		}
	}
}

// TestFigure8PartialMerge: skeleton concatenation across shards
// finalizes to the same duration distributions as the whole set, in the
// same order — the events' Seq order, the federation's merge order.
func TestFigure8PartialMerge(t *testing.T) {
	events := randomEvents(2, 60)
	const timeout = 5 * time.Minute
	wantU, wantG := Figure8(events, timeout)
	for name, shards := range partitions(events) {
		var merged Figure8Partial
		for _, shard := range shards {
			var p Figure8Partial
			for _, ev := range shard {
				p.Observe(ev)
			}
			merged.Merge(&p)
		}
		gotU, gotG := merged.Finalize(timeout)
		if !reflect.DeepEqual(gotU, wantU) {
			t.Errorf("%s: ungrouped durations diverge (%d vs %d samples)", name, len(gotU), len(wantU))
		}
		if !reflect.DeepEqual(gotG, wantG) {
			t.Errorf("%s: grouped durations diverge\ngot  %v\nwant %v", name, gotG, wantG)
		}
	}
}

// TestTable3PartialMerge: the uniqueness columns make Table 3 the
// interesting case — an entity unique on one shard may be shared
// globally, so only merged sets give the right answer.
func TestTable3PartialMerge(t *testing.T) {
	events := randomEvents(3, 70)
	want := Table3(events, nil)
	for name, shards := range partitions(events) {
		merged := NewTable3Partial(nil)
		for _, shard := range shards {
			p := NewTable3Partial(nil)
			for _, ev := range shard {
				p.Observe(ev)
			}
			merged.Merge(p)
		}
		if got := merged.Finalize(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: merged partials != single pass\ngot  %+v\nwant %+v", name, got, want)
		}
	}
}

// TestTable4PartialMerge: per-provider-kind visibility merges the
// same way.
func TestTable4PartialMerge(t *testing.T) {
	events := randomEvents(4, 70)
	topo := miniTopo()
	want := Table4(events, topo, nil)
	for name, shards := range partitions(events) {
		merged := NewTable4Partial(topo, nil)
		for _, shard := range shards {
			p := NewTable4Partial(topo, nil)
			for _, ev := range shard {
				p.Observe(ev)
			}
			merged.Merge(p)
		}
		if got := merged.Finalize(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: merged partials != single pass\ngot  %+v\nwant %+v", name, got, want)
		}
	}
}
