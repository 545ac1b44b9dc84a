package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
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

// partitions returns several ways of splitting events into 3 shards:
// round-robin, by time half, and by prefix — the same shapes the
// store-level ShardPlans produce.
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
	return out
}

// TestFigure4PartialMerge: computing Figure 4 per shard and merging
// the partials equals the single-pass result, for every partition —
// and so is the union of the shards' wire (Sets) forms, which is what
// actually crosses the shard boundary in a federated /figure4.
func TestFigure4PartialMerge(t *testing.T) {
	events := randomEvents(1, 80)
	const days = 9
	want := Figure4(events, t0, days)
	for name, shards := range partitions(events) {
		merged := NewFigure4Partial(t0, days)
		for _, shard := range shards {
			p := NewFigure4Partial(t0, days)
			for _, ev := range shard {
				p.Observe(ev)
			}
			if err := merged.Merge(p); err != nil {
				t.Fatalf("%s: merge: %v", name, err)
			}
		}
		if got := merged.Finalize(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: merged partials != single pass\ngot  %+v\nwant %+v", name, got, want)
		}

		// The same law over the wire form: the shards' sets, through a
		// JSON round trip, union to the single pass — counted, and
		// exported again as the sets of the whole.
		wire, whole := NewFigure4Union(t0, days), NewFigure4Partial(t0, days)
		for _, shard := range shards {
			p := NewFigure4Partial(t0, days)
			for _, ev := range shard {
				p.Observe(ev)
				whole.Observe(ev)
			}
			blob, err := json.Marshal(p.Sets())
			if err != nil {
				t.Fatalf("%s: marshal: %v", name, err)
			}
			var sets Figure4Sets
			if err := json.Unmarshal(blob, &sets); err != nil {
				t.Fatalf("%s: unmarshal: %v", name, err)
			}
			if err := wire.Add(&sets); err != nil {
				t.Fatalf("%s: add sets: %v", name, err)
			}
		}
		if got := wire.Finalize(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: wire round trip != single pass\ngot  %+v\nwant %+v", name, got, want)
		}
		gotSets, _ := json.Marshal(wire.Sets())
		wantSets, _ := json.Marshal(whole.Sets())
		if !bytes.Equal(gotSets, wantSets) {
			t.Errorf("%s: the union's sets are not the whole's\ngot  %s\nwant %s", name, gotSets, wantSets)
		}
	}
	sets := NewFigure4Partial(t0, days+1).Sets()
	if err := NewFigure4Union(t0, days).Add(&sets); err == nil {
		t.Error("adding sets over another window should fail")
	}
	if err := NewFigure4Partial(t0, days).Merge(NewFigure4Partial(t0, days+1)); err == nil {
		t.Error("merging mismatched windows should fail")
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
