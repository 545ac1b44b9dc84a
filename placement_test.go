package bgpblackholing

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bgpblackholing/internal/store"
)

// Placement: a router over stamped shards asks only the shard a prefix
// query's answer can live on. These tests hold it to the one thing that
// matters — whatever it asks, it answers what one store holding every
// event answers — and count what it asked.

// shardedFleet persists events, in the order given (their Seq order),
// in one store and in plan's shards, each stamped the way SinkToShards
// stamps them.
func shardedFleet(t testing.TB, plan ShardPlan, events []*Event) (single *Store, shards []*Store) {
	t.Helper()
	open := func() *Store {
		st, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	single = open()
	shards = make([]*Store, plan.Shards())
	for i := range shards {
		shards[i] = open()
		if err := shards[i].stamp(plan, i); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range events {
		if err := errors.Join(single.Append(ev), shards[plan.Shard(ev)].Append(ev)); err != nil {
			t.Fatal(err)
		}
	}
	return single, shards
}

// localFleet mounts the shards in process.
func localFleet(shards []*Store) []Backend {
	backends := make([]Backend, len(shards))
	for i, st := range shards {
		backends[i] = NewStoreBackend(st, nil).WithName(fmt.Sprintf("shard-%d", i))
	}
	return backends
}

// remoteFleet serves each shard over loopback HTTP, as bhserve does.
func remoteFleet(t testing.TB, shards []*Store) ([]Backend, []*httptest.Server) {
	t.Helper()
	backends := make([]Backend, len(shards))
	servers := make([]*httptest.Server, len(shards))
	for i, st := range shards {
		servers[i] = httptest.NewServer(NewStoreHandler(st, nil))
		t.Cleanup(servers[i].Close)
		rb, err := NewRemoteBackend([]string{servers[i].URL}, RemoteOptions{Name: fmt.Sprintf("shard-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = rb
	}
	return backends, servers
}

// learned is a federation over backends that has read its shards'
// identities, as bhroute does before it serves.
func learned(t testing.TB, backends []Backend) *FederatedStore {
	t.Helper()
	fed := NewFederatedStore(backends...)
	if _, err := fed.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
	return fed
}

// serveEvents answers GET /events for q from h, with no network between.
func serveEvents(h http.Handler, q Query, ndjson bool) (int, []byte) {
	params := queryParams(q)
	if q.Limit > 0 {
		params.Set("limit", fmt.Sprint(q.Limit))
	}
	if ndjson {
		params.Set("format", "ndjson")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/events?"+params.Encode(), nil))
	return rec.Code, rec.Body.Bytes()
}

// maskAccounting drops the two envelope lines that legitimately differ
// between one store and a federation: the wall clock, and the
// candidates examined (a shard's index is smaller than the whole's).
func maskAccounting(body []byte) string {
	var out []string
	for _, line := range strings.Split(maskElapsed(string(body)), "\n") {
		if !strings.Contains(line, `"scanned"`) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// sameAnswer holds got (a router) to want (the single store) for q in
// both response shapes: NDJSON byte for byte, JSON but for elapsed_us
// and scanned.
func sameAnswer(t *testing.T, what string, want, got http.Handler, q Query) {
	t.Helper()
	for _, ndjson := range []bool{true, false} {
		wcode, wbody := serveEvents(want, q, ndjson)
		gcode, gbody := serveEvents(got, q, ndjson)
		if wcode != http.StatusOK || gcode != wcode {
			t.Fatalf("%s: %+v ndjson=%v: status %d, single store %d", what, q, ndjson, gcode, wcode)
		}
		if ndjson && !bytes.Equal(gbody, wbody) {
			t.Fatalf("%s: %+v: NDJSON differs from the single store's\n got: %s\nwant: %s", what, q, gbody, wbody)
		}
		if !ndjson && maskAccounting(gbody) != maskAccounting(wbody) {
			t.Fatalf("%s: %+v: JSON differs from the single store's\n got: %s\nwant: %s", what, q, gbody, wbody)
		}
	}
}

// asked sums the federation's per-shard request counters.
func asked(fed *FederatedStore) (n uint64) {
	for i := range fed.counters {
		n += fed.counters[i].requests.Load()
	}
	return n
}

// TestFederationLPMLongestWins: a federated mode=lpm answers the longest
// match, not the union of each shard's own longest match. The chain's
// outermost prefix is shorter than the split bit, so the prefix plans
// file it away from the prefixes it covers; the time plans spread the
// chain by closing day, and put the longest prefix on several shards,
// which must all stay.
func TestFederationLPMLongestWins(t *testing.T) {
	type family struct {
		chain                     [3]string // nested, outermost first
		inAll, inTwo, inOne, miss string    // addresses by how much of the chain covers them
	}
	families := map[string]family{
		"v4": {[3]string{"100.0.0.0/6", "101.1.1.0/24", "101.1.1.1/32"}, "101.1.1.1", "101.1.1.9", "102.0.0.1", "8.8.8.8"},
		"v6": {[3]string{"2400::/6", "2500:db8::/32", "2500:db8::1/128"}, "2500:db8::1", "2500:db8::2", "2600::1", "3000::1"},
	}
	plans := []ShardPlan{
		PrefixShardPlan{Bit: 8, N: 2}, PrefixShardPlan{Bit: 8, N: 3},
		TimeShardPlan{Width: 24 * time.Hour, N: 2}, TimeShardPlan{Width: 24 * time.Hour, N: 3},
	}
	for name, fam := range families {
		// One event per closing day: the chain outermost first, the
		// innermost twice more, the middle once more.
		var events []*Event
		for day, link := range []int{0, 1, 2, 2, 2, 1} {
			end := time.Date(2016, 5, 1+day, 12, 0, 0, 0, time.UTC)
			events = append(events, &Event{Prefix: mustPrefix(fam.chain[link]), Seq: uint64(day + 1), Start: end.Add(-time.Hour), End: end})
		}
		for _, plan := range plans {
			single, shards := shardedFleet(t, plan, events)
			if a, b := plan.Shard(events[0]), plan.Shard(events[1]); a == b {
				t.Fatalf("fixture: plan %v files %s and %s on one shard", plan, fam.chain[0], fam.chain[1])
			}
			remote, _ := remoteFleet(t, shards)
			want := NewStoreHandler(single, nil)
			for what, fed := range map[string]*FederatedStore{
				"local, asking everywhere":  NewFederatedStore(localFleet(shards)...),
				"local, identities read":    learned(t, localFleet(shards)),
				"remote, asking everywhere": NewFederatedStore(remote...),
				"remote, identities read":   learned(t, remote),
			} {
				what = fmt.Sprintf("%s, plan %v, %s", name, plan, what)
				router := NewRouterHandler(fed, RouterOptions{})
				for addr, total := range map[string]int{fam.inAll: 3, fam.inTwo: 2, fam.inOne: 1, fam.miss: 0} {
					a := netip.MustParseAddr(addr)
					q := Query{Prefix: netip.PrefixFrom(a, a.BitLen()), Mode: PrefixLPM}
					for _, q.Limit = range []int{0, 1} {
						sameAnswer(t, what, want, router, q)
					}
					// The union of the shards' own longest matches would
					// count the whole chain.
					if rs, err := fed.Records(context.Background(), q); err != nil || rs.Total != total {
						t.Errorf("%s: lpm %s: %+v, %v; want total %d", what, addr, rs, err, total)
					}
				}
			}
		}
	}
}

// TestFederationLPMFilterResolvesPrefixFirst: mode=lpm picks the longest
// prefix among the events, and any other filter then narrows that
// prefix's events — so when none of them passes, the answer is empty
// even though a shorter covering prefix, on another shard, holds an event
// that does. The router used to answer with that event: the longest match
// among the shards' filtered answers.
func TestFederationLPMFilterResolvesPrefixFirst(t *testing.T) {
	day := func(d int) time.Time { return time.Date(2016, 5, d, 12, 0, 0, 0, time.UTC) }
	as1, as2 := ProviderRef{Kind: ProviderAS, ASN: 3356}, ProviderRef{Kind: ProviderAS, ASN: 174}
	// The outer prefix is shorter than the split bit and closes a day
	// before the inner one: a prefix plan and a daily time plan both file
	// the two apart.
	events := []*Event{
		{Prefix: mustPrefix("100.0.0.0/6"), Seq: 1, Start: day(1).Add(-time.Hour), End: day(1),
			Users: []ASN{65001}, Providers: []ProviderRef{as1}},
		{Prefix: mustPrefix("101.1.1.1/32"), Seq: 2, Start: day(2).Add(-time.Hour), End: day(2),
			Users: []ASN{65002}, Providers: []ProviderRef{as2}},
		{Prefix: mustPrefix("101.1.1.1/32"), Seq: 3, Start: day(4).Add(-time.Hour), End: day(4),
			Users: []ASN{65003}, Providers: []ProviderRef{as2}},
	}
	point := mustPrefix("101.1.1.1/32")
	queries := map[string]Query{
		"origin of the outer prefix only":   {Prefix: point, Mode: PrefixLPM, OriginASN: 65001},
		"provider of the outer prefix only": {Prefix: point, Mode: PrefixLPM, Provider: &as1},
		"window of the outer prefix only":   {Prefix: point, Mode: PrefixLPM, To: day(1)},
		"origin of one inner event":         {Prefix: point, Mode: PrefixLPM, OriginASN: 65003},
		"a filter every inner event passes": {Prefix: point, Mode: PrefixLPM, Provider: &as2, Limit: 1},
		"an address only the outer covers":  {Prefix: mustPrefix("102.0.0.1/32"), Mode: PrefixLPM, OriginASN: 65001},
		"an address nothing covers":         {Prefix: mustPrefix("8.8.8.8/32"), Mode: PrefixLPM, OriginASN: 65001},
	}
	for _, plan := range []ShardPlan{PrefixShardPlan{Bit: 8, N: 3}, TimeShardPlan{Width: 24 * time.Hour, N: 2}} {
		single, shards := shardedFleet(t, plan, events)
		if plan.Shard(events[0]) == plan.Shard(events[1]) {
			t.Fatalf("fixture: plan %v files both prefixes on one shard", plan)
		}
		// The fixture is the bug's: filtered first, the outer prefix's
		// event is the longest match left; prefix first, nothing is.
		if q := queries["origin of the outer prefix only"]; single.Query(q).Total != 0 ||
			single.Query(Query{Prefix: events[0].Prefix, OriginASN: q.OriginASN}).Total != 1 {
			t.Fatal("fixture: the outer prefix's event must pass the filter and the inner prefix's must not")
		}
		remote, _ := remoteFleet(t, shards)
		want := NewStoreHandler(single, nil)
		for what, fed := range map[string]*FederatedStore{
			"local, no identities read":  NewFederatedStore(localFleet(shards)...),
			"local, identities read":     learned(t, localFleet(shards)),
			"remote, no identities read": NewFederatedStore(remote...),
			"remote, identities read":    learned(t, remote),
		} {
			router := NewRouterHandler(fed, RouterOptions{})
			for name, q := range queries {
				sameAnswer(t, fmt.Sprintf("plan %v, %s, %s", plan, what, name), want, router, q) // sets and streams
			}
		}
	}
}

// TestFederationLearnsFromAnswers: a router with no plan — one that never
// got a complete /stats answer, or one whose plan a swapped shard made it
// drop — learns it from the identities its shards' /events answers carry:
// the first query goes everywhere, the second to its owner, and nobody
// asked for /stats in between.
func TestFederationLearnsFromAnswers(t *testing.T) {
	plan := PrefixShardPlan{Bit: 8, N: 3}
	var events []*Event
	for i, p := range []string{"9.1.1.1/32", "10.1.1.1/32", "11.1.1.1/32"} { // shards 0, 1, 2
		events = append(events, stallEvent(i))
		events[i].Prefix, events[i].Seq = mustPrefix(p), uint64(i+1)
	}
	_, shards := shardedFleet(t, plan, events)
	var swapped atomic.Bool // shard 1's address answers from shard 2's store
	backends := make([]Backend, len(shards))
	for i, st := range shards {
		own, other := NewStoreHandler(st, nil), NewStoreHandler(shards[2], nil)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if i == 1 && swapped.Load() {
				other.ServeHTTP(w, r)
				return
			}
			own.ServeHTTP(w, r)
		}))
		defer srv.Close()
		rb, err := NewRemoteBackend([]string{srv.URL}, RemoteOptions{Name: fmt.Sprintf("shard-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = rb
	}
	fed := NewFederatedStore(backends...)
	router := NewRouterHandler(fed, RouterOptions{})
	requests := func() (n [3]uint64) {
		for i := range n {
			n[i] = fed.counters[i].requests.Load()
		}
		return n
	}
	point := Query{Prefix: mustPrefix("10.1.1.1/32"), Mode: PrefixLPM}
	ask := func(when string, ndjson bool, want [3]uint64) {
		t.Helper()
		before := requests()
		code, body := serveEvents(router, point, ndjson)
		if code != http.StatusOK || !bytes.Contains(body, []byte(`"10.1.1.1/32"`)) {
			t.Fatalf("%s: status %d, body %s", when, code, body)
		}
		after := requests()
		for i := range after {
			after[i] -= before[i]
		}
		if after != want {
			t.Errorf("%s: asked the shards %v times, want %v", when, after, want)
		}
	}
	for _, ndjson := range []bool{false, true} {
		if got, err := fed.Placement(); got != "plan=none (no identities read yet)" || err != nil {
			t.Fatalf("ndjson=%v: placement before any answer: %q, %v", ndjson, got, err)
		}
		ask("the first query with no plan", ndjson, [3]uint64{1, 1, 1})
		if got, err := fed.Placement(); got != "plan=prefix:8:3 placed=exact,covered,lpm" || err != nil {
			t.Fatalf("ndjson=%v: placement after one query every shard answered: %q, %v", ndjson, got, err)
		}
		ask("the second", ndjson, [3]uint64{0, 1, 0})

		// The learned plan is held to like one read from /stats: a swapped
		// store is refused, and the plan dropped again.
		swapped.Store(true)
		if code, body := serveEvents(router, point, ndjson); code != http.StatusBadGateway || !bytes.Contains(body, []byte("shard identity changed")) {
			t.Errorf("ndjson=%v: the swapped shard's answer: status %d, body %s; want 502 naming the change", ndjson, code, body)
		}
		swapped.Store(false)
	}
	// A fleet that contradicts itself is learned as that, too.
	swapped.Store(true)
	if code, _ := serveEvents(router, Query{}, true); code != http.StatusOK {
		t.Fatalf("a query over the swapped fleet: status %d", code)
	}
	if got, err := fed.Placement(); err == nil || !strings.Contains(err.Error(), "both shard 2") {
		t.Errorf("placement learned from a fleet with one store twice: %q, %v; want a contradiction", got, err)
	}
}

// flipBit returns addr with bit i (0 the most significant) inverted.
func flipBit(addr netip.Addr, i int) netip.Addr {
	b := addr.AsSlice()
	b[i/8] ^= 0x80 >> (i % 8)
	out, _ := netip.AddrFromSlice(b)
	return out
}

// nestedEvents draws n events whose prefixes nest: every prefix is cut
// from one of three addresses per family, or from a sibling one bit off
// it. A quarter are shorter than anything §3 cleaning lets the engine
// emit (v4 /1…/7, v6 /1…/15) — a library caller can append those — and
// a quarter are host routes.
func nestedEvents(rng *rand.Rand, n int) []*Event {
	var paths [2][3]netip.Addr
	for j := range paths[0] {
		var a4 [4]byte
		var a16 [16]byte
		rng.Read(a4[:])
		rng.Read(a16[:])
		paths[0][j], paths[1][j] = netip.AddrFrom4(a4), netip.AddrFrom16(a16)
	}
	base := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	events := make([]*Event, n)
	for i := range events {
		fam, short := 0, 7
		if rng.Intn(4) == 0 {
			fam, short = 1, 15
		}
		addr := paths[fam][rng.Intn(3)]
		var bits int
		switch rng.Intn(4) {
		case 0:
			bits = 1 + rng.Intn(short)
		case 1:
			bits = addr.BitLen()
		case 2:
			bits = 1 + rng.Intn(40)%addr.BitLen()
		default:
			bits = 1 + rng.Intn(addr.BitLen())
		}
		if rng.Intn(3) == 0 {
			addr = flipBit(addr, rng.Intn(bits))
		}
		end := base.Add(time.Duration(rng.Intn(72)) * time.Hour)
		events[i] = &Event{Prefix: netip.PrefixFrom(addr, bits).Masked(), Seq: uint64(i + 1), Start: end.Add(-time.Hour), End: end}
	}
	return events
}

// TestFederationPlacementProperty is the placement law as a property:
// over random nested event sets and random prefix plans, a router that
// has read its shards' identities, one that has not, and one store
// holding everything answer every prefix mode alike, in both shapes,
// under every limit — and the first asks one shard whenever the rule
// table says one shard holds the answer.
func TestFederationPlacementProperty(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		plan := PrefixShardPlan{Bit: 1 + rng.Intn(32), N: 1 + rng.Intn(4)}
		events := nestedEvents(rng, 24+rng.Intn(16))
		single, shards := shardedFleet(t, plan, events)
		backends := localFleet(shards)
		if seed%25 == 0 { // the same law over the wire
			backends, _ = remoteFleet(t, shards)
		}
		pruned, everywhere := learned(t, backends), NewFederatedStore(backends...)
		what := fmt.Sprintf("seed %d, plan %v", seed, plan)
		if got, err := pruned.Placement(); err != nil || got != "plan="+plan.String()+" placed=exact,covered,lpm" {
			t.Fatalf("%s: placement %q, %v", what, got, err)
		}
		want := NewStoreHandler(single, nil)
		prunedRouter, everywhereRouter := NewRouterHandler(pruned, RouterOptions{}), NewRouterHandler(everywhere, RouterOptions{})

		// Query prefixes: stored ones, their host addresses, ones cut
		// shorter and ones grown longer, and strangers.
		var prefixes []netip.Prefix
		for i := 0; i < 12; i++ {
			p := events[rng.Intn(len(events))].Prefix
			switch i % 4 {
			case 1:
				p = netip.PrefixFrom(p.Addr(), p.Addr().BitLen())
			case 2:
				p = netip.PrefixFrom(p.Addr(), rng.Intn(p.Bits()+1)).Masked()
			case 3:
				a := p.Addr()
				for b := p.Bits(); b < a.BitLen(); b++ {
					if rng.Intn(2) == 0 {
						a = flipBit(a, b)
					}
				}
				p = netip.PrefixFrom(a, p.Bits()+rng.Intn(a.BitLen()-p.Bits()+1)).Masked()
			}
			prefixes = append(prefixes, p)
		}
		prefixes = append(prefixes, mustPrefix("192.0.2.1/32"), mustPrefix("2001:db8::1/128"))

		for _, p := range prefixes {
			for _, mode := range []PrefixMode{PrefixExact, PrefixLPM, PrefixCovered, PrefixCovering} {
				q := Query{Prefix: p, Mode: mode, Limit: []int{0, 0, 1, 2, 5}[rng.Intn(5)]}
				sameAnswer(t, what+", asking everywhere", want, everywhereRouter, q)
				before := asked(pruned)
				sameAnswer(t, what+", identities read", want, prunedRouter, q)

				// The rule table, restated: what one shard must hold.
				one := mode == PrefixExact || mode != PrefixCovering && p.Bits() >= plan.Bit
				if one && mode == PrefixLPM {
					// ... when the answer is no shorter than the split.
					matched := single.Query(Query{Prefix: p, Mode: PrefixLPM}).Events
					one = len(matched) > 0 && matched[0].Prefix.Bits() >= plan.Bit
				}
				perAnswer := uint64(plan.N)
				if one {
					perAnswer = 1
				}
				if got := asked(pruned) - before; got != 2*perAnswer { // sameAnswer asks twice
					t.Fatalf("%s: mode %v of %s: %d shard requests for two answers, want %d each", what, mode, p, got, perAnswer)
				}
			}
		}
	}
}

// TestFederationPrunedOwnerDown: a placed query whose owner is down is
// a 502 — its events are nowhere else, and an empty 200 would say there
// are none — and the other shards are not asked. Before that, the
// counters and identities a placed query leaves in /stats and /metrics.
func TestFederationPrunedOwnerDown(t *testing.T) {
	plan := PrefixShardPlan{Bit: 8, N: 3}
	end := time.Date(2016, 5, 1, 12, 0, 0, 0, time.UTC)
	var events []*Event
	for i, p := range []string{"9.1.1.1/32", "10.1.1.1/32", "11.1.1.1/32"} { // shards 0, 1, 2
		events = append(events, &Event{Prefix: mustPrefix(p), Seq: uint64(i + 1), Start: end.Add(-time.Hour), End: end})
	}
	_, shards := shardedFleet(t, plan, events)
	backends, servers := remoteFleet(t, shards)
	fed := learned(t, backends)
	router := httptest.NewServer(NewRouterHandler(fed, RouterOptions{Telemetry: NewTelemetry()}))
	defer router.Close()

	resp, body := get(t, router.URL, "/events?prefix=10.1.1.1&mode=lpm")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"10.1.1.1/32"`)) {
		t.Fatalf("placed point query: status %d, body %s", resp.StatusCode, body)
	}
	var stats BackendStats
	getJSON(t, router.URL+"/stats", &stats)
	if stats.Identity != "" {
		t.Errorf("the router advertises identity %q; a federation has none", stats.Identity)
	}
	metrics := scrape(t, router)
	for i, row := range stats.Shards.Shards {
		wantSkipped := uint64(1)
		if i == 1 {
			wantSkipped = 0
		}
		if want := fmt.Sprintf("prefix:8:3 %d", i); row.Identity != want || row.Skipped != wantSkipped {
			t.Errorf("/stats shard %d: identity %q skipped %d, want %q and %d", i, row.Identity, row.Skipped, want, wantSkipped)
		}
		if got := metrics.get(t, fmt.Sprintf(`bh_federation_shard_skipped_total{shard="shard-%d"}`, i)); got != float64(wantSkipped) {
			t.Errorf("/metrics shard %d: skipped %v, want %d", i, got, wantSkipped)
		}
	}

	servers[1].Close()
	before := [3]uint64{fed.counters[0].requests.Load(), fed.counters[1].requests.Load(), fed.counters[2].requests.Load()}
	paths := []string{
		"/events?prefix=10.1.1.1&mode=lpm",
		"/events?prefix=10.1.1.1&mode=lpm&format=ndjson",
		"/events?prefix=10.1.1.1/32&mode=exact",
		"/events?prefix=10.0.0.0/8&mode=covered&format=ndjson",
	}
	for _, path := range paths {
		if resp, body := get(t, router.URL, path); resp.StatusCode != http.StatusBadGateway {
			t.Errorf("%s with its owner down: status %d, body %s; want 502", path, resp.StatusCode, body)
		}
	}
	if got := fed.counters[1].requests.Load() - before[1]; got != uint64(len(paths)) {
		t.Errorf("the owner was asked %d times for %d queries", got, len(paths))
	}
	if fed.counters[0].requests.Load() != before[0] || fed.counters[2].requests.Load() != before[2] {
		t.Errorf("shards that cannot hold the answer were asked: requests %d and %d, were %d and %d",
			fed.counters[0].requests.Load(), fed.counters[2].requests.Load(), before[0], before[2])
	}
	// A query placed on a live shard is untouched, and one nothing places
	// degrades as ever.
	if resp, _ := get(t, router.URL, "/events?prefix=11.1.1.1&mode=lpm"); resp.StatusCode != http.StatusOK || resp.Header.Get("X-Shards-Failed") != "" {
		t.Errorf("query placed on a live shard: status %d, X-Shards-Failed %q", resp.StatusCode, resp.Header.Get("X-Shards-Failed"))
	}
	if resp, _ := get(t, router.URL, "/events?prefix=10.1.1.1/32&mode=covering"); resp.StatusCode != http.StatusOK || resp.Header.Get("X-Shards-Failed") != "1" {
		t.Errorf("covering goes everywhere: status %d, X-Shards-Failed %q; want 200 and 1", resp.StatusCode, resp.Header.Get("X-Shards-Failed"))
	}
}

// TestFederationPlacementContradictions: what a federation makes of the
// identities its shards advertise. Only one plan, complete, is followed;
// a shard with no identity means asking everywhere, silently; identities
// that cannot all be true are an error Placement and /healthz carry.
func TestFederationPlacementContradictions(t *testing.T) {
	for _, c := range []struct {
		name       string
		identities []string // one per shard, "" for an unstamped store
		placement  string   // what Placement says
		contradict bool
	}{
		{"one prefix plan", []string{"prefix:8:3 0", "prefix:8:3 1", "prefix:8:3 2"}, "plan=prefix:8:3 placed=exact,covered,lpm", false},
		{"shards configured in another order", []string{"prefix:8:3 2", "prefix:8:3 0", "prefix:8:3 1"}, "plan=prefix:8:3 placed=exact,covered,lpm", false},
		{"a time plan places nothing", []string{"time:24h0m0s:2 0", "time:24h0m0s:2 1"}, "plan=time:24h0m0s:2 placed=none", false},
		{"one unstamped shard", []string{"prefix:8:3 0", "", "prefix:8:3 2"}, "plan=none (shard shard-1 advertises no identity)", false},
		{"no stamped shard", []string{"", ""}, "plan=none (shard shard-0 advertises no identity)", false},
		{"two plans", []string{"prefix:8:3 0", "prefix:16:3 1", "prefix:8:3 2"}, "plan=none (identities contradict)", true},
		{"a prefix and a time plan", []string{"prefix:8:2 0", "time:24h0m0s:2 1"}, "plan=none (identities contradict)", true},
		{"one index twice", []string{"prefix:8:3 0", "prefix:8:3 2", "prefix:8:3 2"}, "plan=none (identities contradict)", true},
		{"more shards than the plan has", []string{"prefix:8:2 0", "prefix:8:2 1", "prefix:8:2 1"}, "plan=none (identities contradict)", true},
		{"fewer shards than the plan has", []string{"prefix:8:4 0", "prefix:8:4 1", "prefix:8:4 3"}, "plan=none (identities contradict)", true},
		{"an index the plan does not have", []string{"prefix:8:2 0", "prefix:8:2 2"}, "plan=none (identities contradict)", true},
		{"no identity at all", []string{"prefix:8:2 0", "shard one"}, "plan=none (identities contradict)", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			stores := make([]*Store, len(c.identities))
			for i, id := range c.identities {
				st, err := OpenStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				if id != "" {
					if err := st.s.SetIdentity(id); err != nil {
						t.Fatal(err)
					}
				}
				stores[i] = st
			}
			// 10.1.1.1/32 lives where prefix:8:3 files it, whichever
			// backend that is.
			ev := stallEvent(0)
			ev.Prefix = mustPrefix("10.1.1.1/32")
			for i, id := range c.identities {
				if i == len(c.identities)-1 || id == "prefix:8:3 1" {
					if err := stores[i].Append(ev); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
			fed := NewFederatedStore(localFleet(stores)...)
			if got, err := fed.Placement(); got != "plan=none (no identities read yet)" || err != nil {
				t.Errorf("before any Stats: placement %q, %v", got, err)
			}
			ctx := context.Background()
			if _, err := fed.Stats(ctx); err != nil {
				t.Fatal(err)
			}
			got, err := fed.Placement()
			if got != c.placement || (err != nil) != c.contradict {
				t.Errorf("placement %q, error %v; want %q, an error: %v", got, err, c.placement, c.contradict)
			}
			health := fed.Healthz(ctx)
			if check, ok := health.Checks["placement"]; ok != c.contradict || c.contradict && (health.Status != "degraded" || check != err.Error()) {
				t.Errorf("healthz %+v; want a placement check: %v", health, c.contradict)
			}
			// Right or wrong about the layout, every event is still found.
			before := asked(fed)
			rs, err := fed.Records(ctx, Query{Prefix: ev.Prefix, Mode: PrefixExact})
			if err != nil || rs.Total != 1 {
				t.Errorf("exact %s: %+v, %v; want the one event", ev.Prefix, rs, err)
			}
			wantAsked := uint64(len(stores))
			if strings.HasSuffix(c.placement, "lpm") {
				wantAsked = 1
			}
			if n := asked(fed) - before; n != wantAsked {
				t.Errorf("exact %s asked %d shards, want %d", ev.Prefix, n, wantAsked)
			}
		})
	}
}

// TestStampedStoreKeepsItsSlice: SinkToShards stamps its stores, and a
// stamp is for good — it refuses a foreign event and another identity,
// and every way of carrying the directory forward carries it along:
// reopening in each mode, both compactions, replication.
func TestStampedStoreKeepsItsSlice(t *testing.T) {
	f := newFederationFixture(t)
	for name, spec := range map[string]string{"prefix-split": "prefix:8:3", "prefix:16:3": "prefix:16:3", "time-partition": "time:24h0m0s:3"} {
		for i, st := range f.shards[name] {
			if got, want := st.Stats().Identity, fmt.Sprintf("%s %d", spec, i); got != want {
				t.Errorf("%s shard %d: identity %q after SinkToShards, want %q", name, i, got, want)
			}
			if st.Len() == 0 {
				t.Errorf("fixture: %s shard %d holds no event", name, i)
			}
		}
	}
	if id := f.single.Stats().Identity; id != "" {
		t.Errorf("SinkToStore stamped its store %q", id)
	}

	plan := PrefixShardPlan{Bit: 8, N: 3}
	stores := f.shards["prefix-split"]
	st := stores[0]
	var mine, foreign *Event
	for _, ev := range f.events {
		switch {
		case plan.Shard(ev) != 0:
			foreign = ev
		default:
			mine = ev
		}
	}
	if err := st.Append(mine, foreign); err == nil || st.Len() != len(st.Events()) || st.Len() >= len(f.events) {
		t.Errorf("Append of another shard's event: %v, %d events held", err, st.Len())
	}
	if err := st.stamp(plan, 0); err != nil {
		t.Errorf("stamping the identity it has: %v", err)
	}
	for _, other := range []struct {
		plan  ShardPlan
		index int
	}{{plan, 1}, {PrefixShardPlan{Bit: 16, N: 3}, 0}, {TimeShardPlan{Width: time.Hour, N: 3}, 0}} {
		if err := st.stamp(other.plan, other.index); !errors.Is(err, store.ErrIdentity) {
			t.Errorf("re-stamp as %v %d: %v; want ErrIdentity", other.plan, other.index, err)
		}
	}
	// A run that would re-plan the fleet in place fails before it starts;
	// so does one over a store whose events the plan files elsewhere, and
	// one under a plan ParseShardPlan refuses.
	det := f.p.NewDetector()
	if err := det.SinkToShards(PrefixShardPlan{Bit: 16, N: 3}, stores)(); !errors.Is(err, store.ErrIdentity) {
		t.Errorf("SinkToShards under another plan: %v; want ErrIdentity", err)
	}
	if err := det.SinkToShards(plan, []*Store{f.single, stores[1], stores[2]})(); err == nil || f.single.Stats().Identity != "" {
		t.Errorf("SinkToShards over a store holding other shards' events: %v, stamped %q", err, f.single.Stats().Identity)
	}
	if err := det.SinkToShards(PrefixShardPlan{Bit: 0, N: 3}, stores)(); err == nil {
		t.Error("SinkToShards took a plan ParseShardPlan refuses")
	}

	// The same slice in small segments, so both compactions have
	// something to rewrite: the identity is no segment, and stays.
	dir := t.TempDir()
	st, err := OpenStoreWith(dir, StoreOptions{MaxSegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.stamp(plan, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(stores[0].Events()...); err != nil {
		t.Fatal(err)
	}
	held := st.Len()
	for _, policy := range []CompactionPolicy{{MinRun: 2}, {MergeAll: true}} {
		stats, err := st.Compact(policy)
		if err != nil || len(stats.Merged) == 0 {
			t.Fatalf("compaction %+v: %+v, %v; want segments merged", policy, stats, err)
		}
		if got := st.Stats().Identity; got != "prefix:8:3 0" {
			t.Errorf("after compaction %+v: identity %q", policy, got)
		}
	}
	// Replication ships it: the replica advertises what its source does.
	replica := filepath.Join(t.TempDir(), "replica")
	if rep, err := ReplicateStore(dir, replica); err != nil || rep.Copied[0] != "SHARD" {
		t.Fatalf("replication: %+v, %v; want the identity shipped first", rep, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{dir, replica} {
		for _, opts := range []StoreOptions{
			{},
			{Mmap: true},
			{ReadOnly: true},
			{ReadOnly: true, Mmap: true},
		} {
			re, err := OpenStoreWith(d, opts)
			if err != nil {
				t.Fatalf("reopen %s %+v: %v", d, opts, err)
			}
			if got := re.Stats().Identity; got != "prefix:8:3 0" || re.Len() != held {
				t.Errorf("reopen %s %+v: identity %q, %d events; want prefix:8:3 0 and %d", d, opts, got, re.Len(), held)
			}
			if !opts.ReadOnly {
				if err := re.Append(foreign); err == nil {
					t.Errorf("reopen %s %+v: a foreign event was appended", d, opts)
				}
				if err := re.stamp(plan, 2); !errors.Is(err, store.ErrIdentity) {
					t.Errorf("reopen %s %+v: re-stamp: %v; want ErrIdentity", d, opts, err)
				}
			}
			re.Close()
		}
	}
	// An identity file that is not one fails the open: reading it as
	// "unstamped" would let foreign events in.
	if err := os.WriteFile(filepath.Join(replica, "SHARD"), []byte("prefix:8:3 7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if re, err := OpenStoreReadOnly(replica); err == nil {
		re.Close()
		t.Error("a store stamped as shard 7 of 3 opened")
	}
}

// TestRemoteShardIdentityMismatch swaps a shard's store under a running
// router: the first answer from the wrong store fails (here the whole
// query: it was placed on that shard alone), the plan is forgotten, every
// query goes everywhere — right whatever each shard holds — and the next
// Stats reports the contradiction.
func TestRemoteShardIdentityMismatch(t *testing.T) {
	plan := PrefixShardPlan{Bit: 8, N: 3}
	var events []*Event
	for i, p := range []string{"9.1.1.1/32", "10.1.1.1/32", "11.1.1.1/32"} {
		events = append(events, stallEvent(i))
		events[i].Prefix, events[i].Seq = mustPrefix(p), uint64(i+1)
	}
	_, shards := shardedFleet(t, plan, events)
	bare, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	handlers := []http.Handler{NewStoreHandler(shards[0], nil), NewStoreHandler(shards[1], nil), NewStoreHandler(shards[2], nil), NewStoreHandler(bare, nil)}
	var serving [3]atomic.Int32 // which store each shard's address answers from
	swap := func(addr, store int32) { serving[addr].Store(store) }
	backends := make([]Backend, len(shards))
	for i := range shards {
		swap(int32(i), int32(i))
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handlers[serving[i].Load()].ServeHTTP(w, r)
		}))
		defer srv.Close()
		rb, err := NewRemoteBackend([]string{srv.URL}, RemoteOptions{Name: fmt.Sprintf("shard-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = rb
	}
	ctx := context.Background()
	fed := learned(t, backends)
	point := Query{Prefix: mustPrefix("10.1.1.1/32"), Mode: PrefixLPM}
	for _, ndjson := range []bool{false, true} {
		swap(1, 1)
		if _, err := fed.Stats(ctx); err != nil {
			t.Fatal(err)
		}
		router := NewRouterHandler(fed, RouterOptions{})
		if code, body := serveEvents(router, point, ndjson); code != http.StatusOK || !bytes.Contains(body, []byte(`"10.1.1.1/32"`)) {
			t.Fatalf("ndjson=%v: before the swap: status %d, body %s", ndjson, code, body)
		}

		swap(1, 2) // shard 1's address now answers from shard 2's store
		failures := fed.counters[1].failures.Load()
		if code, body := serveEvents(router, point, ndjson); code != http.StatusBadGateway || !bytes.Contains(body, []byte("shard identity changed")) {
			t.Errorf("ndjson=%v: the swapped shard's answer: status %d, body %s; want 502 naming the change", ndjson, code, body)
		}
		if fed.counters[1].failures.Load() != failures+1 {
			t.Errorf("ndjson=%v: the refused answer was not counted as the shard's failure", ndjson)
		}
		if got, err := fed.Placement(); got != "plan=none (no identities read yet)" || err != nil {
			t.Errorf("ndjson=%v: placement after the refused answer: %q, %v; want the plan forgotten", ndjson, got, err)
		}
		// Asked everywhere, the fleet as it now stands answers: nobody
		// holds 10.1.1.1, two shards hold 11.1.1.1.
		before := asked(fed)
		code, body := serveEvents(router, point, ndjson)
		if code != http.StatusOK || bytes.Contains(body, []byte(`"prefix"`)) || asked(fed)-before != 3 {
			t.Errorf("ndjson=%v: after the plan is forgotten: status %d, %d shards asked, body %s; want an empty 200 from all 3", ndjson, code, asked(fed)-before, body)
		}
		if _, err := fed.Stats(ctx); err != nil {
			t.Fatal(err)
		}
		if got, err := fed.Placement(); err == nil || !strings.Contains(err.Error(), "both shard 2") {
			t.Errorf("ndjson=%v: placement after re-reading the swapped fleet: %q, %v; want a contradiction", ndjson, got, err)
		}
	}

	// An unstamped store behind a stamped shard's address is a change too.
	swap(1, 1)
	swap(2, 3)
	if _, err := fed.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if got, _ := fed.Placement(); got != "plan=none (shard shard-2 advertises no identity)" {
		t.Errorf("placement over a fleet with an unstamped shard: %q", got)
	}
	swap(2, 2)
	if _, err := fed.Records(ctx, Query{}); err != nil {
		t.Errorf("a stamped store where none was advertised fails one answer of three, not the query: %v", err)
	}
	if fed.counters[2].failures.Load() == 0 {
		t.Error("a stamped store where none was advertised was not refused")
	}
}

// TestInProcessShardIdentityMismatch: the identity check is the
// federation's, not a transport's — a federation over in-process
// StoreBackends refuses a slot that now answers from a store stamped as
// another shard by the path that refuses a remote one.
func TestInProcessShardIdentityMismatch(t *testing.T) {
	plan := PrefixShardPlan{Bit: 8, N: 3}
	var events []*Event
	for i, p := range []string{"9.1.1.1/32", "10.1.1.1/32", "11.1.1.1/32"} {
		events = append(events, stallEvent(i))
		events[i].Prefix, events[i].Seq = mustPrefix(p), uint64(i+1)
	}
	_, shards := shardedFleet(t, plan, events)
	backends := make([]Backend, len(shards))
	for i, st := range shards {
		backends[i] = NewStoreBackend(st, nil).WithName(fmt.Sprintf("shard-%d", i))
	}
	fed := learned(t, backends)
	own := fed.backends[1]
	router := NewRouterHandler(fed, RouterOptions{})
	point := Query{Prefix: mustPrefix("10.1.1.1/32"), Mode: PrefixLPM}
	for _, ndjson := range []bool{false, true} {
		if code, body := serveEvents(router, point, ndjson); code != http.StatusOK || !bytes.Contains(body, []byte(`"10.1.1.1/32"`)) {
			t.Fatalf("ndjson=%v: before the swap: status %d, body %s", ndjson, code, body)
		}
		fed.backends[1] = NewStoreBackend(shards[2], nil).WithName("shard-1")
		failures := fed.counters[1].failures.Load()
		if code, body := serveEvents(router, point, ndjson); code != http.StatusBadGateway || !bytes.Contains(body, []byte("shard identity changed")) {
			t.Errorf("ndjson=%v: the swapped slot's answer: status %d, body %s; want 502 naming the change", ndjson, code, body)
		}
		if fed.counters[1].failures.Load() != failures+1 {
			t.Errorf("ndjson=%v: the refused answer was not counted as the shard's failure", ndjson)
		}
		if got, err := fed.Placement(); got != "plan=none (no identities read yet)" || err != nil {
			t.Errorf("ndjson=%v: placement after the refused answer: %q, %v; want the plan forgotten", ndjson, got, err)
		}
		fed.backends[1] = own
		if _, err := fed.Stats(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzParseShardPlan: the parser never panics, and what it accepts
// prints as a spec that parses back to the same plan and prints the
// same — so a stamp written from a plan reads back as that plan. The
// same holds one level up, for identities.
func FuzzParseShardPlan(f *testing.F) {
	for _, seed := range []string{"time:168h:3", "time:90m:1", "prefix:8:4", "prefix:32:1048576", "prefix:1:0000000002",
		"time:1h30m0.5s:07", "prefix:0:3", "prefix:33:2", "time:-1h:3", "hash:8:3", "::", "prefix:8:3 1", ""} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if id, err := parseShardIdentity(s); err == nil {
			if again, err := parseShardIdentity(id.String()); err != nil || again != id {
				t.Fatalf("identity %q prints %q, which parses as %+v, %v", s, id, again, err)
			}
		}
		plan, err := ParseShardPlan(s)
		if err != nil {
			return
		}
		if ok, err := stampable(plan); !ok || err != nil {
			t.Fatalf("ParseShardPlan(%q) = %#v, which cannot be stamped: %v, %v", s, plan, ok, err)
		}
		spec := plan.String()
		again, err := ParseShardPlan(spec)
		if err != nil || again != plan || again.String() != spec {
			t.Fatalf("ParseShardPlan(%q) = %#v prints %q, which parses as %#v, %v", s, plan, spec, again, err)
		}
		if n := plan.Shards(); n < 1 || plan.Shard(stallEvent(len(s))) >= n {
			t.Fatalf("plan %q: %d shards, event filed on %d", spec, n, plan.Shard(stallEvent(len(s))))
		}
	})
}

// TestShardPlanOutOfRange: one place decides what an out-of-range plan
// means — the parser refuses it, SinkToShards refuses it (see
// TestStampedStoreKeepsItsSlice), and Shard, which cannot fail, files
// everything on shard 0 rather than under some other plan's rule.
func TestShardPlanOutOfRange(t *testing.T) {
	evs := []*Event{stallEvent(1), stallEvent(300), stallEvent(70000)}
	for _, plan := range []ShardPlan{
		PrefixShardPlan{Bit: 0, N: 3}, PrefixShardPlan{Bit: -1, N: 3}, PrefixShardPlan{Bit: 33, N: 3},
		PrefixShardPlan{Bit: 8, N: 0}, PrefixShardPlan{Bit: 8, N: -2}, PrefixShardPlan{Bit: 8, N: 1<<20 + 1},
		TimeShardPlan{Width: 0, N: 3}, TimeShardPlan{Width: -time.Hour, N: 3}, TimeShardPlan{Width: time.Hour, N: 0},
	} {
		if _, err := ParseShardPlan(plan.String()); err == nil {
			t.Errorf("plan %#v prints %q, which parses", plan, plan)
		}
		if ok, err := stampable(plan); ok && err == nil {
			t.Errorf("plan %#v can be stamped", plan)
		}
		for _, ev := range evs {
			if got := plan.Shard(ev); got != 0 {
				t.Errorf("plan %#v files %s on shard %d, want 0", plan, ev.Prefix, got)
			}
		}
	}
	// The zero Epoch is the Unix epoch, not the year 1: consecutive
	// windows land on consecutive shards.
	plan := TimeShardPlan{Width: 24 * time.Hour, N: 3}
	first := plan.Shard(stallEvent(0))
	for day := 1; day < 6; day++ {
		ev := stallEvent(0)
		ev.End = ev.End.Add(time.Duration(day) * 24 * time.Hour)
		if got, want := plan.Shard(ev), (first+day)%3; got != want {
			t.Errorf("time plan: day %d on shard %d, want %d", day, got, want)
		}
	}
}

// misfilingPlan breaks ShardPlan's contract on purpose: it files every
// event with an odd Seq on shard N, one past the last.
type misfilingPlan struct{ n int }

func (p misfilingPlan) Shards() int    { return p.n }
func (p misfilingPlan) String() string { return "misfiling" }
func (p misfilingPlan) Shard(ev *Event) int {
	if ev.Seq%2 == 1 {
		return p.n
	}
	return 0
}

// TestSinkToShardsReportsMisfiledEvents: an event a caller's plan files
// outside [0, N) has no store to go to. The sink drops it and keeps
// draining — every other event still lands — but wait says so, naming
// the plan, the event's prefix and the index it was filed under.
func TestSinkToShardsReportsMisfiledEvents(t *testing.T) {
	p := smallPipeline(t)
	stores := make([]*Store, 2)
	for i := range stores {
		st, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		stores[i] = st
	}
	det := p.NewDetector()
	wait := det.SinkToShards(misfilingPlan{len(stores)}, stores)
	res, err := det.Run(context.Background(), p.Replay(800, 803))
	if err != nil {
		t.Fatal(err)
	}
	err = wait()
	var misfiled []string
	for _, ev := range res.Events {
		if ev.Seq%2 == 1 {
			misfiled = append(misfiled, ev.Prefix.String())
		}
	}
	if len(misfiled) == 0 || len(misfiled) == len(res.Events) {
		t.Fatalf("fixture: %d of %d events misfiled; want some, not all", len(misfiled), len(res.Events))
	}
	if err == nil {
		t.Fatalf("%d events filed on shard 2 of 2 were dropped, and wait returned nil", len(misfiled))
	}
	if msg := err.Error(); !strings.Contains(msg, "misfiling") || !strings.Contains(msg, "shard 2") ||
		!slices.ContainsFunc(misfiled, func(p string) bool { return strings.Contains(msg, p) }) {
		t.Errorf("wait() = %q; want the plan, a misfiled event's prefix and shard 2 named", msg)
	}
	if got, want := stores[0].Len()+stores[1].Len(), len(res.Events)-len(misfiled); got != want {
		t.Errorf("the stores hold %d events, want the %d the plan filed in range", got, want)
	}
}

// TestFederationPlacementConcurrent: queries are placed by whatever plan
// was last learned while Stats calls keep re-learning it; every answer
// is the single store's, and the race detector watches the hand-over.
func TestFederationPlacementConcurrent(t *testing.T) {
	plan := PrefixShardPlan{Bit: 8, N: 3}
	events := nestedEvents(rand.New(rand.NewSource(7)), 40)
	single, shards := shardedFleet(t, plan, events)
	backends, _ := remoteFleet(t, shards)
	fed := learned(t, backends)
	ctx, stop := context.WithCancel(context.Background())
	relearning := make(chan struct{})
	go func() {
		defer close(relearning)
		for ctx.Err() == nil {
			fed.Stats(ctx)
		}
	}()
	want := NewStoreBackend(single, nil)
	errs := make(chan error, 4)
	for g := 0; g < cap(errs); g++ {
		go func() {
			for i := 0; i < 60; i++ {
				ev := events[(g*17+i)%len(events)]
				q := Query{Prefix: netip.PrefixFrom(ev.Prefix.Addr(), ev.Prefix.Addr().BitLen()), Mode: PrefixLPM}
				got, err1 := fed.Records(ctx, q)
				exp, err2 := want.Records(ctx, q)
				if err := errors.Join(err1, err2); err != nil {
					errs <- err
					return
				}
				if got.Total != exp.Total || len(got.Records) != len(exp.Records) {
					errs <- fmt.Errorf("lpm %s: total %d, returned %d; want %d, %d", q.Prefix, got.Total, len(got.Records), exp.Total, len(exp.Records))
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < cap(errs); g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	stop()
	<-relearning
}

// TestRoutedPointAllocations: a routed point answer — a KiB or two, in
// either shape — is read through a recycled buffer. A stream used to
// allocate its own 64 KiB scanner buffer on every request.
func TestRoutedPointAllocations(t *testing.T) {
	plan := PrefixShardPlan{Bit: 8, N: 3}
	events := nestedEvents(rand.New(rand.NewSource(3)), 60)
	_, shards := shardedFleet(t, plan, events)
	backends, _ := remoteFleet(t, shards)
	fed := learned(t, backends)
	ctx := context.Background()
	q := Query{Prefix: netip.PrefixFrom(events[0].Prefix.Addr(), events[0].Prefix.Addr().BitLen()), Mode: PrefixLPM, Limit: 20}
	for shape, ask := range map[string]func() int{
		"set": func() int {
			rs, err := fed.Records(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			return len(rs.Records)
		},
		"stream": func() (n int) {
			rs, err := fed.RecordLines(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			for ; ; n++ {
				if _, err := rs.Next(); err != nil {
					return n
				}
			}
		},
	} {
		if n := ask(); n == 0 || n > 20 { // also warms the connection and the buffer pool
			t.Fatalf("%s: the point query returned %d records", shape, n)
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, func() { ask() })
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
		t.Logf("%s: %d bytes, %.0f allocations a point", shape, perRun, allocs)
		// Both ends of the loopback hop allocate in this process: net/http's
		// request and response, twice, are most of the 12 KiB and 170
		// allocations left. The old buffer alone was 64 KiB.
		if perRun > 40<<10 || allocs > 250 {
			t.Errorf("%s: a routed point costs %d bytes in %.0f allocations", shape, perRun, allocs)
		}
	}
}
