package bgpblackholing

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"bgpblackholing/internal/analysis"
	"bgpblackholing/internal/core"
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
		// from the view are, as bytes on the wire, the scan's.
		scan := analysis.NewFigure4Union(w.start, w.days)
		for ev := range st.s.All() {
			scan.Observe(ev)
		}
		scanned := scan.Sets()
		wantSets := appendFigure4Sets(nil, &scanned)
		sets, err := NewStoreBackend(st, nil).Figure4Sets(context.Background(), w.start, w.days)
		if err != nil {
			t.Fatal(err)
		}
		if gotSets := appendFigure4Sets(nil, sets); !bytes.Equal(gotSets, wantSets) {
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
	st, err = OpenStoreWith(dir, StoreOptions{ReadOnly: true, Mmap: true})
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
	for name, mode := range map[string]struct {
		dir  string
		opts StoreOptions
	}{
		"full":      {sidecarlessCopy(t, dir), StoreOptions{ReadOnly: true}},
		"cold":      {dir, StoreOptions{ReadOnly: true}},
		"cold+mmap": {dir, StoreOptions{ReadOnly: true, Mmap: true}},
	} {
		st, err := OpenStoreWith(mode.dir, mode.opts)
		if err != nil {
			t.Fatal(err)
		}
		if mode.dir == dir {
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

// TestFederationFigure4Bytes: /figure4 through a router — flat, and over
// two routers over the shards — is the single store's bytes, whatever the
// window: the whole span, days=, an aligned and an unaligned start=,
// every=, one with leading empty days, and one no event falls in. One of
// the four shards holds nothing. In process — the handler truncates, so
// nowhere else — an unaligned start takes every store through the scan
// instead of the view.
func TestFederationFigure4Bytes(t *testing.T) {
	p := smallPipeline(t)
	plan := PrefixShardPlan{Bit: 24, N: 4}
	var events []*Event
	for _, ev := range replay(t, p, 800, 812).Events {
		if plan.Shard(ev) != 3 {
			events = append(events, ev)
		}
	}
	single, shards := shardedFleet(t, plan, events)
	if shards[3].Len() != 0 || shards[0].Len() == 0 || shards[1].Len() == 0 || shards[2].Len() == 0 {
		t.Fatalf("fixture: shards hold %d, %d, %d, %d events; want the last alone empty", shards[0].Len(), shards[1].Len(), shards[2].Len(), shards[3].Len())
	}
	remote, _ := remoteFleet(t, shards)
	tier := func(backends ...Backend) Backend {
		srv := httptest.NewServer(NewRouterHandler(NewFederatedStore(backends...), RouterOptions{}))
		t.Cleanup(srv.Close)
		rb, err := NewRemoteBackend([]string{srv.URL}, RemoteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return rb
	}
	routers := map[string]http.Handler{
		"one tier":  NewRouterHandler(NewFederatedStore(remote...), RouterOptions{}),
		"two tiers": NewRouterHandler(NewFederatedStore(tier(remote[0], remote[1]), tier(remote[2], remote[3])), RouterOptions{}),
	}
	want := NewStoreHandler(single, nil)
	serve := func(h http.Handler, path string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK || rec.Header().Get("X-Shards-Failed") != "" {
			t.Fatalf("GET %s: status %d, X-Shards-Failed %q", path, rec.Code, rec.Header().Get("X-Shards-Failed"))
		}
		return rec.Body.String()
	}
	base := single.Stats().MinStart.UTC().Truncate(24 * time.Hour)
	at := func(t time.Time) string { return t.Format(time.RFC3339) }
	for _, path := range []string{
		"/figure4",
		"/figure4?days=3",
		"/figure4?every=7",
		"/figure4?start=" + at(base.AddDate(0, 0, 2)) + "&days=5",
		"/figure4?start=" + at(base.AddDate(0, 0, 2).Add(7*time.Hour+30*time.Minute)) + "&days=5",
		"/figure4?start=" + at(base.AddDate(0, 0, -3)) + "&every=2",
		"/figure4?start=" + at(base.AddDate(1, 0, 0)) + "&days=4",
		"/figure4?start=" + at(base.AddDate(-1, 0, 0)) + "&days=2",
	} {
		body := serve(want, path)
		if !strings.Contains(body, `"Day"`) {
			t.Fatalf("GET %s: the single store answers no series: %s", path, body)
		}
		for name, router := range routers {
			if got := serve(router, path); got != body {
				t.Errorf("GET %s through %s differs from the single store's\n got %.400s\nwant %.400s", path, name, got, body)
			}
		}
	}

	unaligned := base.AddDate(0, 0, 1).Add(7 * time.Hour)
	ctx := context.Background()
	for name, fed := range map[string]*FederatedStore{
		"stores": NewFederatedStore(localFleet(shards)...),
		"federations of stores": NewFederatedStore(
			NewFederatedStore(localFleet(shards[:2])...), NewFederatedStore(localFleet(shards[2:])...)),
	} {
		got, err := fed.Figure4(ctx, unaligned, 6)
		if err != nil || got.ShardsFailed != 0 {
			t.Fatalf("%s: Figure4 from %v: %+v, %v", name, unaligned, got, err)
		}
		if want := single.Figure4(unaligned, 6); !reflect.DeepEqual(got.Series, want) {
			t.Errorf("%s: Figure4 from %v:\n got %+v\nwant %+v", name, unaligned, got.Series, want)
		}
	}
}

// FuzzFigure4Sets holds the shape=sets reader to its writer, and the
// bitset union to per-day maps. Whatever the bytes, parseFigure4Sets
// takes them only if they are exactly what appendFigure4Sets writes for
// the sets it returns — the window and the lost-shard count of the head
// included; and what it takes, unioned with three seeded shards' sets,
// counts what the naive union of their members counts — as the seeded
// shards alone count what one scan of all their events does.
func FuzzFigure4Sets(f *testing.F) {
	start := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	const days = 4
	rng := rand.New(rand.NewSource(11))
	events := nestedEvents(rng, 48) // over the first three days of 2016
	whole := analysis.NewFigure4Union(start, days)
	var seeded []*Figure4Sets
	for i := 0; i < 3; i++ {
		p := analysis.NewFigure4Union(start, days)
		for _, ev := range events[i*16 : (i+1)*16] {
			ev.Users = core.SetOf(cmp.Compare[ASN], ASN(64500+rng.Intn(6)), ASN(64500+rng.Intn(6)))
			ev.Providers = []ProviderRef{{Kind: ProviderAS, ASN: ASN(3000 + rng.Intn(5))}, {Kind: ProviderIXP, IXPID: rng.Intn(2)}}
			p.Observe(ev)
			whole.Observe(ev)
		}
		sets := p.Sets()
		body := appendFigure4Sets(nil, &sets)
		read, err := parseFigure4Sets(string(body), start, days)
		if err != nil {
			f.Fatalf("the reader refuses what the writer wrote: %v\n%s", err, body)
		}
		if oracle, _ := json.Marshal(sets); string(body) != string(oracle)+"\n" {
			f.Fatalf("the writer's bytes are not encoding/json's:\n got %s\nwant %s", body, oracle)
		}
		seeded = append(seeded, read)
		f.Add(body)
		f.Add(body[:len(body)/2])                                                               // truncated
		f.Add(bytes.Replace(body, []byte(`"days":4`), []byte(`"days":5`), 1))                   // another window
		f.Add(bytes.Replace(body, []byte(`T00:00:00Z`), []byte(`T01:00:00Z`), 1))               // another start
		f.Add(bytes.Replace(body, []byte(`],"day_users"`), []byte(`,[]],"day_users"`), 1))      // a day too many
		f.Add(bytes.Replace(body, []byte(`"shards_failed":0`), []byte(`"shards_failed":3`), 1)) // a router that lost 3
	}
	union := analysis.NewFigure4Union(start, days)
	for _, s := range seeded {
		if err := union.Add(s); err != nil {
			f.Fatal(err)
		}
	}
	if got, want := union.Finalize(), whole.Finalize(); !reflect.DeepEqual(got, want) {
		f.Fatalf("the union of the seeded shards' sets counts %+v, one scan of their events %+v", got, want)
	}
	const window = `{"start":"2016-01-01T00:00:00Z","days":4,`
	const empty = `,"providers":[],"prefixes":[],"day_providers":[[],[],[],[]],"day_users":[[],[],[],[]],"day_prefixes":[[],[],[],[]]}` + "\n"
	for _, count := range []string{
		`"shards_failed":2147483647`,
		// counts the writer has no spelling for, or nestedFailures' bound refuses
		`"shards_failed":2147483648`, `"shards_failed":01`, `"shards_failed":-1`, `"shards_failed":+1`,
		`"shards_failed":"1"`, `"shards_failed":null`, `"shards_failed": 1`, `"shards_failed":1.0`, `"shards_failed":`, ``,
	} {
		f.Add([]byte(window + count + empty))
	}
	const head = window + `"shards_failed":0,`
	for _, rest := range []string{
		`"providers":["AS1","AS2"],"prefixes":["10.0.0.0/8"],"day_providers":[[0,1],[],[1],[]],"day_users":[[65001],[],[],[0,4294967295]],"day_prefixes":[[0],[],[],[0]]}` + "\n",
		`"providers":[],"prefixes":[],"day_providers":[[],[],[],[]],"day_users":[[],[],[],[]],"day_prefixes":[[],[],[],[]]}` + "\n",
		// an index past its table, unsorted, twice; a table unsorted, twice
		`"providers":["AS1","AS2"],"prefixes":[],"day_providers":[[0,2],[],[],[]],"day_users":[[],[],[],[]],"day_prefixes":[[],[],[],[]]}` + "\n",
		`"providers":[],"prefixes":[],"day_providers":[[],[],[],[]],"day_users":[[],[],[],[]],"day_prefixes":[[0],[],[],[]]}` + "\n",
		`"providers":["AS1","AS2"],"prefixes":[],"day_providers":[[1,0],[],[],[]],"day_users":[[],[],[],[]],"day_prefixes":[[],[],[],[]]}` + "\n",
		`"providers":["AS1","AS2"],"prefixes":[],"day_providers":[[1,1],[],[],[]],"day_users":[[],[],[],[]],"day_prefixes":[[],[],[],[]]}` + "\n",
		`"providers":["AS2","AS1"],"prefixes":[],"day_providers":[[],[],[],[]],"day_users":[[],[],[],[]],"day_prefixes":[[],[],[],[]]}` + "\n",
		`"providers":["AS1","AS1"],"prefixes":[],"day_providers":[[],[],[],[]],"day_users":[[],[],[],[]],"day_prefixes":[[],[],[],[]]}` + "\n",
		// spellings the writer has none of
		`"providers":["AS\u0031"],"prefixes":[],"day_providers":[[0],[],[],[]],"day_users":[[],[],[],[]],"day_prefixes":[[],[],[],[]]}` + "\n",
		`"providers":["caf` + "\xc3\xa9" + `"],"prefixes":[],"day_providers":[[0],[],[],[]],"day_users":[[],[],[],[]],"day_prefixes":[[],[],[],[]]}` + "\n",
		`"providers": ["AS1"],"prefixes":[],"day_providers":[[0],[],[],[]],"day_users":[[],[],[],[]],"day_prefixes":[[],[],[],[]]}` + "\n",
		`"providers":["AS1"],"prefixes":[],"day_providers":[[00],[],[],[]],"day_users":[[],[],[],[]],"day_prefixes":[[],[],[],[]]}` + "\n",
		`"providers":[],"prefixes":[],"day_providers":[[],[],[],[]],"day_users":[[4294967296],[],[],[]],"day_prefixes":[[],[],[],[]]}` + "\n",
		`"providers":[],"prefixes":[],"day_providers":[[],[],[],[]],"day_users":[[-1],[],[],[]],"day_prefixes":[[],[],[],[]]}` + "\n",
		`"providers":[],"prefixes":[],"day_providers":[[],[],[]],"day_users":[[],[],[],[]],"day_prefixes":[[],[],[],[]]}` + "\n",
		`"providers":[],"prefixes":[],"day_providers":[[],[],[],[]],"day_users":[[],[],[],[]],"day_prefixes":[[],[],[],[]]}`,
		`"providers":[],"prefixes":[],"day_providers":[[],[],[],[]],"day_users":[[],[],[],[]],"day_prefixes":[[],[],[],[]]}` + "\n\n",
		`"providers":null,"prefixes":null,"day_providers":null,"day_users":null,"day_prefixes":null}` + "\n",
	} {
		f.Add([]byte(head + rest))
	}
	f.Add([]byte(`[]`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		sets, err := parseFigure4Sets(string(body), start, days)
		if err != nil {
			if sets != nil {
				t.Fatalf("refused with %v, and returned %+v", err, sets)
			}
			return
		}
		if again := appendFigure4Sets(nil, sets); !bytes.Equal(again, body) {
			t.Fatalf("the reader took what the writer does not write:\n took %q\nwrites %q", body, again)
		}
		all := append([]*Figure4Sets{sets}, seeded...)
		union := analysis.NewFigure4Union(start, days)
		want := make([]DailyPoint, days)
		for d := range want {
			providers, users, prefixes := map[string]bool{}, map[uint32]bool{}, map[string]bool{}
			for _, s := range all {
				for _, i := range s.DayProviders[d] {
					providers[s.Providers[i]] = true
				}
				for _, u := range s.DayUsers[d] {
					users[u] = true
				}
				for _, i := range s.DayPrefixes[d] {
					prefixes[s.Prefixes[i]] = true
				}
			}
			want[d] = DailyPoint{Day: start.AddDate(0, 0, d), Providers: len(providers), Users: len(users), Prefixes: len(prefixes)}
		}
		for _, s := range all {
			if err := union.Add(s); err != nil {
				t.Fatal(err)
			}
		}
		if got := union.Finalize(); !reflect.DeepEqual(got, want) {
			t.Fatalf("the union counts %+v, the members' maps %+v", got, want)
		}
		// A federation answering as a shard: the union's own sets cross the
		// wire, with the shards it lost, and count the same.
		out := union.Sets()
		out.ShardsFailed = sets.ShardsFailed
		tier, err := parseFigure4Sets(string(appendFigure4Sets(nil, &out)), start, days)
		if err != nil {
			t.Fatalf("the union's sets do not read back: %v", err)
		}
		if tier.ShardsFailed != sets.ShardsFailed {
			t.Fatalf("the union's sets miss %d shards a tier up, %d here", tier.ShardsFailed, sets.ShardsFailed)
		}
		above := analysis.NewFigure4Union(start, days)
		if err := above.Add(tier); err != nil {
			t.Fatal(err)
		}
		if got := above.Finalize(); !reflect.DeepEqual(got, want) {
			t.Fatalf("the union's sets count %+v a tier up, %+v here", got, want)
		}
	})
}
