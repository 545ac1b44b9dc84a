package bgpblackholing

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bgpblackholing/internal/analysis"
	"bgpblackholing/internal/core"
	"bgpblackholing/internal/store"
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
		want := analysis.Figure4(slices.Collect(st.s.All()), w.start, w.days)
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

	// Tombstone a prefix that actually has events: unindexing must keep
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

	// Tombstone a second prefix up to its last end, then append its
	// events again ending past that: the prefix drops to refcount zero on
	// every day and comes back under the id the store gave it first.
	var again *Event
	for _, ev := range res.Events {
		if ev.Prefix != victim {
			again = ev
			break
		}
	}
	var upTo time.Time
	var returning []*Event
	for _, ev := range res.Events {
		if ev.Prefix == again.Prefix {
			returning = append(returning, ev)
			if ev.End.After(upTo) {
				upTo = ev.End
			}
		}
	}
	if n, err := st.DeletePrefix(again.Prefix, upTo); err != nil || n == 0 {
		t.Fatalf("DeletePrefix(%s, %v) = %d, %v; want events erased", again.Prefix, upTo, n, err)
	}
	if q := st.Query(Query{Prefix: again.Prefix, Mode: PrefixExact}); q.Total != 0 {
		t.Fatalf("after DeletePrefix(%s): %d events live, want none", again.Prefix, q.Total)
	}
	last := res.Events[len(res.Events)-1].Seq
	for i, ev := range returning {
		back := *ev
		back.Seq, back.End = last+1+uint64(i), upTo.Add(time.Hour)
		if err := st.Append(&back); err != nil {
			t.Fatal(err)
		}
	}
	if q := st.Query(Query{Prefix: again.Prefix, Mode: PrefixExact}); q.Total != len(returning) {
		t.Fatalf("re-appended %d events of %s, %d live", len(returning), again.Prefix, q.Total)
	}
	checkFigure4MatchesScan(t, st, "re-appended")

	// Tombstone every prefix live on one day: the day leaves the view.
	day := res.Events[len(res.Events)/3].Start.UTC().Truncate(24 * time.Hour)
	live := st.Query(Query{From: day, To: day.Add(24*time.Hour - time.Nanosecond)})
	if live.Total == 0 {
		t.Fatalf("day %v: no live events", day)
	}
	for _, ev := range live.Events {
		if _, err := st.DeletePrefix(ev.Prefix, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	if counts, ok := st.s.DailyCounts(day, 1); !ok || counts[0] != (store.DayCount{}) {
		t.Fatalf("day %v after tombstoning its every prefix: %+v (ok %v), want empty", day, counts, ok)
	}
	checkFigure4MatchesScan(t, st, "day-emptied")

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
// two routers over the shards — is the single store's bytes and status,
// whatever the window: the whole span, days=, an aligned and an unaligned
// start=, every=, one with leading empty days, one no event falls in, the
// sets, and windows refused for their length or their end. It holds over
// a prefix fleet, one of whose four shards holds nothing, and over a time
// fleet, whose shards begin on different days. A window the client leaves
// open is picked by each shard from its own events, in the one round trip
// that brings its sets: the shards receive no /stats. In process — the
// handler truncates, so nowhere else — an unaligned start takes every
// store through the scan instead of the view.
func TestFederationFigure4Bytes(t *testing.T) {
	p := smallPipeline(t)
	all := replay(t, p, 800, 812).Events
	prefixPlan := PrefixShardPlan{Bit: 24, N: 4}
	var events []*Event
	for _, ev := range all {
		if prefixPlan.Shard(ev) != 3 {
			events = append(events, ev)
		}
	}
	// Every shard of a time fleet has events from the replay's first day:
	// shard i keeps those that start 2i days or more after it.
	timePlan, first := TimeShardPlan{Width: 48 * time.Hour, N: 3}, all[0].Start.UTC().Truncate(24*time.Hour)
	var late []*Event
	for _, ev := range all {
		if !ev.Start.Before(first.AddDate(0, 0, 2*timePlan.Shard(ev))) {
			late = append(late, ev)
		}
	}
	var stats atomic.Int64 // the /stats requests the shards received
	fleets := map[string]struct {
		plan   ShardPlan
		events []*Event
	}{"prefix": {prefixPlan, events}, "time": {timePlan, late}}
	single, shards := shardedFleet(t, prefixPlan, events)
	if shards[3].Len() != 0 || shards[0].Len() == 0 || shards[1].Len() == 0 || shards[2].Len() == 0 {
		t.Fatalf("fixture: shards hold %d, %d, %d, %d events; want the last alone empty", shards[0].Len(), shards[1].Len(), shards[2].Len(), shards[3].Len())
	}
	tier := func(backends ...Backend) Backend {
		srv := httptest.NewServer(NewRouterHandler(NewFederatedStore(backends...), RouterOptions{}))
		t.Cleanup(srv.Close)
		rb, err := NewRemoteBackend([]string{srv.URL}, RemoteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return rb
	}
	serve := func(h http.Handler, path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Header().Get("X-Shards-Failed") != "" {
			t.Fatalf("GET %s: X-Shards-Failed %q", path, rec.Header().Get("X-Shards-Failed"))
		}
		return rec.Code, rec.Body.String()
	}
	for fleet, f := range fleets {
		single, shards := single, shards
		if fleet != "prefix" {
			single, shards = shardedFleet(t, f.plan, f.events)
			firsts := map[time.Time]bool{}
			for _, st := range shards {
				firsts[st.Stats().MinStart.UTC().Truncate(24*time.Hour)] = true
			}
			if len(firsts) < 2 {
				t.Fatalf("%s fixture: every shard begins on the same day", fleet)
			}
		}
		remote := make([]Backend, len(shards))
		for i, st := range shards {
			h := NewStoreHandler(st, nil)
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/stats" {
					stats.Add(1)
				}
				h.ServeHTTP(w, r)
			}))
			t.Cleanup(srv.Close)
			rb, err := NewRemoteBackend([]string{srv.URL}, RemoteOptions{Name: fmt.Sprintf("shard-%d", i)})
			if err != nil {
				t.Fatal(err)
			}
			remote[i] = rb
		}
		half := len(remote) / 2
		routers := map[string]http.Handler{
			"one tier":  NewRouterHandler(NewFederatedStore(remote...), RouterOptions{}),
			"two tiers": NewRouterHandler(NewFederatedStore(tier(remote[:half]...), tier(remote[half:]...)), RouterOptions{}),
		}
		want := NewStoreHandler(single, nil)
		base, lastDay := single.Stats().MinStart.UTC().Truncate(24*time.Hour), single.Stats().MaxEnd.UTC().Truncate(24*time.Hour)
		at := func(t time.Time) string { return t.Format(time.RFC3339) }
		for _, row := range []struct {
			path   string
			status int
		}{
			{"/figure4", http.StatusOK},
			{"/figure4?days=3", http.StatusOK},
			{"/figure4?every=7", http.StatusOK},
			{"/figure4?start=" + at(base.AddDate(0, 0, 2)) + "&days=5", http.StatusOK},
			{"/figure4?start=" + at(base.AddDate(0, 0, 2).Add(7*time.Hour+30*time.Minute)) + "&days=5", http.StatusOK},
			{"/figure4?start=" + at(base.AddDate(0, 0, -3)) + "&every=2", http.StatusOK},
			{"/figure4?start=" + at(base.AddDate(0, 0, 5)), http.StatusOK},
			{"/figure4?start=" + at(lastDay.AddDate(0, 0, 1)), http.StatusOK}, // one day, the last event's the day before
			{"/figure4?start=" + at(base.AddDate(1, 0, 0)) + "&days=4", http.StatusOK},
			{"/figure4?start=" + at(base.AddDate(-1, 0, 0)) + "&days=2", http.StatusOK},
			{"/figure4?shape=sets", http.StatusOK},
			{"/figure4?shape=sets&days=4", http.StatusOK},
			{"/figure4?shape=sets&start=" + at(base.AddDate(0, 0, 3)), http.StatusOK},
			{"/figure4?days=36601", http.StatusBadRequest},
			{"/figure4?start=" + at(base.AddDate(-120, 0, 0)), http.StatusBadRequest},
			{"/figure4?start=9999-12-01T00:00:00Z&days=100", http.StatusBadRequest},
		} {
			status, body := serve(want, row.path)
			if status != row.status || status == http.StatusOK && !strings.Contains(body, `"Day"`) && !strings.Contains(body, `"start"`) {
				t.Fatalf("%s GET %s: the single store answers %d %s", fleet, row.path, status, body)
			}
			for name, router := range routers {
				if gotStatus, got := serve(router, row.path); gotStatus != status || got != body {
					t.Errorf("%s GET %s through %s differs from the single store's\n got %d %.400s\nwant %d %.400s", fleet, row.path, name, gotStatus, got, status, body)
				}
			}
		}
	}
	if n := stats.Load(); n != 0 {
		t.Errorf("the routed /figure4s sent the shards %d /stats requests, want none", n)
	}

	unaligned := single.Stats().MinStart.UTC().Truncate(24*time.Hour).AddDate(0, 0, 1).Add(7 * time.Hour)
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
		// Left to run to the last event, each store's days keep the start's hour.
		got, err = fed.Figure4(ctx, unaligned, 0)
		want, _ := NewStoreBackend(single, nil).Figure4(ctx, unaligned, 0)
		if err != nil || got.ShardsFailed != 0 || len(want.Series) < 2 || !reflect.DeepEqual(got.Series, want.Series) {
			t.Errorf("%s: Figure4 from %v to the end: %v\n got %+v\nwant %+v", name, unaligned, err, got, want)
		}
	}
}

// TestDailySeriesIsWriteJSONs: the counted series' writer writes, byte
// for byte, what writeJSON writes for the same points, and fails where it
// fails.
func TestDailySeriesIsWriteJSONs(t *testing.T) {
	day := time.Date(2016, 2, 28, 0, 0, 0, 0, time.UTC)
	for _, series := range [][]DailyPoint{
		{},
		{{Day: day, Providers: 3, Users: 1, Prefixes: 12}},
		{{Day: day}, {Day: day.AddDate(0, 0, 1), Providers: 1 << 40}, {Day: day.Add(7*time.Hour + 5), Users: -1}},
		{{Day: day.In(time.FixedZone("UTC+3", 3*3600)), Prefixes: 2}},
		{{Day: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}},
	} {
		rec := httptest.NewRecorder()
		writeJSON(rec, series)
		got, err := appendDailySeries(nil, series, 1)
		if (err != nil) != (rec.Code != http.StatusOK) || err == nil && string(got) != rec.Body.String() {
			t.Errorf("%+v: appendDailySeries wrote %q (%v), writeJSON %d %q", series, got, err, rec.Code, rec.Body)
		}
	}
}

// FuzzFigure4Sets holds the shape=sets reader to its writer, and the
// bitset union to per-day maps. Whatever the bytes, parseFigure4Sets
// takes them only if they are exactly what appendFigure4Sets writes for
// the sets it returns, as a union of their members makes them — the
// window and the lost-shard count of the head included — over the window
// asked, or, where open leaves the start (bit 0) or the days (bit 1) to
// the shard, one of whole days inside it; and
// what it takes, unioned at its day offset with three seeded shards' sets,
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
		read, err := parseFigure4Sets(body, start, days)
		if err != nil {
			f.Fatalf("the reader refuses what the writer wrote: %v\n%s", err, body)
		}
		if oracle, _ := json.Marshal(sets); string(body) != string(oracle)+"\n" {
			f.Fatalf("the writer's bytes are not encoding/json's:\n got %s\nwant %s", body, oracle)
		}
		seeded = append(seeded, read)
		for open := range uint8(4) {
			f.Add(body, open)
		}
		f.Add(body[:len(body)/2], uint8(0))                                                                                         // truncated
		f.Add(bytes.Replace(body, []byte(`"days":4`), []byte(`"days":5`), 1), uint8(0))                                             // another window
		f.Add(bytes.Replace(body, []byte(`"days":4`), []byte(`"days":5`), 1), uint8(1))                                             // longer than asked
		f.Add(bytes.Replace(body, []byte(`T00:00:00Z`), []byte(`T01:00:00Z`), 1), uint8(0))                                         // another start
		f.Add(bytes.Replace(body, []byte(`T00:00:00Z`), []byte(`T01:00:00Z`), 1), uint8(3))                                         // not a midnight
		f.Add(bytes.Replace(body, []byte(`2016-01-01`), []byte(`2015-12-31`), 1), uint8(2))                                         // before the start asked
		f.Add(bytes.Replace(body, []byte(`],"user_days"`), []byte(`,[0,0]],"user_days"`), 1), uint8(0))                             // a member too many
		f.Add(bytes.Replace(body, []byte(`"shards_failed":0`), []byte(`"shards_failed":3`), 1), uint8(0))                           // a router that lost 3
		f.Add(bytes.Replace(body, []byte(`"days":4`), []byte(`"days":2`), 1), uint8(1))                                             // a span past a shorter window
		f.Add(bytes.Replace(body, []byte(`2016-01-01T00:00:00Z","days":4`), []byte(`2016-01-02T00:00:00Z","days":9`), 1), uint8(2)) // a later, longer window
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
	const empty = `,"providers":[],"users":[],"prefixes":[],"provider_days":[],"user_days":[],"prefix_days":[]}` + "\n"
	for _, count := range []string{
		`"shards_failed":2147483647`,
		// counts the writer has no spelling for, or nestedFailures' bound refuses
		`"shards_failed":2147483648`, `"shards_failed":01`, `"shards_failed":-1`, `"shards_failed":+1`,
		`"shards_failed":"1"`, `"shards_failed":null`, `"shards_failed": 1`, `"shards_failed":1.0`, `"shards_failed":`, ``,
	} {
		f.Add([]byte(window+count+empty), uint8(0))
	}
	// A shard with no event, asked to pick a window, and the same head asked for one.
	f.Add([]byte(`{"start":"0001-01-01T00:00:00Z","days":0,"shards_failed":0`+empty), uint8(3))
	f.Add([]byte(`{"start":"0001-01-01T00:00:00Z","days":0,"shards_failed":0`+empty), uint8(0))
	f.Add([]byte(`{"start":"0001-01-01T00:00:00Z","days":1,"shards_failed":0`+empty), uint8(3))
	f.Add([]byte(`{"start":"2016-01-02T00:00:00Z","days":0,"shards_failed":0`+empty), uint8(3))
	const head = window + `"shards_failed":0`
	const none = `,"providers":[],"users":[],"prefixes":[]`
	for _, rest := range []string{
		`,"providers":["AS1","AS2"],"users":[0,65001,4294967295],"prefixes":["10.0.0.0/8"],"provider_days":[[0,0],[0,0,2,2]],"user_days":[[3,3],[0,0],[3,3]],"prefix_days":[[0,0,3,3]]}` + "\n",
		none + `,"provider_days":[],"user_days":[],"prefix_days":[]}` + "\n",
		// a list for a member the table lacks, and a member with no list
		`,"providers":["AS1","AS2"],"users":[],"prefixes":[],"provider_days":[[0,0],[1,1],[2,2]],"user_days":[],"prefix_days":[]}` + "\n",
		`,"providers":["AS1","AS2"],"users":[],"prefixes":[],"provider_days":[[0,0]],"user_days":[],"prefix_days":[]}` + "\n",
		none + `,"provider_days":[],"user_days":[],"prefix_days":[[0,0]]}` + "\n",
		// spans overlapping, touching, reversed, unsorted, twice, past the window, odd, none
		`,"providers":["AS1"],"users":[],"prefixes":[],"provider_days":[[0,2,1,3]],"user_days":[],"prefix_days":[]}` + "\n",
		`,"providers":["AS1"],"users":[],"prefixes":[],"provider_days":[[0,1,2,3]],"user_days":[],"prefix_days":[]}` + "\n",
		`,"providers":["AS1"],"users":[],"prefixes":[],"provider_days":[[2,1]],"user_days":[],"prefix_days":[]}` + "\n",
		`,"providers":["AS1"],"users":[],"prefixes":[],"provider_days":[[2,2,0,0]],"user_days":[],"prefix_days":[]}` + "\n",
		`,"providers":["AS1"],"users":[],"prefixes":[],"provider_days":[[0,0,0,0]],"user_days":[],"prefix_days":[]}` + "\n",
		`,"providers":["AS1"],"users":[],"prefixes":[],"provider_days":[[2,4]],"user_days":[],"prefix_days":[]}` + "\n",
		`,"providers":["AS1"],"users":[],"prefixes":[],"provider_days":[[4,4]],"user_days":[],"prefix_days":[]}` + "\n",
		`,"providers":["AS1"],"users":[],"prefixes":[],"provider_days":[[0,1,3]],"user_days":[],"prefix_days":[]}` + "\n",
		`,"providers":["AS1"],"users":[],"prefixes":[],"provider_days":[[0]],"user_days":[],"prefix_days":[]}` + "\n",
		`,"providers":["AS1"],"users":[],"prefixes":[],"provider_days":[[]],"user_days":[],"prefix_days":[]}` + "\n",
		// a list that opens with another byte, or follows with no comma
		`,"providers":["AS1","AS2"],"users":[],"prefixes":[],"provider_days":[[0,0],x0,0]],"user_days":[],"prefix_days":[]}` + "\n",
		`,"providers":["AS1","AS2"],"users":[],"prefixes":[],"provider_days":[[0,0][0,0]],"user_days":[],"prefix_days":[]}` + "\n",
		// a table unsorted, twice: names and users
		`,"providers":["AS2","AS1"],"users":[],"prefixes":[],"provider_days":[[0,0],[0,0]],"user_days":[],"prefix_days":[]}` + "\n",
		`,"providers":["AS1","AS1"],"users":[],"prefixes":[],"provider_days":[[0,0],[0,0]],"user_days":[],"prefix_days":[]}` + "\n",
		`,"providers":[],"users":[65002,65001],"prefixes":[],"provider_days":[],"user_days":[[0,0],[0,0]],"prefix_days":[]}` + "\n",
		`,"providers":[],"users":[65001,65001],"prefixes":[],"provider_days":[],"user_days":[[0,0],[0,0]],"prefix_days":[]}` + "\n",
		// spellings the writer has none of
		`,"providers":["AS\u0031"],"users":[],"prefixes":[],"provider_days":[[0,0]],"user_days":[],"prefix_days":[]}` + "\n",
		`,"providers":["caf` + "\xc3\xa9" + `"],"users":[],"prefixes":[],"provider_days":[[0,0]],"user_days":[],"prefix_days":[]}` + "\n",
		`,"providers": ["AS1"],"users":[],"prefixes":[],"provider_days":[[0,0]],"user_days":[],"prefix_days":[]}` + "\n",
		`,"providers":["AS1"],"users":[],"prefixes":[],"provider_days":[[00,0]],"user_days":[],"prefix_days":[]}` + "\n",
		`,"providers":["AS1"],"users":[],"prefixes":[],"provider_days":[[0, 0]],"user_days":[],"prefix_days":[]}` + "\n",
		none + `,"users":[4294967296],"provider_days":[],"user_days":[[0,0]],"prefix_days":[]}` + "\n",
		`,"providers":[],"users":[4294967296],"prefixes":[],"provider_days":[],"user_days":[[0,0]],"prefix_days":[]}` + "\n",
		`,"providers":[],"users":[-1],"prefixes":[],"provider_days":[],"user_days":[[0,0]],"prefix_days":[]}` + "\n",
		`,"providers":[],"users":[07],"prefixes":[],"provider_days":[],"user_days":[[0,0]],"prefix_days":[]}` + "\n",
		none + `,"provider_days":[],"user_days":[],"prefix_days":[]}`,
		none + `,"provider_days":[],"user_days":[],"prefix_days":[]}` + "\n\n",
		`,"providers":null,"users":null,"prefixes":null,"provider_days":null,"user_days":null,"prefix_days":null}` + "\n",
		// the spelling before spans: lists per day
		`,"providers":["AS1"],"prefixes":[],"day_providers":[[0],[],[],[]],"day_users":[[],[],[],[]],"day_prefixes":[[],[],[],[]]}` + "\n",
	} {
		f.Add([]byte(head+rest), uint8(0))
	}
	f.Add([]byte(`[]`), uint8(0))
	f.Add([]byte{}, uint8(3))

	f.Fuzz(func(t *testing.T, body []byte, open uint8) {
		askStart, askDays := start, days
		if open&1 != 0 {
			askStart = time.Time{}
		}
		if open&2 != 0 {
			askDays = 0
		}
		sets, err := parseFigure4Sets(body, askStart, askDays)
		if err != nil {
			if sets != nil {
				t.Fatalf("refused with %v, and returned %+v", err, sets)
			}
			return
		}
		if again := appendFigure4Sets(nil, sets); !bytes.Equal(again, body) {
			t.Fatalf("the reader took what the writer does not write:\n took %q\nwrites %q", body, again)
		}
		// Nor sets the union would spell otherwise: members twice, spans
		// that touch, overlap or pass the window.
		alone := analysis.NewFigure4Union(sets.Start, sets.Days)
		if err := alone.Add(sets); err != nil {
			t.Fatal(err)
		}
		made := alone.Sets()
		made.ShardsFailed = sets.ShardsFailed
		if again := appendFigure4Sets(nil, &made); !bytes.Equal(again, body) {
			t.Fatalf("the reader took sets the union spells otherwise:\n took %q\n made %q", body, again)
		}
		providers, users, prefixes := make([]map[string]bool, days), make([]map[uint32]bool, days), make([]map[string]bool, days)
		for d := range days {
			providers[d], users[d], prefixes[d] = map[string]bool{}, map[uint32]bool{}, map[string]bool{}
		}
		// Each member's spans, laid onto [start, start+days), fill the maps.
		fill := func(spans []uint32, at int, add func(d int)) {
			for j := 0; j < len(spans); j += 2 {
				for d := max(int(spans[j])+at, 0); d <= min(int(spans[j+1])+at, days-1); d++ {
					add(d)
				}
			}
		}
		all := append([]*Figure4Sets{sets}, seeded...)
		for n, s := range all {
			at := 0 // where the sets' day 0 falls
			if n == 0 && sets.Days > 0 {
				at = int((s.Start.Unix() - start.Unix()) / (24 * 60 * 60))
			}
			for i, name := range s.Providers {
				fill(s.ProviderDays[i], at, func(d int) { providers[d][name] = true })
			}
			for i, asn := range s.Users {
				fill(s.UserDays[i], at, func(d int) { users[d][asn] = true })
			}
			for i, name := range s.Prefixes {
				fill(s.PrefixDays[i], at, func(d int) { prefixes[d][name] = true })
			}
		}
		want := make([]DailyPoint, days)
		for d := range want {
			want[d] = DailyPoint{Day: start.AddDate(0, 0, d), Providers: len(providers[d]), Users: len(users[d]), Prefixes: len(prefixes[d])}
		}
		union := analysis.NewFigure4Union(start, days)
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
		tier, err := parseFigure4Sets(appendFigure4Sets(nil, &out), start, days)
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
