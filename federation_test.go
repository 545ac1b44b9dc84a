package bgpblackholing

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// federationFixture is one detector run persisted four ways at once:
// a single store holding everything, and the same events sharded under
// each of the three split plans. All sinks subscribe to the same run, so every
// store sees the same *Event pointers with the same engine-stamped
// Seq — the property the byte-identity claim rests on.
type federationFixture struct {
	p         *Pipeline
	single    *Store
	shards    map[string][]*Store // plan name -> 3 shard stores
	shardDirs map[string][]string // plan name -> the stores' directories
	events    []*Event
}

func newFederationFixture(t *testing.T) *federationFixture {
	t.Helper()
	p, err := NewPipeline(SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	openStore := func() (*Store, string) {
		dir := t.TempDir()
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st, dir
	}
	f := &federationFixture{p: p, shards: map[string][]*Store{}, shardDirs: map[string][]string{}}
	f.single, _ = openStore()
	plans := map[string]ShardPlan{
		"time-partition": TimeShardPlan{Width: 24 * time.Hour, N: 3},
		"prefix-split":   PrefixShardPlan{Bit: 8, N: 3},
		"prefix:16:3":    PrefixShardPlan{Bit: 16, N: 3},
	}
	det := p.NewDetector()
	waits := []func() error{det.SinkToStore(f.single)}
	for name, plan := range plans {
		var stores []*Store
		var dirs []string
		for i := 0; i < 3; i++ {
			st, dir := openStore()
			stores, dirs = append(stores, st), append(dirs, dir)
		}
		f.shards[name] = stores
		f.shardDirs[name] = dirs
		waits = append(waits, det.SinkToShards(plan, stores))
	}
	res, err := det.Run(context.Background(), p.Replay(800, 806))
	if err != nil {
		t.Fatal(err)
	}
	for _, wait := range waits {
		if err := wait(); err != nil {
			t.Fatal(err)
		}
	}
	if len(res.Events) < 20 {
		t.Fatalf("replay produced only %d events; fixture too thin", len(res.Events))
	}
	// Every plan but prefix-split spreads the replay: the generator hands
	// out IPv4 space under 24.0.0.0/8, so prefix-split files (almost) all
	// of it on one shard, and keeps Bit 8 for nestedFixture alone.
	for name, plan := range plans {
		counts := make([]int, 3)
		for _, ev := range res.Events {
			counts[plan.Shard(ev)]++
		}
		if name != "prefix-split" && slices.Min(counts)*4*len(counts) < len(res.Events) {
			t.Fatalf("fixture: plan %s files the replay's events %v, a shard below a quarter of the mean", name, counts)
		}
	}
	f.events = res.Events
	f.appendNested(t, plans)
	for name, stores := range f.shards {
		for i, st := range stores {
			if st.Len() == 0 {
				t.Fatalf("fixture: %s shard %d holds no event", name, i)
			}
		}
	}
	return f
}

// nestedFixture are prefixes nested three deep in both families, the
// outermost shorter than the prefix plan's split bit, so it is filed away
// from the prefixes it covers (first octets 100 and 101, 0x24 and 0x25:
// different shards of prefix:8:3), each closing a day after the last, so
// the time plan spreads them too. The replay may or may not nest
// prefixes across shards; these always are.
var nestedFixture = []string{
	"100.0.0.0/6", "101.1.1.0/24", "101.1.1.1/32",
	"2400::/6", "2500:db8::/32", "2500:db8::1/128",
}

// appendNested appends nestedFixture to the single store and to each
// plan's owning shard, as the next events of the run's lineage.
func (f *federationFixture) appendNested(t *testing.T, plans map[string]ShardPlan) {
	t.Helper()
	last := f.events[len(f.events)-1]
	for i, prefix := range nestedFixture {
		ev := &Event{
			Prefix: mustPrefix(prefix),
			Seq:    last.Seq + 1 + uint64(i),
			Start:  last.End.Add(time.Duration(i) * 24 * time.Hour),
			End:    last.End.Add(time.Duration(i)*24*time.Hour + time.Hour),
		}
		f.events = append(f.events, ev)
		if err := f.single.Append(ev); err != nil {
			t.Fatal(err)
		}
		for name, plan := range plans {
			if err := f.shards[name][plan.Shard(ev)].Append(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// queryCombos derives ≥ 12 filter/limit/enrich parameter sets from the
// fixture's actual events, so every filter has matches.
func (f *federationFixture) queryCombos(t *testing.T) []string {
	t.Helper()
	ev := f.events[len(f.events)/2]
	var user ASN
	for _, u := range ev.Users {
		user = u
		break
	}
	var prov ProviderRef
	for _, pr := range ev.Providers {
		prov = pr
		break
	}
	var comm Community
	for _, c := range ev.Communities {
		comm = c
		break
	}
	from := ev.Start.Add(-12 * time.Hour).UTC().Format(time.RFC3339)
	to := ev.End.Add(12 * time.Hour).UTC().Format(time.RFC3339)
	octet := ev.Prefix.Addr().As4()[0]
	return []string{
		"",
		"limit=1",
		"limit=7",
		"limit=1000",
		"prefix=" + ev.Prefix.String() + "&mode=exact",
		"prefix=" + ev.Prefix.Addr().String() + "&mode=lpm",
		fmt.Sprintf("prefix=%d.0.0.0/8&mode=covered", octet),
		"prefix=" + ev.Prefix.String() + "&mode=covering",
		fmt.Sprintf("origin=%d", user),
		"provider=" + prov.String(),
		"community=" + comm.String(),
		"from=" + from + "&to=" + to,
		"min_duration=10m",
		"max_duration=2h",
		"min_duration=999999h", // empty match: "events" must be [] on both sides
		fmt.Sprintf("enrich=1&limit=50&origin=%d", user),
		"enrich=1&limit=25",
		// nestedFixture: an address under all three lengths, under two,
		// under the outermost only, and the walks up and down the chain.
		"prefix=101.1.1.1&mode=lpm",
		"prefix=101.1.1.9&mode=lpm",
		"prefix=102.0.0.1&mode=lpm&limit=1",
		"prefix=101.1.1.1/32&mode=covering",
		"prefix=100.0.0.0/6&mode=covered",
		"prefix=101.1.1.0/24&mode=covered",
		"prefix=2500:db8::1&mode=lpm",
		"prefix=2500:db8::2&mode=lpm",
		"prefix=2600::1&mode=lpm",
		"prefix=2500:db8::1/128&mode=covering",
		"prefix=2400::/6&mode=covered",
	}
}

// startShardServers serves each shard store over HTTP and returns a
// router handler federating them, plus the shard servers (so tests can
// kill one).
func (f *federationFixture) startShardServers(t *testing.T, plan string) ([]*httptest.Server, http.Handler) {
	t.Helper()
	stores := f.shards[plan]
	servers := make([]*httptest.Server, len(stores))
	backends := make([]Backend, len(stores))
	for i, st := range stores {
		srv := httptest.NewServer(NewStoreHandlerWith(st, f.p, HandlerOptions{}))
		t.Cleanup(srv.Close)
		servers[i] = srv
		rb, err := NewRemoteBackend([]string{srv.URL}, RemoteOptions{
			Name:    fmt.Sprintf("shard-%d", i),
			Timeout: 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = rb
	}
	return servers, NewRouterHandler(NewFederatedStore(backends...), RouterOptions{})
}

func get(t *testing.T, base, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp, body
}

// TestFederationByteIdentical is the tentpole acceptance test: a
// 3-shard federation behind bhroute's router answers /events NDJSON
// and /figure4 byte-for-byte identically to one store holding every
// event, and /stats totals agree — under both shard plans, across the
// full filter/limit/enrich combo matrix.
func TestFederationByteIdentical(t *testing.T) {
	f := newFederationFixture(t)
	single := httptest.NewServer(NewStoreHandlerWith(f.single, f.p, HandlerOptions{}))
	defer single.Close()
	combos := f.queryCombos(t)

	for plan := range f.shards {
		t.Run(plan, func(t *testing.T) {
			_, routerHandler := f.startShardServers(t, plan)
			router := httptest.NewServer(routerHandler)
			defer router.Close()

			for _, combo := range combos {
				path := "/events?format=ndjson"
				if combo != "" {
					path += "&" + combo
				}
				sresp, sbody := get(t, single.URL, path)
				rresp, rbody := get(t, router.URL, path)
				if sresp.StatusCode != 200 || rresp.StatusCode != 200 {
					t.Fatalf("%s: status single=%d router=%d", path, sresp.StatusCode, rresp.StatusCode)
				}
				if !bytes.Equal(sbody, rbody) {
					t.Errorf("%s: NDJSON bodies diverge (single %d bytes, router %d bytes)\nfirst single line: %.200s\nfirst router line: %.200s",
						path, len(sbody), len(rbody), firstDiffLine(sbody, rbody), firstDiffLine(rbody, sbody))
					continue
				}
				if got := rresp.Header.Get("X-Shards-Failed"); got != "" {
					t.Errorf("%s: healthy federation set X-Shards-Failed=%q", path, got)
				}

				// JSON shape: totals and the record array must agree
				// (elapsed/scanned are timing- and shard-local).
				jpath := "/events"
				if combo != "" {
					jpath += "?" + combo
				}
				_, sj := get(t, single.URL, jpath)
				_, rj := get(t, router.URL, jpath)
				var se, re struct {
					Total    int             `json:"total"`
					Returned int             `json:"returned"`
					Events   json.RawMessage `json:"events"`
				}
				if err := json.Unmarshal(sj, &se); err != nil {
					t.Fatalf("%s: single decode: %v", jpath, err)
				}
				if err := json.Unmarshal(rj, &re); err != nil {
					t.Fatalf("%s: router decode: %v", jpath, err)
				}
				if se.Total != re.Total || se.Returned != re.Returned || !bytes.Equal(se.Events, re.Events) {
					t.Errorf("%s: JSON answers diverge: total %d vs %d, returned %d vs %d, events equal=%v",
						jpath, se.Total, re.Total, se.Returned, re.Returned, bytes.Equal(se.Events, re.Events))
				}
			}

			// Figure 4: full-span and explicit-window series must be
			// byte-identical (per-shard entity sets union to the same
			// distinct counts the single store computes).
			for _, path := range []string{
				"/figure4",
				"/figure4?every=2",
				"/figure4?start=" + f.events[0].Start.UTC().Format(time.RFC3339) + "&days=5",
			} {
				_, sbody := get(t, single.URL, path)
				_, rbody := get(t, router.URL, path)
				if !bytes.Equal(sbody, rbody) {
					t.Errorf("%s: figure4 bodies diverge\nsingle: %.300s\nrouter: %.300s", path, sbody, rbody)
				}
			}

			// Legitimacy histograms sum across shards.
			_, sleg := get(t, single.URL, "/legitimacy")
			_, rleg := get(t, router.URL, "/legitimacy")
			var sl, rl LegitimacySummary
			if err := json.Unmarshal(sleg, &sl); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(rleg, &rl); err != nil {
				t.Fatal(err)
			}
			sl.ElapsedUS, rl.ElapsedUS = 0, 0
			if !reflect.DeepEqual(sl, rl) {
				t.Errorf("legitimacy diverges:\nsingle %+v\nrouter %+v", sl, rl)
			}

			// Stats totals: events and the global time span always agree;
			// distinct-prefix sums are exact only when prefixes cannot
			// straddle shards (the prefix plans).
			sstats := f.single.Stats()
			_, rs := get(t, router.URL, "/stats")
			var rstats BackendStats
			if err := json.Unmarshal(rs, &rstats); err != nil {
				t.Fatal(err)
			}
			if rstats.Events != sstats.Events {
				t.Errorf("stats events: single %d router %d", sstats.Events, rstats.Events)
			}
			if !rstats.MinStart.Equal(sstats.MinStart) || !rstats.MaxEnd.Equal(sstats.MaxEnd) {
				t.Errorf("stats span: single [%v, %v] router [%v, %v]",
					sstats.MinStart, sstats.MaxEnd, rstats.MinStart, rstats.MaxEnd)
			}
			if plan != "time-partition" && rstats.Prefixes != sstats.Prefixes {
				t.Errorf("stats prefixes: single %d router %d", sstats.Prefixes, rstats.Prefixes)
			}
			if rstats.Shards == nil || rstats.Shards.Version != ShardsInfoVersion ||
				len(rstats.Shards.Shards) != 3 || rstats.Shards.Failed != 0 {
				t.Errorf("stats shards block: %+v", rstats.Shards)
			}
		})
	}
}

// envelopeLines renders a JSON /events body's "events" the way NDJSON
// carries them: each element compact on its own line.
func envelopeLines(t *testing.T, body []byte) []byte {
	t.Helper()
	var envelope struct {
		Events []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("JSON /events body: %v", err)
	}
	var lines bytes.Buffer
	for _, el := range envelope.Events {
		if err := json.Compact(&lines, el); err != nil {
			t.Fatal(err)
		}
		lines.Write(nl)
	}
	return lines.Bytes()
}

// firstDiffLine returns the first line of a at which a and b diverge.
func firstDiffLine(a, b []byte) []byte {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := range al {
		if i >= len(bl) || !bytes.Equal(al[i], bl[i]) {
			return al[i]
		}
	}
	return nil
}

// TestFederationPartialResults kills one shard and proves the router
// degrades instead of failing: 200 answers carrying an accurate
// X-Shards-Failed header, a down row in the stats shards block, and a
// 503 /healthz naming the dead shard.
func TestFederationPartialResults(t *testing.T) {
	f := newFederationFixture(t)
	servers, routerHandler := f.startShardServers(t, "prefix-split")
	router := httptest.NewServer(routerHandler)
	defer router.Close()

	// Baseline: all shards up, no degradation header.
	resp, _ := get(t, router.URL, "/events?format=ndjson")
	if resp.StatusCode != 200 || resp.Header.Get("X-Shards-Failed") != "" {
		t.Fatalf("healthy baseline: status=%d header=%q", resp.StatusCode, resp.Header.Get("X-Shards-Failed"))
	}

	servers[1].Close() // kill one shard

	resp, body := get(t, router.URL, "/events?format=ndjson")
	if resp.StatusCode != 200 {
		t.Fatalf("partial NDJSON: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Shards-Failed"); got != "1" {
		t.Fatalf("partial NDJSON: X-Shards-Failed=%q, want 1", got)
	}
	lines := bytes.Count(bytes.TrimRight(body, "\n"), []byte("\n")) + 1
	if lines >= len(f.events) || lines == 0 {
		t.Fatalf("partial NDJSON: %d lines, want a non-empty strict subset of %d", lines, len(f.events))
	}

	resp, jbody := get(t, router.URL, "/events")
	if resp.StatusCode != 200 || resp.Header.Get("X-Shards-Failed") != "1" {
		t.Fatalf("partial JSON: status=%d header=%q", resp.StatusCode, resp.Header.Get("X-Shards-Failed"))
	}
	var envelope struct {
		Total int `json:"total"`
	}
	if err := json.Unmarshal(jbody, &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Total <= 0 || envelope.Total >= len(f.events) {
		t.Fatalf("partial JSON: total %d, want a non-empty strict subset of %d", envelope.Total, len(f.events))
	}

	_, sbody := get(t, router.URL, "/stats")
	var stats BackendStats
	if err := json.Unmarshal(sbody, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Shards == nil || stats.Shards.Failed != 1 {
		t.Fatalf("stats after kill: %+v", stats.Shards)
	}
	down := 0
	for _, sh := range stats.Shards.Shards {
		if sh.Status == "down" {
			down++
			if sh.Err == "" {
				t.Error("down shard row carries no error")
			}
		}
	}
	if down != 1 {
		t.Fatalf("stats after kill: %d down rows, want 1", down)
	}

	resp, hbody := get(t, router.URL, "/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after kill: status %d, want 503", resp.StatusCode)
	}
	var health struct {
		Status string            `json:"status"`
		Checks map[string]string `json:"checks"`
	}
	if err := json.Unmarshal(hbody, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || len(health.Checks) == 0 {
		t.Fatalf("healthz after kill: %+v", health)
	}

	// Everything dead: data routes fail loudly instead of serving an
	// empty 200.
	servers[0].Close()
	servers[2].Close()
	resp, _ = get(t, router.URL, "/events")
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("all shards dead: status %d, want 502", resp.StatusCode)
	}
}

// TestFederationNestedRouterCountsLostShards: routers may front routers,
// and a shard lost below the first tier is still lost. Over HTTP and in
// process, a router whose only shard is a router missing one of its own
// must not serve that partial answer as complete, on any answer that
// carries a count: /events as JSON and NDJSON, /legitimacy, and /figure4
// counted and as sets.
func TestFederationNestedRouterCountsLostShards(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetAnnotator(fixtureAnnotator())
	for i := range 4 {
		if err := st.Append(stallEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	shard := httptest.NewServer(NewStoreHandlerWith(st, nil, HandlerOptions{}))
	defer shard.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	remote := func(name, url string) Backend {
		rb, err := NewRemoteBackend([]string{url}, RemoteOptions{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		return rb
	}
	innerFed := NewFederatedStore(remote("store", shard.URL), remote("dead", dead.URL))
	inner := httptest.NewServer(NewRouterHandler(innerFed, RouterOptions{}))
	defer inner.Close()
	outer := httptest.NewServer(NewRouterHandler(NewFederatedStore(remote("inner", inner.URL)), RouterOptions{}))
	defer outer.Close()

	for _, path := range []string{"/events", "/events?format=ndjson", "/legitimacy", "/figure4", "/figure4?shape=sets"} {
		for tier, base := range map[string]string{"inner": inner.URL, "outer": outer.URL} {
			resp, body := get(t, base, path)
			if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("10.0.3.0/24")) && path != "/legitimacy" && path != "/figure4" {
				t.Errorf("%s router %s: status %d, body %.200s", tier, path, resp.StatusCode, body)
			}
			if n, _ := strconv.Atoi(resp.Header.Get("X-Shards-Failed")); n < 1 {
				t.Errorf("%s router %s: X-Shards-Failed %q, want at least 1", tier, path, resp.Header.Get("X-Shards-Failed"))
			}
			if path == "/legitimacy" && !bytes.Contains(body, []byte(`"shards_failed": 1`)) ||
				path == "/figure4?shape=sets" && !bytes.Contains(body, []byte(`"shards_failed":1,`)) {
				t.Errorf("%s router %s: body %s counts no failed shard", tier, path, body)
			}
		}
	}

	ctx := context.Background()
	nested := NewFederatedStore(innerFed)
	if rs, err := nested.Records(ctx, Query{}); err != nil || rs.ShardsFailed < 1 || len(rs.Records) != 4 {
		t.Errorf("in process, Records: %v; want 4 records and a failed shard", err)
	} else if s, err := nested.RecordLines(ctx, Query{}); err != nil || s.ShardsFailed < 1 {
		t.Errorf("in process, RecordLines: %v; want a failed shard", err)
	} else {
		s.Close()
	}
	if sum, err := nested.LegitimacySummary(ctx, Query{}); err != nil || sum.ShardsFailed < 1 {
		t.Errorf("in process, LegitimacySummary: %+v, %v; want a failed shard", sum, err)
	}
	day := stallEvent(0).Start.Truncate(24 * time.Hour)
	if fig, err := nested.Figure4(ctx, day, 1); err != nil || fig.ShardsFailed < 1 {
		t.Errorf("in process, Figure4: %+v, %v; want a failed shard", fig, err)
	}
	if sets, err := nested.Figure4Sets(ctx, day, 1); err != nil || sets.ShardsFailed < 1 {
		t.Errorf("in process, Figure4Sets: %+v, %v; want a failed shard", sets, err)
	}
}

// TestFederationLimitPushdownProperty is the pushdown law, in process:
// for every filter combination and a range of limits, pushing Limit=k
// to each shard and re-cutting the global merge equals the single
// store's top-k. Holds because each shard's stream is an ordered
// subsequence of the global stream, so per-shard top-ks cover the
// global top-k.
func TestFederationLimitPushdownProperty(t *testing.T) {
	f := newFederationFixture(t)
	ctx := context.Background()
	singleBE := NewStoreBackend(f.single, f.p)
	for plan, stores := range f.shards {
		backends := make([]Backend, len(stores))
		for i, st := range stores {
			backends[i] = NewStoreBackend(st, f.p).WithName(fmt.Sprintf("s%d", i))
		}
		fed := NewFederatedStore(backends...)
		ev := f.events[len(f.events)/2]
		var user ASN
		for _, u := range ev.Users {
			user = u
			break
		}
		octet := ev.Prefix.Addr().As4()[0]
		queries := []Query{
			{},
			{Prefix: mustPrefix(fmt.Sprintf("%d.0.0.0/8", octet)), Mode: PrefixCovered},
			{OriginASN: user},
			{MinDuration: 10 * time.Minute},
			{From: ev.Start.Add(-24 * time.Hour), To: ev.End.Add(24 * time.Hour)},
		}
		for qi, base := range queries {
			for _, k := range []int{0, 1, 2, 3, 5, 8, 13, 50, 10000} {
				q := base
				q.Limit = k
				want, err := singleBE.Records(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := fed.Records(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if got.Total != want.Total || len(got.Records) != len(want.Records) {
					t.Fatalf("%s q%d k=%d: total %d vs %d, returned %d vs %d",
						plan, qi, k, got.Total, want.Total, len(got.Records), len(want.Records))
				}
				for i := range want.Records {
					if got.Records[i].Key != want.Records[i].Key {
						t.Fatalf("%s q%d k=%d: record %d diverges: %v vs %v",
							plan, qi, k, i, got.Records[i].Key, want.Records[i].Key)
					}
					if !bytes.Equal(got.Records[i].Line, want.Records[i].Line) {
						t.Fatalf("%s q%d k=%d: record %d line diverges:\n got %s\nwant %s",
							plan, qi, k, i, got.Records[i].Line, want.Records[i].Line)
					}
				}
			}
		}
	}
}

// TestFederationStatsVersionTag is the compatibility regression: the
// router's /stats still decodes into the plain StoreStats shape older
// clients use (flat keys untouched by the shards block), /healthz
// keeps its historical {"status","events"} keys, and the shards block
// carries its version tag for forward evolution.
func TestFederationStatsVersionTag(t *testing.T) {
	f := newFederationFixture(t)
	_, routerHandler := f.startShardServers(t, "time-partition")
	router := httptest.NewServer(routerHandler)
	defer router.Close()

	// A PR-6-era decoder: plain StoreStats, no knowledge of shards.
	var old StoreStats
	_, body := get(t, router.URL, "/stats")
	if err := json.Unmarshal(body, &old); err != nil {
		t.Fatalf("old decoder rejects router stats: %v", err)
	}
	if old.Events != f.single.Len() {
		t.Fatalf("old decoder sees %d events, want %d", old.Events, f.single.Len())
	}

	// The raw JSON carries the version-tagged block alongside.
	var tagged map[string]json.RawMessage
	if err := json.Unmarshal(body, &tagged); err != nil {
		t.Fatal(err)
	}
	var shards struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(tagged["shards"], &shards); err != nil || shards.Version != ShardsInfoVersion {
		t.Fatalf("shards block version: %v (err %v), want %d", shards.Version, err, ShardsInfoVersion)
	}

	var health struct {
		Status string `json:"status"`
		Events int    `json:"events"`
	}
	_, hbody := get(t, router.URL, "/healthz")
	if err := json.Unmarshal(hbody, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Events != f.single.Len() {
		t.Fatalf("healthz shape: %+v", health)
	}
}

// TestFederationReplica proves the replica flow end to end: ship a
// live store's segments with ReplicateStore, serve the replica
// read-only, and get identical query answers; re-replication after
// more writes catches the replica up incrementally.
func TestFederationReplica(t *testing.T) {
	f := newFederationFixture(t)
	src := f.shards["prefix-split"][0]
	srcDir := f.shardDirs["prefix-split"][0]
	dstDir := t.TempDir() + "/replica"

	rep, err := ReplicateStore(srcDir, dstDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Copied) == 0 {
		t.Fatal("first pass copied nothing")
	}
	replica, err := OpenStoreReadOnly(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if replica.Len() != src.Len() {
		t.Fatalf("replica holds %d events, source %d", replica.Len(), src.Len())
	}
	wantEvents, gotEvents := src.Events(), replica.Events()
	for i := range wantEvents {
		if wantEvents[i].Seq != gotEvents[i].Seq || wantEvents[i].Prefix != gotEvents[i].Prefix {
			t.Fatalf("replica event %d diverges", i)
		}
	}

	// Second pass over an unchanged source ships nothing.
	rep2, err := ReplicateStore(srcDir, dstDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Copied) != 0 || len(rep2.Deleted) != 0 {
		t.Fatalf("steady-state pass copied %v deleted %v", rep2.Copied, rep2.Deleted)
	}
}

// TestFederationMergeOrderIsGlobalCloseOrder pins the ordering
// contract directly: the federated stream yields events in exactly the
// single store's append order (closing order), which is also strictly
// sorted by RecordKey when every event carries a Seq.
func TestFederationMergeOrderIsGlobalCloseOrder(t *testing.T) {
	f := newFederationFixture(t)
	ctx := context.Background()
	for plan, stores := range f.shards {
		backends := make([]Backend, len(stores))
		for i, st := range stores {
			backends[i] = NewStoreBackend(st, nil)
		}
		fed := NewFederatedStore(backends...)
		stream, err := fed.RecordLines(ctx, Query{})
		if err != nil {
			t.Fatal(err)
		}
		var keys []RecordKey
		for {
			rl, err := stream.Next()
			if err != nil {
				break
			}
			keys = append(keys, rl.Key)
		}
		stream.Close()
		if len(keys) != len(f.events) {
			t.Fatalf("%s: merged %d records, want %d", plan, len(keys), len(f.events))
		}
		if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i].Less(keys[j]) }) {
			t.Fatalf("%s: merged stream is not sorted by RecordKey", plan)
		}
		for i, ev := range f.single.Events() {
			if keys[i].Seq != ev.Seq {
				t.Fatalf("%s: position %d has seq %d, single store has %d", plan, i, keys[i].Seq, ev.Seq)
			}
		}
	}
}

func mustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// TestParseShardPlan covers the CLI plan syntax: both accepted forms,
// and every spelling the parser must refuse.
func TestParseShardPlan(t *testing.T) {
	accepted := map[string]ShardPlan{
		"time:168h:3":         TimeShardPlan{Width: 168 * time.Hour, N: 3},
		"time:90m:1":          TimeShardPlan{Width: 90 * time.Minute, N: 1},
		"time:24h:007":        TimeShardPlan{Width: 24 * time.Hour, N: 7},
		"prefix:8:4":          PrefixShardPlan{Bit: 8, N: 4},
		"prefix:32:1048576":   PrefixShardPlan{Bit: 32, N: 1 << 20},
		"prefix:1:0000000002": PrefixShardPlan{Bit: 1, N: 2},
	}
	for spec, want := range accepted {
		got, err := ParseShardPlan(spec)
		if err != nil {
			t.Errorf("ParseShardPlan(%q): %v", spec, err)
		} else if got != want {
			t.Errorf("ParseShardPlan(%q) = %#v, want %#v", spec, got, want)
		}
		// The canonical spec — what a plan prints, a store is stamped
		// with and a log shows — reads back as the plan.
		if again, err := ParseShardPlan(want.String()); err != nil || again != want {
			t.Errorf("plan %#v prints %q, which parses as %#v, %v", want, want, again, err)
		}
	}
	for _, spec := range []string{
		"", "time", "time:24h", "prefix:8", // a missing field
		"time:24h:", "prefix:8:", // empty count
		"time:24h:+3", "time:24h:-3", "prefix:+8:3", "prefix:-8:3", // signs
		"time:24h:0", "prefix:0:3", // zero
		"time:24h:1048577", "time:24h:99999999999999999999", // past the 1<<20 bound
		"prefix:33:2", // bit 33
		"time:24h:3x", "time:24h: 3", "time:24h:3:4", "time:24h:1_0", "time:24h:0x3",
		"time::3", "time:0s:3", "time:-1h:3", "time:soon:3", "prefix::3", "prefix:a:3",
		"hash:8:3", ":8:3",
	} {
		if plan, err := ParseShardPlan(spec); err == nil {
			t.Errorf("ParseShardPlan(%q) = %v, want an error", spec, plan)
		}
	}
}

// TestFederationHedgeCounter: a hedged attempt launched against a
// shard's replica shows up in the shard's hedge counter, in /stats and
// in /metrics alike; without a hedge delay the counter stays at zero.
func TestFederationHedgeCounter(t *testing.T) {
	shard := NewStoreHandler(storeFixture(t), nil)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(150 * time.Millisecond):
			shard.ServeHTTP(w, r)
		case <-r.Context().Done(): // the hedge won; the router hung up
		}
	}))
	defer slow.Close()
	fast := httptest.NewServer(shard)
	defer fast.Close()

	for _, tc := range []struct {
		name  string
		hedge time.Duration
		moved bool
	}{
		{"hedged", 10 * time.Millisecond, true},
		{"sequential", 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rb, err := NewRemoteBackend([]string{slow.URL, fast.URL}, RemoteOptions{Name: "edge-a", HedgeDelay: tc.hedge})
			if err != nil {
				t.Fatal(err)
			}
			router := httptest.NewServer(NewRouterHandler(NewFederatedStore(rb), RouterOptions{Telemetry: NewTelemetry()}))
			defer router.Close()

			var events struct {
				Total int `json:"total"`
			}
			getJSON(t, router.URL+"/events", &events)
			if events.Total != 3 {
				t.Fatalf("/events through the router: total %d, want 3", events.Total)
			}
			var stats BackendStats
			getJSON(t, router.URL+"/stats", &stats)
			if stats.Shards == nil || len(stats.Shards.Shards) != 1 {
				t.Fatalf("/stats shards block: %+v", stats.Shards)
			}
			inStats := stats.Shards.Shards[0].Hedges
			inMetrics := scrape(t, router).get(t, `bh_federation_shard_hedges_total{shard="edge-a"}`)
			if tc.moved && (inStats < 1 || inMetrics < 1) {
				t.Errorf("hedges after a hedged request: /stats %d, /metrics %v; want >= 1 in both", inStats, inMetrics)
			}
			if !tc.moved && (inStats != 0 || inMetrics != 0) {
				t.Errorf("hedges with no hedge delay: /stats %d, /metrics %v; want 0 in both", inStats, inMetrics)
			}
		})
	}

	// A 4xx is the caller's error: every replica would answer the same,
	// so the race ends there as sequential failover does.
	var replicaAsked atomic.Int32
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		replicaAsked.Add(1)
		shard.ServeHTTP(w, r)
	}))
	defer replica.Close()
	rb, err := NewRemoteBackend([]string{fast.URL, replica.URL}, RemoteOptions{HedgeDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rb.roundTrip(context.Background(), "/events", url.Values{"prefix": {"not-a-prefix"}}, nil, false)
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusBadRequest {
		t.Fatalf("a bad request through a hedged backend: %v, want the shard's 400", err)
	}
	if n, h := replicaAsked.Load(), rb.hedges.Load(); n != 0 || h != 0 {
		t.Errorf("a 400 from the primary reached the replica %d times and counted %d hedges; want 0, 0", n, h)
	}
}

// TestFederationReplicaAnswersForDeadPrimary: a shard whose primary is
// down is answered by its replica, with and without a hedge delay — a
// set, a stream, an aggregate and the health probe alike, each the bytes
// a router over the replica alone serves — and failing over is not
// hedging. A 4xx from a live primary is the caller's error, and never
// reaches the replica, for a set or a stream.
func TestFederationReplicaAnswersForDeadPrimary(t *testing.T) {
	shard := NewStoreHandler(storeFixture(t), nil)
	var replicaAsked atomic.Int32
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		replicaAsked.Add(1)
		shard.ServeHTTP(w, r)
	}))
	defer replica.Close()
	down := httptest.NewServer(nil)
	down.Close()
	route := func(urls []string, hedge time.Duration) (*RemoteBackend, string) {
		rb, err := NewRemoteBackend(urls, RemoteOptions{Name: "edge-a", HedgeDelay: hedge})
		if err != nil {
			t.Fatal(err)
		}
		router := httptest.NewServer(NewRouterHandler(NewFederatedStore(rb), RouterOptions{}))
		t.Cleanup(router.Close)
		return rb, router.URL
	}
	_, alone := route([]string{replica.URL}, 0)
	// A refused dial fails in microseconds: a hedge delay of a second
	// never fires unless the failover waits for it.
	for _, hedge := range []time.Duration{0, time.Second} {
		rb, router := route([]string{down.URL, replica.URL}, hedge)
		for _, path := range []string{"/events", "/events?format=ndjson", "/figure4?start=2015-03-01T00:00:00Z&days=3", "/healthz"} {
			wantResp, want := get(t, alone, path)
			gotResp, got := get(t, router, path)
			want, got = elapsedUS.ReplaceAll(want, []byte(`"elapsed_us": 0`)), elapsedUS.ReplaceAll(got, []byte(`"elapsed_us": 0`))
			if gotResp.StatusCode != http.StatusOK || wantResp.StatusCode != http.StatusOK || !bytes.Equal(got, want) ||
				gotResp.Header.Get(shardsFailedKey) != wantResp.Header.Get(shardsFailedKey) {
				t.Errorf("hedge %v, GET %s with the primary down: %d %s %q\nwant the replica's %d %s %q",
					hedge, path, gotResp.StatusCode, gotResp.Header.Get(shardsFailedKey), got, wantResp.StatusCode, wantResp.Header.Get(shardsFailedKey), want)
			}
		}
		if h := rb.hedges.Load(); h != 0 {
			t.Errorf("hedge %v: failing over a dead primary counted %d hedges, want 0", hedge, h)
		}
	}

	locked := httptest.NewServer(NewStoreHandlerWith(storeFixture(t), nil, HandlerOptions{AuthToken: "s3cret"}))
	defer locked.Close()
	replicaAsked.Store(0)
	for _, hedge := range []time.Duration{0, 10 * time.Millisecond} {
		rb, err := NewRemoteBackend([]string{locked.URL, replica.URL}, RemoteOptions{HedgeDelay: hedge})
		if err != nil {
			t.Fatal(err)
		}
		_, setErr := rb.Records(context.Background(), Query{})
		_, streamErr := rb.RecordLines(context.Background(), Query{})
		for shape, err := range map[string]error{"set": setErr, "stream": streamErr} {
			var re *RemoteError
			if !errors.As(err, &re) || re.Status != http.StatusUnauthorized {
				t.Errorf("hedge %v, a %s refused by the primary: %v, want its 401", hedge, shape, err)
			}
		}
	}
	if n := replicaAsked.Load(); n != 0 {
		t.Errorf("the primary's 401 reached the replica %d times, want 0", n)
	}
}

// TestRemoteHostileShard puts a misbehaving shard next to two honest
// ones: whatever it sends, in either response shape, the router answers
// 200 with the honest shards' merge, counts the shard's failure, and
// never buffers more than the record cap. A stream keeps the bad shard's
// good prefix; a JSON answer that fails is dropped whole and reported in
// X-Shards-Failed.
func TestRemoteHostileShard(t *testing.T) {
	f := newFederationFixture(t)
	ctx := context.Background()
	linesOf := func(be Backend, q Query) (lines [][]byte) {
		t.Helper()
		rs, err := be.RecordLines(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
		for {
			rl, err := rs.Next()
			if err != nil {
				return lines
			}
			lines = append(lines, bytes.Clone(rl.Line)) // Line is borrowed
		}
	}
	join := func(lines [][]byte) []byte {
		return append(bytes.Join(lines, nl), nl...)
	}
	// shard serves a fixed body as a backend, as it is: the lines of a
	// stream (format=ndjson) and of a set (format=lines), whose accounting
	// counts the records among them unless the case has its own way to
	// answer a set. An honest shard cuts its answer to the limit asked for.
	type setAnswer func(w http.ResponseWriter, body []byte, records int)
	recordsOf := func(body []byte) (lines [][]byte) {
		for _, line := range bytes.Split(body, nl) {
			if len(line) > 0 {
				lines = append(lines, line)
			}
		}
		return lines
	}
	shard := func(name string, body []byte, honest bool, set setAnswer) Backend {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body := body
			if limit, _ := strconv.Atoi(r.URL.Query().Get("limit")); honest && limit > 0 {
				if lines := bytes.SplitAfter(body, nl); limit < len(lines) {
					body = bytes.Join(lines[:limit], nil)
				}
			}
			w.Header().Set("Content-Type", "application/x-ndjson")
			switch format := r.URL.Query().Get("format"); {
			case format == "lines" && set != nil:
				set(w, body, len(recordsOf(body)))
				return
			case format == "lines":
				n := strconv.Itoa(len(recordsOf(body)))
				w.Header().Set("X-Events-Total", n)
				w.Header().Set("X-Events-Scanned", n)
				w.Header().Set("X-Events-Returned", n)
			case format != "ndjson":
				t.Errorf("the router asked shard %s for %s", name, r.URL)
			}
			w.Write(body)
		}))
		t.Cleanup(srv.Close)
		rb, err := NewRemoteBackend([]string{srv.URL}, RemoteOptions{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		return rb
	}
	// The single store's stream dealt round-robin: each third is in seq
	// order, and the three merge back to the whole.
	var thirds [3][][]byte
	for i, line := range linesOf(NewStoreBackend(f.single, nil), Query{}) {
		thirds[i%3] = append(thirds[i%3], line)
	}
	honest := []Backend{shard("honest-0", join(thirds[0]), true, nil), shard("honest-1", join(thirds[1]), true, nil)}
	bad := thirds[2]
	huge := append(append([]byte(`{"note":"`), bytes.Repeat([]byte("x"), 2<<20)...), `",`...)
	huge = append(huge, bad[0][1:]...) // a valid record, 2 MiB long

	for _, c := range []struct {
		name  string
		body  []byte
		limit int  // the limit asked for, 0 for none
		good  int  // lines of the bad shard a stream must still serve
		fail  bool // whether a stream must move the shard's failure counter
		drop  bool // whether a JSON answer must drop the shard
		set   setAnswer
	}{
		{"oversize line", append(join([][]byte{huge}), join(bad[1:])...), 0, 0, true, true, nil},
		{"garbage after ten good lines", append(join(bad[:10]), "{\"prefix\":\"10.0.0.0/8\",\"seq\":}\n"...), 0, 10, true, true, nil},
		{"body cut mid-record", append(join(bad[:10]), bad[10][:len(bad[10])/2]...), 0, 10, true, true, nil},
		{"blank keep-alive lines", bytes.ReplaceAll(join(bad), nl, []byte("\n\n\n")), 0, len(bad), false, false, nil},
		// A limited read is counted, streamed or not: a set that ignores
		// the limit it was sent could be of any size.
		{"over the asked limit", join(bad), 5, 0, true, true, nil},
		// A set's own failures: its stream is good to the last line.
		{"no accounting", join(bad), 0, len(bad), false, true, func(w http.ResponseWriter, body []byte, _ int) {
			w.Write(body)
		}},
		{"accounting that is no number", join(bad), 0, len(bad), false, true, func(w http.ResponseWriter, body []byte, n int) {
			w.Header().Set("X-Events-Total", "many")
			w.Header().Set("X-Events-Scanned", strconv.Itoa(n))
			w.Header().Set("X-Events-Returned", strconv.Itoa(n))
			w.Write(body)
		}},
		{"a failed-shard count that is no number", join(bad), 0, len(bad), false, true, func(w http.ResponseWriter, body []byte, n int) {
			for _, name := range []string{"X-Events-Total", "X-Events-Scanned", "X-Events-Returned"} {
				w.Header().Set(name, strconv.Itoa(n))
			}
			w.Header().Set("X-Shards-Failed", "some")
			w.Write(body)
		}},
		{"a record short of its accounting", join(bad), 0, len(bad), false, true, func(w http.ResponseWriter, body []byte, n int) {
			for _, name := range []string{"X-Events-Total", "X-Events-Scanned", "X-Events-Returned"} {
				w.Header().Set(name, strconv.Itoa(n+1))
			}
			w.Write(body)
		}},
		// What a shard of the release before answers format=lines with:
		// the indented envelope, which is no line of records.
		{"the old envelope", join(bad), 0, len(bad), false, true, func(w http.ResponseWriter, body []byte, n int) {
			w.Header().Set("Content-Type", "application/json")
			rs := &RecordSet{Total: n, Scanned: n}
			for _, line := range recordsOf(body) {
				rs.Records = append(rs.Records, RecordLine{Line: line})
			}
			envelope, start, _, _ := appendEnvelope(nil, setStream(rs), false, time.Now())
			w.Write(envelope[start:])
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			fed := NewFederatedStore(honest[0], honest[1], shard("hostile", c.body, false, c.set))
			router := httptest.NewServer(NewRouterHandler(fed, RouterOptions{}))
			defer router.Close()
			failures := func() (n uint64) {
				for i := range fed.counters {
					n += fed.counters[i].failures.Load()
				}
				return n
			}
			q, params := Query{Limit: c.limit}, ""
			if c.limit > 0 {
				params = "&limit=" + strconv.Itoa(c.limit)
			}
			// The same merge with the bad shard's good prefix served honestly.
			want := join(linesOf(NewFederatedStore(honest[0], honest[1], shard("prefix", join(bad[:c.good]), true, nil)), q))

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			resp, got := get(t, router.URL, "/events?format=ndjson"+params)
			runtime.ReadMemStats(&after)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, want 200", resp.StatusCode)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("router served %d bytes, want the %d of the honest merge plus %d good lines",
					len(got), len(want), c.good)
			}
			// Refusing the hostile body may cost the cap a few times over
			// (the buffer doubles up to it), not the line's size again and
			// again: the 2 MiB line used to be read whole and passed on.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*maxShardLine+4*uint64(len(want)) {
				t.Errorf("answering allocated %d bytes", grew)
			}
			if n := failures(); (n > 0) != c.fail {
				t.Errorf("stream failures counted = %d, want moved: %v", n, c.fail)
			}

			// The JSON shape: "events", compacted, are the lines of the
			// merge — without the bad shard when its answer must go.
			if c.drop {
				want = join(linesOf(NewFederatedStore(honest[0], honest[1]), q))
			}
			counted := failures()
			runtime.ReadMemStats(&before)
			resp, got = get(t, router.URL, "/events?"+params)
			runtime.ReadMemStats(&after)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("JSON: status %d, want 200", resp.StatusCode)
			}
			if lines := envelopeLines(t, got); !bytes.Equal(lines, want) {
				t.Errorf("JSON: router served %d bytes of records, want the %d of the merge (bad shard dropped: %v)",
					len(lines), len(want), c.drop)
			}
			if hdr := resp.Header.Get("X-Shards-Failed"); (hdr == "1") != c.drop || !c.drop && hdr != "" {
				t.Errorf("JSON: X-Shards-Failed = %q, want set to 1: %v", hdr, c.drop)
			}
			if moved := failures() > counted; moved != c.drop {
				t.Errorf("JSON: shard failure counted: %v, want %v", moved, c.drop)
			}
			// The indented answer is a few times its lines; the refused
			// element must not be in the sum.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*maxShardLine+16*uint64(len(got)) {
				t.Errorf("JSON: answering allocated %d bytes", grew)
			}
		})
	}

	// The answers read whole — /stats, /legitimacy and the counted
	// /figure4 — hold one JSON value within maxShardSets bytes: a string
	// that never ends, or a value with another after it, fails the shard
	// as soon as it is seen, not when the timeout ends it.
	for _, c := range []struct {
		name string
		body func(w io.Writer) error
	}{
		{"a string that never ends", func(w io.Writer) error {
			chunk := bytes.Repeat([]byte("x"), 64<<10)
			for _, err := io.WriteString(w, `{"x":"`); err == nil; _, err = w.Write(chunk) {
			}
			return nil
		}},
		{"a second value", func(w io.Writer) error {
			_, err := io.WriteString(w, "null\n{\"trailing\":true}\n")
			return err
		}},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { c.body(w) }))
		rb, err := NewRemoteBackend([]string{srv.URL}, RemoteOptions{Name: "hostile"})
		if err != nil {
			t.Fatal(err)
		}
		for route, call := range map[string]func() error{
			"/stats":      func() error { _, err := rb.Stats(ctx); return err },
			"/legitimacy": func() error { _, err := rb.LegitimacySummary(ctx, Query{}); return err },
			"/figure4":    func() error { _, err := rb.Figure4(ctx, f.events[0].Start, 3); return err },
		} {
			t.Run(c.name+" on "+route, func(t *testing.T) {
				began := time.Now()
				if err := call(); err == nil || time.Since(began) > 10*time.Second {
					t.Errorf("%v after %v; want the shard's failure, at once", err, time.Since(began))
				}
			})
		}
		srv.Close()
	}
}

// TestHostileShardCountsAreRefused: a shard whose /legitimacy or /stats
// body holds counts no backend answers is that shard's failure, one row
// per fault. Beside a down shard and an honest store, a router must
// count two shards failed: a shards_failed of -1 accepted as sent would
// cancel the down shard and serve the partial answer as complete.
func TestHostileShardCountsAreRefused(t *testing.T) {
	honest := storeFixture(t)
	honest.SetAnnotator(fixtureAnnotator())
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close()
	const hist = `"rpki":{},"community_doc":{},"reasons":{},"elapsed_us":1`
	for _, c := range []struct{ name, path, body string }{
		{"negative shards_failed", "/legitimacy", `{"total":0,"legitimacy":{},` + hist + `,"shards_failed":-1}`},
		{"negative total", "/legitimacy", `{"total":-1,"legitimacy":{"legitimate":-1},` + hist + `}`},
		{"negative verdict count", "/legitimacy", `{"total":0,"legitimacy":{"legitimate":1,"questionable":-1},` + hist + `}`},
		{"negative histogram count", "/legitimacy", `{"total":1,"legitimacy":{"legitimate":1},"rpki":{"valid":-1},"community_doc":{},"reasons":{},"elapsed_us":1}`},
		{"unknown verdict", "/legitimacy", `{"total":1,"legitimacy":{"fine":1},` + hist + `}`},
		{"verdicts short of the total", "/legitimacy", `{"total":2,"legitimacy":{"legitimate":1},` + hist + `}`},
		{"verdicts wrapping to the total", "/legitimacy",
			`{"total":0,"legitimacy":{"legitimate":9223372036854775807,"questionable":9223372036854775807,"illegitimate":2},` + hist + `}`},
		{"negative shards.failed", "/stats", `{"events":0,"shards":{"version":1,"failed":-1,"shards":[]}}`},
		{"negative events and prefixes", "/stats", `{"Events":-3,"Prefixes":-3}`},
		{"negative bytes", "/stats", `{"Events":1,"Bytes":-4096}`},
		{"negative hydrated events", "/stats", `{"HydratedEvents":-1}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			hostile := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != c.path {
					http.NotFound(w, r)
					return
				}
				w.Header().Set("Content-Type", "application/json")
				io.WriteString(w, c.body)
			}))
			defer hostile.Close()
			var shards []Backend
			for i, u := range []string{down.URL, hostile.URL} {
				rb, err := NewRemoteBackend([]string{u}, RemoteOptions{Name: fmt.Sprint("shard-", i)})
				if err != nil {
					t.Fatal(err)
				}
				shards = append(shards, rb)
			}
			router := httptest.NewServer(NewRouterHandler(NewFederatedStore(append(shards, NewStoreBackend(honest, nil))...), RouterOptions{}))
			defer router.Close()
			resp, err := http.Get(router.URL + c.path)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var answer struct {
				Total        int `json:"total"`
				ShardsFailed int `json:"shards_failed"`
				Shards       struct {
					Failed int `json:"failed"`
				} `json:"shards"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&answer); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, %v", resp.StatusCode, err)
			}
			if c.path == "/stats" {
				if answer.Shards.Failed != 2 {
					t.Errorf("shards.failed = %d, want 2", answer.Shards.Failed)
				}
				return
			}
			if h := resp.Header.Get(shardsFailedKey); answer.ShardsFailed != 2 || h != "2" || answer.Total != 3 {
				t.Errorf("shards_failed = %d, %s %q, total %d; want 2, 2 and the honest store's 3", answer.ShardsFailed, shardsFailedKey, h, answer.Total)
			}
		})
	}
}

// TestRemoteCountedReadIsBounded: a counted read holds at most
// maxShardSets bytes of a shard's body. A shard answering 65 valid
// records of just under 1 MiB each — no more than the limit asked for,
// each line under maxShardLine — fails whole, and a router counts it in
// X-Shards-Failed while it serves the other shard's answer.
func TestRemoteCountedReadIsBounded(t *testing.T) {
	const n = 65
	line := []byte(`{"prefix":"10.0.0.0/8","start":"2016-01-01T00:00:00Z","end":"2016-01-01T01:00:00Z","seq":1,"note":"`)
	line = append(append(line, bytes.Repeat([]byte("x"), maxShardLine-len(line)-16)...), "\"}\n"...)
	shard := func(records int) *RemoteBackend {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			for _, name := range []string{eventsTotalHeader, eventsScannedHeader, eventsReturnedHeader} {
				w.Header().Set(name, strconv.Itoa(records))
			}
			for range records {
				if _, err := w.Write(line); err != nil {
					return
				}
			}
		}))
		t.Cleanup(srv.Close)
		rb, err := NewRemoteBackend([]string{srv.URL}, RemoteOptions{Name: fmt.Sprintf("%d-records", records)})
		if err != nil {
			t.Fatal(err)
		}
		return rb
	}
	huge := shard(n)
	if rs, err := huge.RecordLines(context.Background(), Query{Limit: n}); err == nil {
		rs.Close()
		t.Fatalf("a counted read took a %d-byte body whole", n*len(line))
	} else if !strings.Contains(err.Error(), fmt.Sprintf("over %d bytes", maxShardSets)) {
		t.Fatalf("the counted read failed with %v, want the byte bound", err)
	}

	router := httptest.NewServer(NewRouterHandler(NewFederatedStore(shard(0), huge), RouterOptions{}))
	defer router.Close()
	resp, err := http.Get(router.URL + "/events?format=lines&limit=" + strconv.Itoa(n))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Shards-Failed") != "1" {
		t.Fatalf("router answered %d with X-Shards-Failed=%q, want 200 and 1", resp.StatusCode, resp.Header.Get("X-Shards-Failed"))
	}
}

// TestFederationOneShardIsIdentity: a router in front of one shard
// changes nothing, in either shape, even when the shard's append order
// is not its key order — a store two detector lineages wrote one after
// the other (Seq restarts at 1) and that also holds seq-less events. The
// router used to re-sort such a shard's JSON answer and pass its NDJSON
// through.
func TestFederationOneShardIsIdentity(t *testing.T) {
	p := smallPipeline(t)
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, days := range [][2]int{{800, 803}, {803, 806}} {
		det := p.NewDetector()
		wait := det.SinkToStore(st)
		if _, err := det.Run(context.Background(), p.Replay(days[0], days[1])); err != nil {
			t.Fatal(err)
		}
		if err := wait(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := st.Append(stallEvent(i)); err != nil { // hand-built: Seq 0
			t.Fatal(err)
		}
	}
	events := st.Events()
	ascending := sort.SliceIsSorted(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })
	if ascending || events[len(events)-1].Seq != 0 {
		t.Fatalf("fixture: %d events with ascending seq: %v; want a restarted lineage and a seq-less tail", len(events), ascending)
	}

	shard := httptest.NewServer(NewStoreHandler(st, p))
	defer shard.Close()
	remote, err := NewRemoteBackend([]string{shard.URL}, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, be := range map[string]Backend{"in-process": NewStoreBackend(st, p), "remote": remote} {
		router := httptest.NewServer(NewRouterHandler(NewFederatedStore(be), RouterOptions{}))
		defer router.Close()
		for _, params := range []string{"", "limit=5", "enrich=1&limit=40", "prefix=10.0.0.0/8&mode=covered"} {
			_, want := get(t, shard.URL, "/events?format=ndjson&"+params)
			_, got := get(t, router.URL, "/events?format=ndjson&"+params)
			if !bytes.Equal(got, want) {
				t.Errorf("%s ?%s: NDJSON through the router differs at line %q", name, params, firstDiffLine(got, want))
			}
			_, wantJSON := get(t, shard.URL, "/events?"+params)
			_, gotJSON := get(t, router.URL, "/events?"+params)
			if maskElapsed(string(gotJSON)) != maskElapsed(string(wantJSON)) {
				t.Errorf("%s ?%s: JSON through the router differs:\n%s\n---\n%s", name, params, gotJSON, wantJSON)
			}
			// One record, one encoding: the JSON elements are the lines.
			if !bytes.Equal(envelopeLines(t, gotJSON), want) {
				t.Errorf("%s ?%s: the JSON elements, compacted, are not the NDJSON lines", name, params)
			}
		}
	}
}

// TestFederationRecordsCancelled: every call that walks a store honours
// its context as the Backend contract says — a cancelled call returns
// ctx.Err() — whether it materializes, streams, scans for Figure 4 or
// sums through the annotator, on a store and on a federation over it,
// and the store-only Figure 8 and Tables 3–4 on the store. The same
// calls under a live context answer.
func TestFederationRecordsCancelled(t *testing.T) {
	st := storeFixture(t)
	st.SetAnnotator(fixtureAnnotator())
	be := NewStoreBackend(st, nil)
	unaligned := time.Date(2015, 3, 1, 6, 0, 0, 0, time.UTC) // no per-day view answers it: a scan
	calls := []struct {
		name string
		call func(context.Context, Backend) error
	}{
		{"Records", func(ctx context.Context, b Backend) error { _, err := collectRecords(ctx, b, Query{}); return err }},
		{"RecordLines", func(ctx context.Context, b Backend) error {
			rs, err := b.RecordLines(ctx, Query{})
			if err != nil {
				return err
			}
			defer rs.Close()
			_, err = rs.Next()
			return err
		}},
		{"Figure4", func(ctx context.Context, b Backend) error { _, err := b.Figure4(ctx, unaligned, 5); return err }},
		{"Figure4Sets", func(ctx context.Context, b Backend) error { _, err := b.Figure4Sets(ctx, unaligned, 5); return err }},
		{"LegitimacySummary", func(ctx context.Context, b Backend) error { _, err := b.LegitimacySummary(ctx, Query{}); return err }},
	}
	backends := []struct {
		name string
		b    Backend
	}{{"StoreBackend", be}, {"FederatedStore", NewFederatedStore(be)}}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range calls {
		for _, b := range backends {
			if err := c.call(cancelled, b.b); !errors.Is(err, context.Canceled) {
				t.Errorf("%s.%s under a cancelled context: %v; want context.Canceled", b.name, c.name, err)
			}
			if err := c.call(context.Background(), b.b); err != nil {
				t.Errorf("%s.%s: %v", b.name, c.name, err)
			}
		}
	}
	if rs, err := be.Records(context.Background(), Query{}); err != nil || len(rs.Records) != 3 {
		t.Errorf("StoreBackend.Records: %v, %v; want the fixture's 3 records", rs, err)
	}

	p := smallPipeline(t)
	storeOnly := []struct {
		name string
		call func(context.Context) error
	}{
		{"Store.Figure8", func(ctx context.Context) error { _, _, err := st.Figure8(ctx, DefaultGroupTimeout); return err }},
		{"Pipeline.Table3FromStore", func(ctx context.Context) error { _, err := p.Table3FromStore(ctx, st); return err }},
		{"Pipeline.Table4FromStore", func(ctx context.Context) error { _, err := p.Table4FromStore(ctx, st); return err }},
	}
	for _, c := range storeOnly {
		if err := c.call(cancelled); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context: %v; want context.Canceled", c.name, err)
		}
		if err := c.call(context.Background()); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}
