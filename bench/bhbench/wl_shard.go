package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/netip"
	"net/url"
	"sort"
	"strconv"
	"time"

	bh "bgpblackholing"
)

// One cold-opened, memory-mapped bhserve answering hot, tiny point
// queries from one closed-loop client: 70 % longest-prefix match,
// 20 % exact, 10 % guaranteed misses, keys Zipf(1.1) over the distinct
// event addresses. HTTP parse, the projection memo and JSON encoding
// dominate; the index is a rounding error; federation is bypassed.
const (
	queryWarm     = time.Second
	pointLimit    = 20
	zipfS         = 1.1
	verifySample  = 100
	shardSliceOps = 2000    // about 0.2 s of requests to a slice
	shardRequests = 1 << 17 // pre-generated; the loop wraps around
)

// popularityOrder puts the key space in the order Zipf ranks name: a
// shuffle drawn from the fixture's seed, so that popularity does not
// follow address order and the same addresses are hot whatever the
// traffic seed. (Were the hot set the seed's choice, the answers'
// mean size, and with it the work per request, would move with the
// seed: 1.7–2.5 kB across eight seeds.)
func popularityOrder(fixture int64, addrs []netip.Addr) []netip.Addr {
	out := append([]netip.Addr(nil), addrs...)
	rand.New(rand.NewSource(fixture)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// pointRequests pre-generates a request sequence over addrs: Zipf
// ranks when zipf is set (addrs[0] the most popular), uniform keys
// otherwise.
func pointRequests(seed int64, events []*bh.Event, addrs []netip.Addr, n int, zipf bool) []request {
	r := rand.New(rand.NewSource(seed))
	var keys []int
	if zipf {
		keys = zipfKeys(seed+1, zipfS, len(addrs), n)
	}
	classes := newMix(seed+2, []string{"lpm", "exact", "miss"}, []float64{70, 20, 10})
	out := make([]request, n)
	for i := range out {
		k := r.Intn(len(addrs))
		if zipf {
			k = keys[i]
		}
		switch class := classes.next(); class {
		case "lpm":
			out[i] = request{class, pointPath(addrs[k].String(), "lpm")}
		case "exact":
			// An address can carry several prefix lengths; ask for one an
			// event really has.
			ev := events[r.Intn(len(events))]
			out[i] = request{class, pointPath(ev.Prefix.String(), "exact")}
		default:
			// Class E space is never announced, so nothing covers it.
			miss := netip.AddrFrom4([4]byte{240, byte(r.Intn(256)), byte(r.Intn(256)), byte(1 + r.Intn(254))})
			out[i] = request{class, pointPath(miss.String(), "lpm")}
		}
	}
	return out
}

func pointPath(prefix, mode string) string {
	return "/events?limit=" + strconv.Itoa(pointLimit) + "&mode=" + mode + "&prefix=" + url.QueryEscape(prefix)
}

// pointTotal is the reference answer for a point query, by brute force
// over the corpus: how many events the store should report.
func pointTotal(events []*bh.Event, prefix, mode string) (int, error) {
	if mode == "exact" {
		want, err := netip.ParsePrefix(prefix)
		if err != nil {
			return 0, err
		}
		n := 0
		for _, ev := range events {
			if ev.Prefix == want {
				n++
			}
		}
		return n, nil
	}
	addr, err := netip.ParseAddr(prefix)
	if err != nil {
		return 0, err
	}
	best := -1
	for _, ev := range events {
		if ev.Prefix.Contains(addr) && ev.Prefix.Bits() > best {
			best = ev.Prefix.Bits()
		}
	}
	if best < 0 {
		return 0, nil
	}
	match, _ := addr.Prefix(best)
	n := 0
	for _, ev := range events {
		if ev.Prefix == match {
			n++
		}
	}
	return n, nil
}

// verifyPoints re-asks a seeded sample of the timed phase's point
// requests, outside the timed phase, and checks each answer against
// the brute-force reference and against the digest the timed phase
// saw for the same request.
func verifyPoints(ctx context.Context, out *outcome, base string, events []*bh.Event, seen map[string]uint64, seed int64) {
	var paths []string
	for p := range seen {
		if u, err := url.Parse(p); err == nil && u.Path == "/events" && u.Query().Get("limit") == strconv.Itoa(pointLimit) {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	rand.New(rand.NewSource(seed)).Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
	if len(paths) > verifySample {
		paths = paths[:verifySample]
	}
	for _, p := range paths {
		status, body, err := httpGet(ctx, http.DefaultClient, base+p)
		if err != nil || status != http.StatusOK {
			out.problemf("verify %s: status %d err %v", p, status, err)
			continue
		}
		if stableDigest(body) != seen[p] {
			out.problemf("verify %s: answer differs from the timed phase's", p)
		}
		var got struct {
			Total    int               `json:"total"`
			Returned int               `json:"returned"`
			Events   []json.RawMessage `json:"events"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			out.problemf("verify %s: %v", p, err)
			continue
		}
		u, _ := url.Parse(p)
		want, err := pointTotal(events, u.Query().Get("prefix"), u.Query().Get("mode"))
		if err != nil {
			out.problemf("verify %s: %v", p, err)
			continue
		}
		wantReturned := min(want, pointLimit)
		if got.Total != want || got.Returned != wantReturned || len(got.Events) != wantReturned {
			out.problemf("verify %s: total %d returned %d, reference says %d and %d", p, got.Total, got.Returned, want, wantReturned)
		}
	}
	if len(paths) == 0 {
		out.problemf("no point request to verify")
	}
}

// serveArgs are the flags every query-workload bhserve gets.
func serveArgs(seed int64, store string) []string {
	return []string{"-store", store, "-scale", strconv.FormatFloat(queryScale, 'g', -1, 64),
		"-seed", strconv.FormatInt(seed, 10), "-cold-open", "-mmap"}
}

func runShard(ctx context.Context, e *env) (*outcome, error) {
	out := newOutcome()
	var (
		corp *corpus
		srv  *server
	)
	setupS, teardown, err := e.repeatSetup(ctx, "shard", func(ctx context.Context, dir string) (func(), error) {
		var err error
		if corp, err = buildStores(ctx, e.fixture, dir, false); err != nil {
			return nil, err
		}
		if srv, err = e.startServe(ctx, serveArgs(e.fixture, corp.single)...); err != nil {
			return nil, err
		}
		return srv.stop, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()

	opened, err := fetchStats(ctx, srv.httpURL)
	if err != nil {
		return nil, err
	}
	if opened.Events != len(corp.events) {
		out.problemf("bhserve opened %d events, the corpus has %d", opened.Events, len(corp.events))
	}
	if opened.OpenDecodedEvents != 0 || opened.SegmentsCold == 0 {
		out.problemf("cold open decoded %d events and left %d segments cold", opened.OpenDecodedEvents, opened.SegmentsCold)
	}

	addrs := popularityOrder(e.fixture, eventAddrs(corp.events))
	seq := pointRequests(e.seed, corp.events, addrs, shardRequests, true)
	meter := newCPUMeter(srv)
	load, err := closedLoop(ctx, srv.httpURL, e.ref,
		loop{warm: queryWarm, timed: e.timed(), sliceOps: shardSliceOps},
		meter.total, func(i int) request { return seq[i%len(seq)] })
	if err != nil {
		return nil, err
	}
	out.attempted, out.failed = load.attempted, load.failed
	out.problems = append(out.problems, load.problems...)
	verifyPoints(ctx, out, srv.httpURL, corp.events, load.digests, e.seed)
	after, err := fetchStats(ctx, srv.httpURL)
	if err != nil {
		return nil, err
	}
	srv.stop()

	out.e2e["setup_s"] = atReference(setupS, load.medianReading())
	out.e2e["op_ms"] = median(load.sliceP50s(""))
	out.e2e["throughput_per_s"] = median(load.sliceRates(nil))
	out.e2e["cpu_ms_per_op"] = median(load.sliceCPUs())
	out.e2e["peak_rss_mb"] = srv.usage().maxRSSMB
	lats := load.latencies("")
	wall, cpu := load.totals()
	out.observed(lats, load.meanBytes(""), cpu, wall, len(corp.events))

	out.row("shard_rps", out.e2e["throughput_per_s"], "1/s")
	out.row("shard_p50_us", 1000*out.e2e["op_ms"], "us")
	out.row("shard_p90_us", 1000*median(load.slicePercentiles("", 0.9)), "us")
	out.row("shard_cpu_us_per_req", 1000*out.e2e["cpu_ms_per_op"], "us")
	load.rawRows(out, "")
	out.row("serve.point_p99_us", 1000*percentile(lats, 0.99), "us")
	out.row("serve.bytes_per_point", load.meanBytes(""), "bytes")
	out.row("store.segments_hydrated", float64(after.SegmentsHydrated), "count")
	out.row("store.open_cold_decoded_events", float64(opened.OpenDecodedEvents), "count")
	out.row("shard.distinct_requests", float64(len(load.digests)), "count")
	return out, nil
}
