package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/netip"
	"net/url"
	"reflect"
	"time"
)

// Three bhserve shards behind bhroute, one closed-loop client, a
// seeded mix with uniform keys (no reuse): large streamed NDJSON
// windows, point lookups, enriched covered scans, and the mergeable
// aggregates. federate.go, remote.go, router.go and the NDJSON
// passthrough do the work; a gain for hot points that costs scans
// shows here.
//
// The mix comes in cycles of twenty requests that each hold exactly
// its shares (8 windows, 6 points, 3 covered scans, 2 figure4, 1
// legitimacy) in a seeded order, and the eight windows of a cycle
// start in the eight eighths of the corpus's time span, at seeded
// offsets. A request costs anything from 1 ms (a point) to 70 ms (a
// figure4), and the corpus is several times denser in some months
// than in others: drawn one by one, a slice's rate would say how many
// figure4s and which months it happened to get.
var fleetCycle = []struct {
	class string
	count int
}{{"window", 8}, {"point", 6}, {"covered", 3}, {"figure4", 2}, {"legitimacy", 1}}

const (
	fleetCycleOps = 20
	fleetWindow   = 30 * 24 * time.Hour
	federationLaw = 50 // requests compared between the router and the single store
	fleetCycles   = 256
	fleetSliceOps = 2 * fleetCycleOps // about 0.7 s of requests to a slice
)

// fleetRequests pre-generates the request sequence, cycles whole
// cycles long.
func fleetRequests(seed int64, c *corpus, addrs []netip.Addr, cycles int) []request {
	r := rand.New(rand.NewSource(seed))
	lo, hi := eventSpan(c.events)
	stratum := (hi.Sub(lo) - fleetWindow) / 8
	points := pointRequests(seed+2, c.events, addrs, 6*cycles, false)
	out := make([]request, 0, cycles*fleetCycleOps)
	for n := 0; n < cycles; n++ {
		cycle := make([]request, 0, fleetCycleOps)
		for _, part := range fleetCycle {
			for k := 0; k < part.count; k++ {
				switch part.class {
				case "window":
					from := lo.Add(time.Duration(k)*stratum + time.Duration(r.Int63n(int64(stratum)))).UTC().Truncate(time.Second)
					q := url.Values{"format": {"ndjson"},
						"from": {from.Format(time.RFC3339)}, "to": {from.Add(fleetWindow).Format(time.RFC3339)}}
					cycle = append(cycle, request{part.class, "/events?" + q.Encode()})
				case "point":
					cycle = append(cycle, request{part.class, points[6*n+k].path})
				case "covered":
					block, _ := addrs[r.Intn(len(addrs))].Prefix(12)
					q := url.Values{"mode": {"covered"}, "enrich": {"1"}, "limit": {"200"}, "prefix": {block.String()}}
					cycle = append(cycle, request{part.class, "/events?" + q.Encode()})
				case "figure4":
					cycle = append(cycle, request{part.class, "/figure4?days=250"})
				default:
					cycle = append(cycle, request{part.class, "/legitimacy"})
				}
			}
		}
		r.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		out = append(out, cycle...)
	}
	return out
}

// sameAnswer is the federation law for one request: the router's body
// against the single store's. NDJSON and /figure4 must match byte for
// byte; the JSON envelopes carry timings and shard-local scan counts,
// so they are compared on what they answer.
func sameAnswer(class string, single, routed []byte) bool {
	switch class {
	case "window", "figure4":
		return bytes.Equal(single, routed)
	case "legitimacy":
		var a, b map[string]any
		if json.Unmarshal(single, &a) != nil || json.Unmarshal(routed, &b) != nil {
			return false
		}
		delete(a, "elapsed_us")
		delete(b, "elapsed_us")
		return reflect.DeepEqual(a, b)
	}
	// Decoded, not raw: for an empty match bhserve writes "events": []
	// and bhroute "events": null, which every JSON client reads alike.
	type envelope struct {
		Total    int               `json:"total"`
		Returned int               `json:"returned"`
		Events   []json.RawMessage `json:"events"`
	}
	var a, b envelope
	if json.Unmarshal(single, &a) != nil || json.Unmarshal(routed, &b) != nil {
		return false
	}
	if a.Total != b.Total || a.Returned != b.Returned || len(a.Events) != len(b.Events) {
		return false
	}
	for i := range a.Events {
		if !bytes.Equal(a.Events[i], b.Events[i]) {
			return false
		}
	}
	return true
}

// checkFederationLaw compares a sample of the client sequences'
// requests between bhroute and the single-store bhserve, outside the
// timed phase.
func checkFederationLaw(ctx context.Context, out *outcome, reqs []request, single, router string) {
	byClass := map[string]int{}
	checked := 0
	for _, req := range reqs {
		// Spread the sample over the classes rather than taking the
		// mix's first fifty, which would be mostly windows.
		if checked == federationLaw {
			break
		}
		if byClass[req.class] >= federationLaw/len(fleetCycle) {
			continue
		}
		byClass[req.class]++
		checked++
		s1, b1, err1 := httpGet(ctx, http.DefaultClient, single+req.path)
		s2, b2, err2 := httpGet(ctx, http.DefaultClient, router+req.path)
		if err1 != nil || err2 != nil || s1 != http.StatusOK || s2 != http.StatusOK {
			out.problemf("federation law %s: single %d %v, router %d %v", req.path, s1, err1, s2, err2)
			continue
		}
		if !sameAnswer(req.class, b1, b2) {
			out.problemf("federation law broken for %s: single answered %d bytes, router %d", req.path, len(b1), len(b2))
		}
	}
	if checked < federationLaw {
		out.problemf("federation law: only %d requests to compare", checked)
	}
}

func runFleet(ctx context.Context, e *env) (*outcome, error) {
	out := newOutcome()
	var (
		corp   *corpus
		shards []*server
		single *server
		router *server
	)
	setupS, teardown, err := e.repeatSetup(ctx, "fleet", func(ctx context.Context, dir string) (func(), error) {
		var err error
		if corp, err = buildStores(ctx, e.fixture, dir, true); err != nil {
			return nil, err
		}
		shards = nil
		var urls []string
		for _, store := range corp.shards {
			s, err := e.startServe(ctx, serveArgs(e.fixture, store)...)
			if err != nil {
				return nil, err
			}
			shards = append(shards, s)
			urls = append(urls, s.httpURL)
		}
		// The single store is the federation law's reference; it idles
		// during the timed phase.
		if single, err = e.startServe(ctx, serveArgs(e.fixture, corp.single)...); err != nil {
			return nil, err
		}
		if router, err = e.startRoute(ctx, urls); err != nil {
			return nil, err
		}
		all := append(append([]*server{}, shards...), single, router)
		return func() {
			for _, s := range all {
				s.stop()
			}
		}, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()

	addrs := eventAddrs(corp.events)
	seq := fleetRequests(e.seed, corp, addrs, fleetCycles)
	fleet := append(append([]*server{}, shards...), router)
	meter := newCPUMeter(fleet...)
	cpuBefore := meter.each()
	load, err := closedLoop(ctx, router.httpURL, e.ref,
		loop{warm: queryWarm, timed: e.timed(), sliceOps: fleetSliceOps},
		meter.total, func(i int) request { return seq[i%len(seq)] })
	if err != nil {
		return nil, err
	}
	cpus := meter.each()
	for i := range cpus {
		cpus[i] -= cpuBefore[i]
	}
	out.attempted, out.failed = load.attempted, load.failed
	out.problems = append(out.problems, load.problems...)
	checkFederationLaw(ctx, out, seq, single.httpURL, router.httpURL)
	verifyPoints(ctx, out, router.httpURL, corp.events, load.digests, e.seed)
	// A window read on the single store, same requests, for the ratio
	// the router's window time is judged against.
	var singleWindow []float64
	for _, req := range seq {
		if req.class == "window" && len(singleWindow) < 20 {
			start := time.Now()
			if status, _, err := httpGet(ctx, http.DefaultClient, single.httpURL+req.path); err != nil || status != http.StatusOK {
				out.problemf("single-store window %s: status %d err %v", req.path, status, err)
			}
			singleWindow = append(singleWindow, ms(time.Since(start)))
		}
	}
	rss := 0.0
	for _, s := range append(fleet, single) {
		s.stop()
	}
	for _, s := range fleet {
		rss += s.usage().maxRSSMB
	}

	point := load.latencies("point")
	window := load.latencies("window")
	out.e2e["setup_s"] = atReference(setupS, load.medianReading())
	out.e2e["op_ms"] = median(load.sliceP50s("point"))
	out.e2e["throughput_per_s"] = median(load.sliceRates(nil))
	out.e2e["cpu_ms_per_op"] = median(load.sliceCPUs())
	out.e2e["peak_rss_mb"] = rss
	wall, cpu := load.totals()
	out.observed(point, load.meanBytes(""), cpu, wall, len(corp.events))
	out.layer["e2e.ops"] = float64(load.ops()) // every class, not only the points whose latency is the op's

	out.row("fleet_point_p50_us", 1000*out.e2e["op_ms"], "us")
	out.row("fleet_window_p50_ms", median(load.sliceP50s("window")), "ms")
	out.row("fleet_mb_per_s", median(load.sliceRates(func(s sample) float64 { return float64(s.bytes) / 1e6 })), "MB/s")
	load.rawRows(out, "point")
	out.row("fleet.point_p99_us", 1000*percentile(point, 0.99), "us")
	out.row("fleet.covered_p50_ms", median(load.latencies("covered")), "ms")
	out.row("router.figure4_p50_ms", median(load.latencies("figure4")), "ms")
	out.row("router.legitimacy_p50_ms", median(load.latencies("legitimacy")), "ms")
	out.row("fleet.cpu_ms_per_req", out.e2e["cpu_ms_per_op"], "ms")
	out.row("fleet.router_cpu_share", cpus[len(cpus)-1].Seconds()/sumDurations(cpus).Seconds(), "ratio")
	out.row("fleet.window_bytes", load.meanBytes("window"), "bytes")
	out.row("fleet.single_store_window_p50_ms", median(singleWindow), "ms")
	out.row("fleet.window_overhead_ratio", median(window)/median(singleWindow), "ratio")
	return out, nil
}
