package bgpblackholing

// Benchmarks for the persistent event store. Run with
//
//	go test -run '^$' -bench 'BenchmarkStoreIngest|BenchmarkStoreQueryLPM' -benchmem
//
// BenchmarkStoreIngest measures the append path (encode + checksummed
// log write + index insert); BenchmarkStoreQueryLPM measures indexed
// point queries, which must answer from the trie and postings alone —
// no replay, no raw update data.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"bgpblackholing/internal/analysis"
)

var storeBench struct {
	once     sync.Once
	events   []*Event
	pipeline *Pipeline
}

// storeBenchEvents materializes one replay window's events once, so
// ingest and query benchmarks work on realistic event shapes.
func storeBenchEvents(b *testing.B) []*Event {
	b.Helper()
	storeBench.once.Do(func() {
		p, err := NewPipeline(SmallOptions())
		if err != nil {
			panic(err)
		}
		res, err := p.NewDetector().Run(context.Background(), p.Replay(840, 850))
		if err != nil {
			panic(err)
		}
		storeBench.events = res.Events
		storeBench.pipeline = p
	})
	if len(storeBench.events) == 0 {
		b.Fatal("bench window produced no events")
	}
	return storeBench.events
}

// BenchmarkStoreIngest appends the window's events to a fresh store;
// ns/op is per event.
func BenchmarkStoreIngest(b *testing.B) {
	events := storeBenchEvents(b)
	st, err := OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Append(events[i%len(events)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := st.Sync(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStoreIngestInstrumented is BenchmarkStoreIngest with the
// full telemetry seam attached (append counters + latency histogram,
// fsync/commit instruments, query observers). The observability layer
// must stay near-free: TestInstrumentedAppendAllocParity pins the
// allocations, the harness's obs.instrumented_append_ratio the time.
func BenchmarkStoreIngestInstrumented(b *testing.B) {
	events := storeBenchEvents(b)
	tel := NewTelemetry()
	st, err := OpenStoreWith(b.TempDir(), StoreOptions{Instruments: tel.StoreInstruments()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	tel.observeStore(st)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Append(events[i%len(events)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := st.Sync(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStoreIngestGroupCommit is the append path under the
// group-commit durability policy (fsync every 64 records): the cost of
// bounded crash loss, to compare against the sync-free
// BenchmarkStoreIngest above and the per-append-fsync worst case.
func BenchmarkStoreIngestGroupCommit(b *testing.B) {
	events := storeBenchEvents(b)
	st, err := OpenStoreWith(b.TempDir(), StoreOptions{Sync: SyncPolicy{EveryN: 64}})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Append(events[i%len(events)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := st.Sync(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStoreQueryLPM answers longest-prefix-match point queries
// against a populated store: the acceptance gate for "no replay in the
// query path" — every answer comes from the in-memory trie.
func BenchmarkStoreQueryLPM(b *testing.B) {
	events := storeBenchEvents(b)
	st, err := OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(events...); err != nil {
		b.Fatal(err)
	}
	addrs := make([]netip.Prefix, len(events))
	for i, ev := range events {
		a := ev.Prefix.Addr()
		addrs[i] = netip.PrefixFrom(a, a.BitLen())
	}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		res := st.Query(Query{Prefix: addrs[i%len(addrs)], Mode: PrefixLPM})
		hits += res.Total
	}
	b.StopTimer()
	if hits == 0 {
		b.Fatal("LPM queries found nothing")
	}
}

// BenchmarkQueryEnriched answers the same LPM point queries as
// BenchmarkStoreQueryLPM, but with Query.Enrich on — every hit pays
// annotation (RFC 6811 validation per inferred origin, dictionary
// lookups per community, verdict). The acceptance wall: this must stay
// within 3× BenchmarkStoreQueryLPM ns/op, which requires Validate's
// index walk, one map probe per distinct ROA prefix length (a linear
// ROA scan per origin would blow straight through it).
func BenchmarkQueryEnriched(b *testing.B) {
	events := storeBenchEvents(b)
	st, err := OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(events...); err != nil {
		b.Fatal(err)
	}
	st.SetAnnotator(storeBench.pipeline.Annotator())
	addrs := make([]netip.Prefix, len(events))
	for i, ev := range events {
		a := ev.Prefix.Addr()
		addrs[i] = netip.PrefixFrom(a, a.BitLen())
	}
	b.ReportAllocs()
	b.ResetTimer()
	hits, annotated := 0, 0
	for i := 0; i < b.N; i++ {
		res := st.Query(Query{Prefix: addrs[i%len(addrs)], Mode: PrefixLPM, Enrich: true})
		hits += res.Total
		annotated += len(res.Annotations)
	}
	b.StopTimer()
	if hits == 0 || annotated == 0 {
		b.Fatal("enriched LPM queries found or annotated nothing")
	}
}

// BenchmarkFederatedQueryLPM answers the same LPM point queries as
// BenchmarkStoreQueryLPM, but federated: the window's events split
// across three local shards by the prefix plan, queried through a
// FederatedStore that fans out, heap-merges on RecordKey and sums the
// accounting. The acceptance wall: ≤5× BenchmarkStoreQueryLPM ns/op —
// federation costs three indexed lookups plus a merge, never a scan.
func BenchmarkFederatedQueryLPM(b *testing.B) {
	events := storeBenchEvents(b)
	plan := PrefixShardPlan{Bit: 16, N: 3}
	stores := make([]*Store, plan.Shards())
	for i := range stores {
		st, err := OpenStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		stores[i] = st
	}
	for _, ev := range events {
		if err := stores[plan.Shard(ev)].Append(ev); err != nil {
			b.Fatal(err)
		}
	}
	backends := make([]Backend, len(stores))
	for i, st := range stores {
		backends[i] = NewStoreBackend(st, nil).WithName(fmt.Sprintf("shard-%d", i))
	}
	fed := NewFederatedStore(backends...)
	addrs := make([]netip.Prefix, len(events))
	for i, ev := range events {
		a := ev.Prefix.Addr()
		addrs[i] = netip.PrefixFrom(a, a.BitLen())
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		rs, err := fed.Records(ctx, Query{Prefix: addrs[i%len(addrs)], Mode: PrefixLPM})
		if err != nil {
			b.Fatal(err)
		}
		hits += rs.Total
	}
	b.StopTimer()
	if hits == 0 {
		b.Fatal("federated LPM queries found nothing")
	}
}

var coldBench struct {
	once  sync.Once
	dir   string
	start time.Time
	days  int
}

// coldBenchDir builds, once, an on-disk store of many sealed
// sidecar-backed segments, the shared fixture for the open-cost and
// figure4 benchmarks. The directory outlives the benchmark binary's
// temp handling on purpose: it is rebuilt per process, never reused.
func coldBenchDir(b *testing.B) string {
	b.Helper()
	coldBench.once.Do(func() {
		events := storeBenchEvents(b)
		dir, err := os.MkdirTemp("", "bhcoldbench")
		if err != nil {
			panic(err)
		}
		st, err := OpenStoreWith(dir, StoreOptions{MaxSegmentBytes: 16 << 10})
		if err != nil {
			panic(err)
		}
		if err := st.Append(events...); err != nil {
			panic(err)
		}
		stats := st.Stats()
		if err := st.Close(); err != nil {
			panic(err)
		}
		coldBench.dir = dir
		coldBench.start = stats.MinStart.UTC().Truncate(24 * time.Hour)
		coldBench.days = int(stats.MaxEnd.Sub(coldBench.start).Hours()/24) + 1
	})
	return coldBench.dir
}

// BenchmarkStoreFullOpen measures the open of a store without sidecars:
// every segment read and every record decoded and indexed. The
// denominator for the cold open wall below.
func BenchmarkStoreFullOpen(b *testing.B) {
	dir := sidecarlessCopy(b, coldBenchDir(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := OpenStoreWith(dir, StoreOptions{ReadOnly: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreColdOpen measures the sidecar-backed open: sealed
// segments stay undecoded (the Stats check proves zero event records
// were touched), so open cost tracks segment count, not event count.
// No CI job gates the ratio to BenchmarkStoreFullOpen: the harness's
// store.open_cold_ms row reports it, and TestColdOpenDecodesNothing
// holds the zero.
func BenchmarkStoreColdOpen(b *testing.B) {
	dir := coldBenchDir(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := OpenStoreWith(dir, StoreOptions{ReadOnly: true, Mmap: true})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.StopTimer()
			stats := st.Stats()
			if stats.OpenDecodedEvents != 0 || stats.SegmentsCold == 0 {
				b.Fatalf("cold open decoded %d events, %d cold segments; fixture sidecars missing",
					stats.OpenDecodedEvents, stats.SegmentsCold)
			}
			b.StartTimer()
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4Scan computes the daily longitudinal series by the
// reference full scan over every stored event — the denominator for
// the materialized wall below.
func BenchmarkFigure4Scan(b *testing.B) {
	dir := coldBenchDir(b)
	st, err := OpenStoreWith(dir, StoreOptions{ReadOnly: true})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	st.s.All() // hydrates every cold segment, outside the timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := analysis.Figure4(slices.Collect(st.s.All()), coldBench.start, coldBench.days)
		if len(series) != coldBench.days {
			b.Fatal("short series")
		}
	}
}

// BenchmarkFigure4Materialized answers the same series from the
// store's refcounted per-day aggregates: O(days) map lookups, no event
// scan. The harness's store.figure4_materialized_us row reports it; no
// CI job gates its ratio to BenchmarkFigure4Scan.
func BenchmarkFigure4Materialized(b *testing.B) {
	dir := coldBenchDir(b)
	st, err := OpenStoreWith(dir, StoreOptions{ReadOnly: true})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	warm := st.Figure4(coldBench.start, coldBench.days)
	want := analysis.Figure4(slices.Collect(st.s.All()), coldBench.start, coldBench.days)
	for d := range want {
		if warm[d] != want[d] {
			b.Fatalf("day %d: materialized %+v != scan %+v", d, warm[d], want[d])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := st.Figure4(coldBench.start, coldBench.days)
		if len(series) != coldBench.days {
			b.Fatal("short series")
		}
	}
}

// BenchmarkCompactTiered measures one tiered compaction pass over a
// store of many small same-partition segments: the merge runs, the
// marker-led atomic commit, and the in-place index swap. Store setup
// (ingest + segment rotation) is excluded from the timing.
func BenchmarkCompactTiered(b *testing.B) {
	events := storeBenchEvents(b)
	pol := CompactionPolicy{Partition: 30 * 24 * time.Hour, SizeRatio: 4, MinRun: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := OpenStoreWith(b.TempDir(), StoreOptions{MaxSegmentBytes: 32 << 10, Policy: pol})
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Append(events...); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		stats, err := st.Compact(pol)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if i == 0 && len(stats.Merged) == 0 {
			b.Fatal("tiered pass merged nothing; bench store shape degenerate")
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// routerBenchFixture serves the bench window twice over loopback HTTP:
// from one cold-opened store, and from three cold-opened shard stores
// (split by prefix:16:3, and stamped so) behind a router handler over
// RemoteBackends that has read their identities — the bhserve ×3 +
// bhroute deployment in one process. It returns the two base URLs, one
// keep-alive client and the count of the bytes the shards have sent.
func routerBenchFixture(b *testing.B) (single, router string, client *http.Client, shards *writeCounter) {
	b.Helper()
	events := storeBenchEvents(b)
	plan := PrefixShardPlan{Bit: 16, N: 3}
	shards = &writeCounter{}
	serve := func(shard int) string { // -1: the single store
		dir := b.TempDir()
		st, err := OpenStoreWith(dir, StoreOptions{MaxSegmentBytes: 16 << 10})
		if err == nil && shard >= 0 {
			err = st.stamp(plan, shard)
		}
		if err != nil {
			b.Fatal(err)
		}
		for _, ev := range events {
			if shard < 0 || plan.Shard(ev) == shard {
				if err := st.Append(ev); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		if st, err = OpenStoreWith(dir, StoreOptions{ReadOnly: true, Mmap: true}); err != nil {
			b.Fatal(err)
		}
		h := NewStoreHandler(st, storeBench.pipeline)
		if shard >= 0 {
			h = shards.wrap(h)
		}
		srv := httptest.NewServer(h)
		b.Cleanup(func() { srv.Close(); st.Close() })
		return srv.URL
	}
	single = serve(-1)
	backends := make([]Backend, plan.Shards())
	for i := range backends {
		rb, err := NewRemoteBackend([]string{serve(i)}, RemoteOptions{Name: fmt.Sprintf("shard-%d", i)})
		if err != nil {
			b.Fatal(err)
		}
		backends[i] = rb
	}
	fed := NewFederatedStore(backends...)
	if _, err := fed.Stats(context.Background()); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(NewRouterHandler(fed, RouterOptions{}))
	b.Cleanup(srv.Close)
	return single, srv.URL, &http.Client{}, shards
}

// benchRouterVsSingle times one GET path against the router and, as a
// sub-benchmark, against the single store, so the hop's overhead ratio
// is one division; both must answer the same bytes (a JSON envelope's
// elapsed_us and scanned aside). bytes/op is the response body, and
// shard_bytes/op the bodies the router's shards sent for it.
func benchRouterVsSingle(b *testing.B, path string) {
	single, router, client, shards := routerBenchFixture(b)
	var want []byte
	for _, side := range []struct{ name, base string }{{"single", single}, {"router", router}} {
		b.Run(side.name, func(b *testing.B) {
			b.ReportAllocs()
			n, sent := 0, shards.bytes.Load()
			for i := 0; i < b.N; i++ {
				resp, err := client.Get(side.base + path)
				if err != nil {
					b.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || len(body) == 0 {
					b.Fatalf("GET %s: status %d, %d bytes, err %v", path, resp.StatusCode, len(body), err)
				}
				if want == nil {
					want = body
				} else if i == 0 && maskAccounting(body) != maskAccounting(want) {
					b.Fatalf("GET %s: the router and the single store answer different bytes", path)
				}
				n = len(body)
			}
			b.ReportMetric(float64(n), "bytes/op")
			if side.name == "router" {
				b.ReportMetric(float64(shards.bytes.Load()-sent)/float64(b.N), "shard_bytes/op")
			}
		})
	}
}

// BenchmarkRouterWindowNDJSON streams the whole bench window as NDJSON:
// per line the shard projects and encodes, the router scans the merge
// key and passes the bytes through.
func BenchmarkRouterWindowNDJSON(b *testing.B) {
	benchRouterVsSingle(b, "/events?format=ndjson")
}

// BenchmarkScanLineKey keys the bench window's record lines, plain and
// enriched, as a router keys a shard's lines: ns/op is one pass over the
// window, ns/line the layer's cost per record.
func BenchmarkScanLineKey(b *testing.B) {
	events := storeBenchEvents(b)
	ann := storeBench.pipeline.Annotator()
	for _, kind := range []string{"plain", "enriched"} {
		var lines [][]byte
		size := 0
		for _, ev := range events {
			var a Annotation
			if kind == "enriched" {
				a = ann.Annotate(ev)
			}
			line, _, err := appendEventLine(nil, ev, a)
			if err != nil {
				b.Fatal(err)
			}
			lines, size = append(lines, line), size+len(line)
		}
		b.Run(kind, func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, line := range lines {
					if _, err := scanLineKey(line); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(lines)), "ns/line")
		})
	}
}

// BenchmarkRouterPoint asks who blackholes one address: the router sends
// the query to the one shard its prefix is filed on, so what is left of
// the hop is one loopback round trip, the lines read and the envelope
// written around them.
func BenchmarkRouterPoint(b *testing.B) {
	ev := storeBenchEvents(b)[0]
	benchRouterVsSingle(b, "/events?limit=20&mode=lpm&prefix="+ev.Prefix.Addr().String())
}

// BenchmarkRouterCovered asks for the enriched events under the first
// event's /12 — the harness's covered scan: a set of up to 200 records
// that crosses the hop as its lines and is indented once, by the router.
func BenchmarkRouterCovered(b *testing.B) {
	block, err := storeBenchEvents(b)[0].Prefix.Addr().Prefix(12)
	if err != nil {
		b.Fatal(err)
	}
	benchRouterVsSingle(b, "/events?mode=covered&enrich=1&limit=200&prefix="+block.String())
}

// BenchmarkRouterFigure4 asks for the daily series: the single store
// answers from its per-day counts, the router unions its shards' sets
// (/figure4?shape=sets: each name once, with its days as spans) in
// bitsets and counts. shard_bytes/op is the sets' size on the wire.
func BenchmarkRouterFigure4(b *testing.B) {
	benchRouterVsSingle(b, "/figure4")
}
