package bgpblackholing

// Scrape-and-parse coverage for the telemetry layer: /metrics serves
// valid Prometheus text exposition, every registered route gets
// request metrics, counters are monotonic across appends and queries,
// and histogram series satisfy the cumulative-bucket/sum/count
// invariants scrapers rely on.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// exposition is one parsed scrape: TYPE per family plus every sample
// line keyed by "name{labels}".
type exposition struct {
	types   map[string]string
	samples map[string]float64
	order   []string
}

func parseExposition(t *testing.T, body string) *exposition {
	t.Helper()
	exp := &exposition{types: map[string]string{}, samples: map[string]float64{}}
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if len(strings.Fields(line)) < 3 {
				t.Fatalf("line %d: malformed HELP %q", ln+1, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE %q", ln+1, line)
			}
			switch f[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown exposition type %q", ln+1, f[3])
			}
			exp.types[f[2]] = f[3]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		default:
			// A sample: name{labels} value — labels may contain spaces
			// inside quoted values, so split on the last space.
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				t.Fatalf("line %d: malformed sample %q", ln+1, line)
			}
			key, vs := line[:i], line[i+1:]
			var v float64
			if vs == "+Inf" {
				v = 1e308
			} else {
				f, err := strconv.ParseFloat(vs, 64)
				if err != nil {
					t.Fatalf("line %d: unparseable value %q: %v", ln+1, vs, err)
				}
				v = f
			}
			if _, dup := exp.samples[key]; dup {
				t.Fatalf("line %d: duplicate sample %q", ln+1, key)
			}
			exp.samples[key] = v
			exp.order = append(exp.order, key)
		}
	}
	return exp
}

// get fails the test if the sample is absent.
func (e *exposition) get(t *testing.T, key string) float64 {
	t.Helper()
	v, ok := e.samples[key]
	if !ok {
		var near []string
		prefix, _, _ := strings.Cut(key, "{")
		for k := range e.samples {
			if strings.HasPrefix(k, prefix) {
				near = append(near, k)
			}
		}
		sort.Strings(near)
		t.Fatalf("sample %q missing; nearby: %v", key, near)
	}
	return v
}

// checkHistogram asserts the exposition invariants for one histogram
// series: cumulative non-decreasing buckets, a trailing +Inf bucket
// equal to _count, and a parseable _sum.
func (e *exposition) checkHistogram(t *testing.T, name, labels string) (count float64) {
	t.Helper()
	sub := name + "_bucket"
	if labels != "" {
		sub += "{" + labels + ","
	} else {
		sub += "{"
	}
	var prev float64
	var sawInf bool
	for _, key := range e.order {
		if !strings.HasPrefix(key, sub) {
			continue
		}
		v := e.samples[key]
		if v < prev {
			t.Fatalf("%s: bucket %q (%v) below predecessor (%v) — not cumulative", name, key, v, prev)
		}
		prev = v
		if strings.Contains(key, `le="+Inf"`) {
			sawInf = true
		}
	}
	if !sawInf {
		t.Fatalf("%s{%s}: no +Inf bucket", name, labels)
	}
	countKey, sumKey := name+"_count", name+"_sum"
	if labels != "" {
		countKey += "{" + labels + "}"
		sumKey += "{" + labels + "}"
	}
	count = e.get(t, countKey)
	if prev != count {
		t.Fatalf("%s{%s}: +Inf bucket %v != count %v", name, labels, prev, count)
	}
	e.get(t, sumKey)
	return count
}

// telemetryServer wires a fully-observed stack: instrumented store,
// detector, alert hub, an idle redial source, pprof, and the /metrics
// route — each part handed to the handler once.
func telemetryServer(t *testing.T) (*Telemetry, *Store, *httptest.Server) {
	t.Helper()
	tel := NewTelemetry()
	st, err := OpenStoreWith(t.TempDir(), StoreOptions{
		Sync:        SyncPolicy{EveryN: 2},
		Instruments: tel.StoreInstruments(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })

	p := smallPipeline(t)
	det := p.NewDetector()

	hub, err := NewAlertHub(nil, AlertHubConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hub.Close)

	src := NewRedialSource("192.0.2.1:179", RedialConfig{})

	srv := httptest.NewServer(NewStoreHandlerWith(st, nil, HandlerOptions{
		Detector:      det,
		Hub:           hub,
		Telemetry:     tel,
		Pprof:         true,
		RedialSources: []*RedialSource{src},
	}))
	t.Cleanup(srv.Close)
	return tel, st, srv
}

// TestInstrumentedAppendAllocParity is the deterministic form of the
// "instrumented append within 1.15x of bare" wall: the telemetry seam
// is pre-resolved pointers and atomics, so an Append with
// StoreOptions.Instruments and the handler's query observer attached must
// not allocate more than a bare one. Timing is the harness's business
// (obs.instrumented_append_ratio).
func TestInstrumentedAppendAllocParity(t *testing.T) {
	events := replay(t, smallPipeline(t), 845, 850).Events
	if len(events) == 0 {
		t.Fatal("no events")
	}
	allocsPerAppend := func(opts StoreOptions, observe func(*Store)) float64 {
		st, err := OpenStoreWith(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		observe(st)
		i := 0
		return testing.AllocsPerRun(4*len(events), func() {
			if err := st.Append(events[i%len(events)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	bare := allocsPerAppend(StoreOptions{}, func(*Store) {})
	tel := NewTelemetry()
	instrumented := allocsPerAppend(StoreOptions{Instruments: tel.StoreInstruments()}, tel.observeStore)
	t.Logf("allocs per Append: bare %.0f, instrumented %.0f", bare, instrumented)
	if instrumented > bare {
		t.Fatalf("instrumented Append allocates %.0f per event, bare %.0f: telemetry reached the append hot path", instrumented, bare)
	}
}

func scrape(t *testing.T, srv *httptest.Server) *exposition {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseExposition(t, string(body))
}

func TestMetricsExposition(t *testing.T) {
	_, st, srv := telemetryServer(t)

	// Seed some activity before the first scrape: appends (two, so the
	// EveryN=2 group commit fires), a plain query, an /events hit.
	base := time.Date(2015, 3, 1, 12, 0, 0, 0, time.UTC)
	mk := func(prefix string) *Event {
		return &Event{
			Prefix: netip.MustParsePrefix(prefix), Start: base, End: base.Add(time.Hour),
			Providers: []ProviderRef{{Kind: ProviderAS, ASN: 3356}},
			Users:     []ASN{65001},
		}
	}
	if err := st.Append(mk("10.1.2.0/24"), mk("10.2.0.0/16")); err != nil {
		t.Fatal(err)
	}
	st.Query(Query{})
	if resp, err := http.Get(srv.URL + "/events"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	exp := scrape(t, srv)

	// Every instrumented family is present with a declared type.
	for family, kind := range map[string]string{
		"bh_build_info":                  "gauge",
		"bh_uptime_seconds":              "gauge",
		"bh_http_requests_total":         "counter",
		"bh_http_in_flight":              "gauge",
		"bh_http_request_seconds":        "histogram",
		"bh_store_append_events_total":   "counter",
		"bh_store_append_seconds":        "histogram",
		"bh_store_fsync_total":           "counter",
		"bh_store_commit_batch_records":  "histogram",
		"bh_store_events":                "gauge",
		"bh_query_total":                 "counter",
		"bh_query_seconds":               "histogram",
		"bh_engine_updates_total":        "counter",
		"bh_engine_events_opened_total":  "counter",
		"bh_engine_events_closed_total":  "counter",
		"bh_alert_published_total":       "counter",
		"bh_alert_publish_seconds":       "histogram",
		"bh_alert_webhook_retries_total": "counter",
		"bh_redial_dials_total":          "counter",
	} {
		if got := exp.types[family]; got != kind {
			t.Errorf("family %s: type %q, want %q", family, got, kind)
		}
	}

	// Store counters reflect the seeded activity.
	if v := exp.get(t, "bh_store_append_events_total"); v != 2 {
		t.Errorf("append_events_total = %v, want 2", v)
	}
	if v := exp.get(t, "bh_store_events"); v != 2 {
		t.Errorf("bh_store_events = %v, want 2", v)
	}
	if v := exp.get(t, "bh_store_fsync_total"); v < 1 {
		t.Errorf("fsync_total = %v, want >= 1 (EveryN=2 group commit)", v)
	}
	// /events uses QuerySeq, plus the direct Query above: >= 2 queries.
	if v := exp.get(t, "bh_query_total"); v < 2 {
		t.Errorf("query_total = %v, want >= 2", v)
	}
	if v := exp.get(t, `bh_redial_dials_total{source="192.0.2.1:179"}`); v != 0 {
		t.Errorf("idle redial source dials = %v, want 0", v)
	}
	foundBuildInfo := false
	for key, v := range exp.samples {
		if strings.HasPrefix(key, "bh_build_info{") {
			foundBuildInfo = true
			if v != 1 {
				t.Errorf("build_info %q = %v, want 1", key, v)
			}
			if !strings.Contains(key, `go_version="`+runtime.Version()+`"`) {
				t.Errorf("build_info %q missing go_version label", key)
			}
		}
	}
	if !foundBuildInfo {
		t.Error("no bh_build_info sample")
	}

	// Histogram invariants on an observed and an unobserved series.
	if n := exp.checkHistogram(t, "bh_store_append_seconds", ""); n != 1 {
		t.Errorf("append_seconds count = %v, want 1 (one Append call)", n)
	}
	exp.checkHistogram(t, "bh_query_seconds", "")
	exp.checkHistogram(t, "bh_http_request_seconds", `route="GET /events"`)
	exp.checkHistogram(t, "bh_alert_publish_seconds", "")

	// Request metrics exist for every registered route — the children
	// are resolved at registration, so even never-hit routes (and every
	// status class) have series.
	mounted := []string{"GET /watch", "GET /rules", "POST /rules", "DELETE /rules/{name}", "GET /metrics", "GET /debug/pprof/"}
	for _, rt := range routes {
		mounted = append(mounted, rt.pattern)
	}
	for _, route := range mounted {
		exp.get(t, fmt.Sprintf(`bh_http_requests_total{route="%s",class="2xx"}`, route))
		exp.get(t, fmt.Sprintf(`bh_http_requests_total{route="%s",class="5xx"}`, route))
	}
	if v := exp.get(t, `bh_http_requests_total{route="GET /events",class="2xx"}`); v != 1 {
		t.Errorf("/events 2xx = %v, want 1", v)
	}

	// Monotonicity: more activity strictly grows the counters.
	if err := st.Append(mk("10.3.0.0/16")); err != nil {
		t.Fatal(err)
	}
	st.Query(Query{})
	exp2 := scrape(t, srv)
	for _, c := range []string{"bh_store_append_events_total", "bh_query_total"} {
		before, after := exp.get(t, c), exp2.get(t, c)
		if after <= before {
			t.Errorf("%s: %v -> %v, want strictly increasing", c, before, after)
		}
	}
	// The first scrape itself was a request: /metrics 2xx grew too.
	if before, after := exp.get(t, `bh_http_requests_total{route="GET /metrics",class="2xx"}`),
		exp2.get(t, `bh_http_requests_total{route="GET /metrics",class="2xx"}`); after <= before {
		t.Errorf("/metrics request counter not monotonic: %v -> %v", before, after)
	}

	// One plain and one enriched /events request each move their own
	// counter — and latency histogram — by exactly one: enrichment is
	// observed where it happens, in the backend call.
	st.SetAnnotator(fixtureAnnotator())
	for _, path := range []string{"/events", "/events?enrich=1"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
	}
	exp3 := scrape(t, srv)
	for _, c := range []string{"bh_query_total", "bh_query_enriched_total", "bh_query_seconds_count", "bh_query_enriched_seconds_count"} {
		if d := exp3.get(t, c) - exp2.get(t, c); d != 1 {
			t.Errorf("%s moved by %v over one plain and one enriched request, want 1", c, d)
		}
	}
}

// TestTelemetryMiddlewareFlushes: the middleware's status writer forwards
// Flush, so the streaming routes stream through it. An NDJSON /events
// answer is flushed to the writer it was given, and /watch's
// ": connected" frame reaches a real client while the handler still
// runs — it runs until the client hangs up.
func TestTelemetryMiddlewareFlushes(t *testing.T) {
	rule, err := ParseRule("name=a")
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewAlertHub([]AlertRule{rule}, AlertHubConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	h := NewStoreHandlerWith(storeFixture(t), nil, HandlerOptions{Hub: hub, Telemetry: NewTelemetry()})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/events?format=ndjson", nil))
	if rec.Code != http.StatusOK || !rec.Flushed || strings.Count(rec.Body.String(), "\n") != 3 {
		t.Errorf("/events?format=ndjson through the middleware: status %d, flushed %v, body %q; want 200, flushed, 3 lines", rec.Code, rec.Flushed, rec.Body)
	}

	srv := httptest.NewServer(h)
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /watch through the middleware: %v; want its headers while the stream is open", err)
	}
	defer resp.Body.Close()
	if line, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil || line != ": connected\n" {
		t.Errorf("GET /watch through the middleware: first line %q (%v), want \": connected\"", line, err)
	}
}

func TestMetricsPprofMounted(t *testing.T) {
	_, _, srv := telemetryServer(t)
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/: %s", resp.Status)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index does not list profiles")
	}
}

// TestMetricsAndPprofBehindAuth: /metrics and pprof honor the bearer
// token like every route except /healthz.
func TestMetricsAndPprofBehindAuth(t *testing.T) {
	tel := NewTelemetry()
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := httptest.NewServer(NewStoreHandlerWith(st, nil, HandlerOptions{
		AuthToken: "s3cret", Telemetry: tel, Pprof: true,
	}))
	t.Cleanup(srv.Close)

	for _, path := range []string{"/metrics", "/debug/pprof/"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("GET %s unauthenticated: %s, want 401", path, resp.Status)
		}
		req, _ := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		req.Header.Set("Authorization", "Bearer s3cret")
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s with token: %s, want 200", path, resp.Status)
		}
	}
}

// TestHealthzDegradedRedial: a redial source whose retry budget is
// exhausted flips /healthz to 503 degraded, with the historical keys
// intact.
func TestHealthzDegradedRedial(t *testing.T) {
	// Grab a port and close it so dials are refused immediately.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	src := NewRedialSource(addr, RedialConfig{
		Session:        BGPConfig{ASN: 64900, BGPID: netip.MustParseAddr("10.0.0.9"), DialTimeout: time.Second},
		InitialBackoff: time.Millisecond,
		Jitter:         -1,
		MaxRetries:     1,
		OnTransition:   func(ConnTransition) {}, // silence the default logger
	})
	if _, err := src.Next(); err == nil {
		t.Fatal("expected a terminal error from the exhausted source")
	}

	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := httptest.NewServer(NewStoreHandlerWith(st, nil, HandlerOptions{
		RedialSources: []*RedialSource{src},
	}))
	t.Cleanup(srv.Close)

	var health struct {
		Status string            `json:"status"`
		Events int               `json:"events"`
		Checks map[string]string `json:"checks"`
	}
	resp := getJSON(t, srv.URL+"/healthz", &health)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded healthz: %s, want 503", resp.Status)
	}
	if health.Status != "degraded" {
		t.Fatalf("status %q, want degraded", health.Status)
	}
	if _, ok := health.Checks["redial:"+addr]; !ok {
		t.Fatalf("checks %v missing redial entry", health.Checks)
	}

	// Stats folds the same counters in.
	var stats struct {
		Detector struct {
			Redial []RedialStats `json:"redial"`
		} `json:"detector"`
	}
	getJSON(t, srv.URL+"/stats", &stats)
	if len(stats.Detector.Redial) != 1 || stats.Detector.Redial[0].GaveUp != 1 {
		t.Fatalf("stats redial section: %+v", stats.Detector.Redial)
	}
	if stats.Detector.Redial[0].Dials != 2 {
		t.Fatalf("dials = %d, want 2 (budget 1 + final try)", stats.Detector.Redial[0].Dials)
	}
}

// TestStatsEngineSection: with a detector attached, /stats carries the
// engine counter snapshot — the same numbers /metrics scrapes.
func TestStatsEngineSection(t *testing.T) {
	_, st, srv := telemetryServer(t)
	_ = st
	var stats struct {
		Detector struct {
			Engine *Metrics `json:"engine"`
		} `json:"detector"`
	}
	getJSON(t, srv.URL+"/stats", &stats)
	if stats.Detector.Engine == nil {
		t.Fatal("stats detector section missing engine snapshot")
	}
}

// TestMetricsSeeWhatStatsSees: a handler registers the /metrics families
// of every part it is handed, so a caller hands each part to
// HandlerOptions once. Each /stats section has its bh_* family on
// /metrics with the same number — for a store handler handed a store, a
// detector, a hub and a redial source, and for a router over three
// shards.
func TestMetricsSeeWhatStatsSees(t *testing.T) {
	same := func(t *testing.T, exp *exposition, sample string, stats uint64) {
		t.Helper()
		if stats == 0 {
			t.Errorf("%s: /stats reads 0, so the comparison shows nothing", sample)
		}
		switch got, ok := exp.samples[sample]; {
		case !ok:
			t.Errorf("%s: %d on /stats, missing from /metrics", sample, stats)
		case got != float64(stats):
			t.Errorf("%s = %v on /metrics, %d on /stats", sample, got, stats)
		}
	}

	t.Run("store", func(t *testing.T) {
		tel := NewTelemetry()
		st, err := OpenStoreWith(t.TempDir(), StoreOptions{Instruments: tel.StoreInstruments()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		rule, err := ParseRule("name=every")
		if err != nil {
			t.Fatal(err)
		}
		hub, err := NewAlertHub([]AlertRule{rule}, AlertHubConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(hub.Close)
		p := smallPipeline(t)
		det := p.NewDetector()
		waitStore, waitHub := det.SinkToStore(st), det.SinkToHub(hub)
		if _, err := det.Run(context.Background(), p.Replay(845, 850)); err != nil {
			t.Fatal(err)
		}
		if err := waitStore(); err != nil {
			t.Fatal(err)
		}
		waitHub()

		// A source whose one retry is refused has dialled twice.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		src := NewRedialSource(addr, RedialConfig{
			Session:        BGPConfig{ASN: 64900, BGPID: netip.MustParseAddr("10.0.0.9"), DialTimeout: time.Second},
			InitialBackoff: time.Millisecond,
			Jitter:         -1,
			MaxRetries:     1,
			OnTransition:   func(ConnTransition) {},
		})
		if _, err := src.Next(); err == nil {
			t.Fatal("expected a terminal error from the exhausted source")
		}

		srv := httptest.NewServer(NewStoreHandlerWith(st, p, HandlerOptions{
			Detector: det, Hub: hub, RedialSources: []*RedialSource{src}, Telemetry: tel,
		}))
		t.Cleanup(srv.Close)
		var stats struct {
			Events   int
			Detector struct {
				Engine *Metrics       `json:"engine"`
				Alerts *AlertHubStats `json:"alerts"`
				Redial []RedialStats  `json:"redial"`
			} `json:"detector"`
		}
		getJSON(t, srv.URL+"/stats", &stats)
		if stats.Detector.Engine == nil || stats.Detector.Alerts == nil || len(stats.Detector.Redial) != 1 {
			t.Fatalf("/stats detector section %+v: want engine, alerts and one redial entry", stats.Detector)
		}
		exp := scrape(t, srv)
		same(t, exp, "bh_store_events", uint64(stats.Events))
		same(t, exp, "bh_engine_events_closed_total", stats.Detector.Engine.EventsClosed)
		same(t, exp, "bh_alert_published_total", stats.Detector.Alerts.Published)
		same(t, exp, `bh_redial_dials_total{source="`+addr+`"}`, stats.Detector.Redial[0].Dials)
	})

	t.Run("router", func(t *testing.T) {
		shards := make([]*Store, 3)
		for i := range shards {
			shards[i] = storeFixture(t)
		}
		srv := httptest.NewServer(NewRouterHandler(NewFederatedStore(localFleet(shards)...), RouterOptions{Telemetry: NewTelemetry()}))
		t.Cleanup(srv.Close)
		var stats BackendStats
		getJSON(t, srv.URL+"/stats", &stats)
		if stats.Shards == nil {
			t.Fatal("/stats has no shards block")
		}
		same(t, scrape(t, srv), "bh_federation_shards", uint64(len(stats.Shards.Shards)))
	})
}
