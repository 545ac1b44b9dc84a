package bgpblackholing

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"
)

// storeFixture builds a store with three hand-made events: two /32s
// under 10.1.0.0/16 (one long, one short) and one unrelated /24.
func storeFixture(t testing.TB) *Store {
	t.Helper()
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	base := time.Date(2015, 3, 1, 12, 0, 0, 0, time.UTC)
	mk := func(prefix string, start time.Time, dur time.Duration, user ASN) *Event {
		pr := ProviderRef{Kind: ProviderAS, ASN: 3356}
		return &Event{
			Prefix:      netip.MustParsePrefix(prefix),
			Start:       start,
			End:         start.Add(dur),
			Providers:   []ProviderRef{pr},
			Users:       []ASN{user},
			Communities: []Community{MakeCommunity(3356, 9999)},
			Platforms:   []Platform{PlatformRIS},
			Peers:       []netip.Addr{netip.MustParseAddr("192.0.2.1")},
			Detections:  2,
		}
	}
	err = st.Append(
		mk("10.1.2.3/32", base, 3*time.Hour, 65001),
		mk("10.1.9.9/32", base.Add(24*time.Hour), 5*time.Minute, 65002),
		mk("172.16.5.0/24", base.Add(48*time.Hour), time.Hour, 65003),
	)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp
}

// unreachableBackend fails the test when a request that should have
// been refused at parameter validation reaches the backend.
type unreachableBackend struct {
	Backend
	t *testing.T
}

func (b unreachableBackend) Stats(context.Context) (*BackendStats, error) {
	b.t.Error("Stats reached the backend")
	return nil, errors.New("unreachable")
}

func (b unreachableBackend) Figure4(context.Context, time.Time, int) (*Figure4Result, error) {
	b.t.Error("Figure4 reached the backend")
	return nil, errors.New("unreachable")
}

// farFutureBackend answers every Figure 4 window with a day past the
// year 9999, which json.Marshal refuses.
type farFutureBackend struct{ Backend }

func (farFutureBackend) Figure4(context.Context, time.Time, int) (*Figure4Result, error) {
	return &Figure4Result{Series: []DailyPoint{{Day: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}}}, nil
}

func TestStoreHTTPAPI(t *testing.T) {
	st := storeFixture(t)
	srv := httptest.NewServer(NewStoreHandler(st, nil))
	defer srv.Close()

	var health struct {
		Status string `json:"status"`
		Events int    `json:"events"`
	}
	getJSON(t, srv.URL+"/healthz", &health)
	if health.Status != "ok" || health.Events != 3 {
		t.Fatalf("healthz: %+v", health)
	}

	var stats StoreStats
	getJSON(t, srv.URL+"/stats", &stats)
	if stats.Events != 3 || stats.Prefixes != 3 {
		t.Fatalf("stats: %+v", stats)
	}

	type eventsResp struct {
		Total    int           `json:"total"`
		Returned int           `json:"returned"`
		Scanned  int           `json:"scanned"`
		Events   []EventRecord `json:"events"`
	}

	// Covered query: the two /32s inside 10.1.0.0/16, not the /24.
	var covered eventsResp
	getJSON(t, srv.URL+"/events?prefix=10.1.0.0/16&mode=covered", &covered)
	if covered.Total != 2 || len(covered.Events) != 2 {
		t.Fatalf("covered: %+v", covered)
	}

	// LPM point lookup by bare address.
	var lpm eventsResp
	getJSON(t, srv.URL+"/events?prefix=10.1.2.3&mode=lpm", &lpm)
	if lpm.Total != 1 || lpm.Events[0].Prefix != "10.1.2.3/32" {
		t.Fatalf("lpm: %+v", lpm)
	}

	// Origin + duration + time filters.
	var dur eventsResp
	getJSON(t, srv.URL+"/events?origin=65001&min_duration=1h", &dur)
	if dur.Total != 1 || dur.Events[0].Users[0] != 65001 {
		t.Fatalf("origin+min_duration: %+v", dur)
	}
	var window eventsResp
	getJSON(t, srv.URL+"/events?from=2015-03-02T00:00:00Z&to=2015-03-02T23:59:00Z", &window)
	if window.Total != 1 || window.Events[0].Prefix != "10.1.9.9/32" {
		t.Fatalf("time window: %+v", window)
	}

	// Community + provider filters.
	var comm eventsResp
	getJSON(t, srv.URL+"/events?community=3356:9999&provider=AS3356", &comm)
	if comm.Total != 3 {
		t.Fatalf("community+provider: %+v", comm)
	}

	// NDJSON streaming: one record per line.
	resp, err := http.Get(srv.URL + "/events?format=ndjson")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("ndjson content type: %s", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 3 {
		t.Fatalf("ndjson: %d lines, want 3: %q", len(lines), body)
	}
	var rec EventRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil || rec.Prefix == "" {
		t.Fatalf("ndjson line 0: %v %q", err, lines[0])
	}

	// Aggregations.
	var series []DailyPoint
	getJSON(t, srv.URL+"/figure4?every=1", &series)
	if len(series) < 3 {
		t.Fatalf("figure4: %d points", len(series))
	}
	var f8 struct {
		UngroupedEvents int `json:"ungrouped_events"`
		GroupedPeriods  int `json:"grouped_periods"`
	}
	getJSON(t, srv.URL+"/figure8?timeout=5m", &f8)
	if f8.UngroupedEvents != 3 || f8.GroupedPeriods != 3 {
		t.Fatalf("figure8: %+v", f8)
	}

	// Figure4 bounds: a start past the store's span yields an empty
	// series; a start far before it trips the day cap, and a window
	// whose last day is past 9999-12-31, which no JSON time names, is
	// refused. A series that does not encode all the same is a 500 with
	// its error, never an empty 200. An /events format the API does not
	// write is refused too, not answered as JSON.
	var empty []DailyPoint
	getJSON(t, srv.URL+"/figure4?start=2030-01-01T00:00:00Z", &empty)
	if len(empty) != 0 {
		t.Fatalf("figure4 past the span: %d points, want 0", len(empty))
	}
	unencodable := newHandler(farFutureBackend{NewStoreBackend(st, nil)}, HandlerOptions{})
	for _, c := range []struct {
		h      http.Handler
		path   string
		status int
	}{
		{srv.Config.Handler, "/figure4?start=1000-01-01T00:00:00Z", http.StatusBadRequest},
		{srv.Config.Handler, "/figure4?start=9999-12-01T00:00:00Z&days=100", http.StatusBadRequest},
		{srv.Config.Handler, "/figure4?days=36600&start=9950-01-01T00:00:00Z", http.StatusBadRequest},
		{unencodable, "/figure4?start=2015-03-01T00:00:00Z&days=2", http.StatusInternalServerError},
		{srv.Config.Handler, "/events?format=csv", http.StatusBadRequest},
		{srv.Config.Handler, "/events?format=ndjosn", http.StatusBadRequest},
	} {
		w := httptest.NewRecorder()
		c.h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, c.path, nil))
		var body struct{ Error string }
		if err := json.Unmarshal(w.Body.Bytes(), &body); w.Code != c.status || err != nil || body.Error == "" {
			t.Fatalf("%s: status %d (%v), body %q; want %d and an error", c.path, w.Code, err, w.Body, c.status)
		}
	}

	// A malformed every is refused before any backend call — behind a
	// router each one is a fan-out to every shard.
	badEvery := httptest.NewRecorder()
	newHandler(unreachableBackend{NewStoreBackend(st, nil), t}, HandlerOptions{}).
		ServeHTTP(badEvery, httptest.NewRequest("GET", "/figure4?every=x", nil))
	if badEvery.Code != http.StatusBadRequest {
		t.Fatalf("figure4 bad every: status %d, want 400", badEvery.Code)
	}

	// Errors: bad parameter, unknown route, missing pipeline.
	if resp := getJSON(t, srv.URL+"/events?from=yesterday", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad from: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/events?prefix=not-an-ip", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad prefix: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/table3", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("table3 without pipeline: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route: status %d", resp.StatusCode)
	}
}

// TestStoreOnlyRoutesCancelled: a store-only route whose client has gone
// stops its walk and writes no body.
func TestStoreOnlyRoutesCancelled(t *testing.T) {
	h := NewStoreHandler(storeFixture(t), smallPipeline(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, path := range []string{"/figure8", "/table3", "/table4"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequestWithContext(ctx, http.MethodGet, path, nil))
		if rec.Body.Len() != 0 {
			t.Errorf("GET %s with a cancelled context: %d, %d-byte body; want no body", path, rec.Code, rec.Body.Len())
		}
	}
}

func TestStoreHTTPTablesWithPipeline(t *testing.T) {
	p, err := NewPipeline(SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := storeFixture(t)
	srv := httptest.NewServer(NewStoreHandler(st, p))
	defer srv.Close()
	var rows3 []Table3Row
	getJSON(t, srv.URL+"/table3", &rows3)
	if len(rows3) == 0 {
		t.Fatal("table3: no rows")
	}
	var rows4 []Table4Row
	getJSON(t, srv.URL+"/table4", &rows4)
	if len(rows4) == 0 {
		t.Fatal("table4: no rows")
	}
}
