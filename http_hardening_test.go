package bgpblackholing

// HTTP hardening tests: bearer-token auth, the per-client token-bucket
// rate limit, cancellation-aware streaming drains, the /stats detector
// section, and the answer pool's size bound.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHTTPAuthToken(t *testing.T) {
	st := storeFixture(t)
	srv := httptest.NewServer(NewStoreHandlerWith(st, nil, HandlerOptions{
		AuthToken: "sekrit",
	}))
	defer srv.Close()

	get := func(path, auth string) *http.Response {
		t.Helper()
		req, err := http.NewRequest("GET", srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	for _, tc := range []struct {
		name, auth string
		want       int
	}{
		{"no header", "", http.StatusUnauthorized},
		{"wrong scheme", "Basic sekrit", http.StatusUnauthorized},
		{"wrong token", "Bearer wrong", http.StatusUnauthorized},
		{"prefix of token", "Bearer sekri", http.StatusUnauthorized},
		{"good token", "Bearer sekrit", http.StatusOK},
	} {
		resp := get("/stats", tc.auth)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: /stats = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if tc.want == http.StatusUnauthorized &&
			!strings.HasPrefix(resp.Header.Get("WWW-Authenticate"), "Bearer") {
			t.Errorf("%s: 401 without a WWW-Authenticate challenge", tc.name)
		}
	}

	// Liveness probes must keep working without credentials.
	if resp := get("/healthz", ""); resp.StatusCode != http.StatusOK {
		t.Errorf("unauthenticated /healthz = %d, want 200", resp.StatusCode)
	}
}

func TestHTTPRateLimit(t *testing.T) {
	st := storeFixture(t)
	// 1 req/s steady state: the bucket holds the floor of 10.
	srv := httptest.NewServer(NewStoreHandlerWith(st, nil, HandlerOptions{RateLimit: 1}))
	defer srv.Close()

	codes := make([]int, 0, 12)
	for range 12 {
		resp, err := http.Get(srv.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		codes = append(codes, resp.StatusCode)
	}
	// The burst passes; everything after is throttled (the twelve
	// requests take far less than the 1s needed to accrue another token).
	for i, code := range codes {
		want := http.StatusOK
		if i >= 10 {
			want = http.StatusTooManyRequests
		}
		if code != want {
			t.Fatalf("request %d = %d, want %d (codes %v)", i, code, want, codes)
		}
	}

	// /healthz is exempt even for a throttled client.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("throttled client's /healthz = %d, want 200", resp.StatusCode)
	}
}

func TestHTTPRateLimitRefill(t *testing.T) {
	l := &rateLimiter{rate: 2, burst: 2, clients: map[string]*tokenBucket{}}
	now := time.Unix(1425211200, 0)
	for i := range 2 {
		if !l.allow("10.0.0.1", now) {
			t.Fatalf("burst request %d denied", i)
		}
	}
	if l.allow("10.0.0.1", now) {
		t.Fatal("request beyond the burst allowed")
	}
	// An unrelated client has its own bucket.
	if !l.allow("10.0.0.2", now) {
		t.Fatal("fresh client denied by another client's bucket")
	}
	// Half a second at 2/s accrues one token.
	if !l.allow("10.0.0.1", now.Add(500*time.Millisecond)) {
		t.Fatal("refilled token denied")
	}
	if l.allow("10.0.0.1", now.Add(500*time.Millisecond)) {
		t.Fatal("second request on a single refilled token allowed")
	}
}

// TestHTTPRateLimitClientCap floods the limiter with three caps' worth
// of distinct clients at one instant: the map never exceeds its cap, a
// full map of active clients refuses newcomers without rescanning, the
// clients already in it keep the tokens they had, and slots free up
// again once their holders have been idle for a refill interval.
func TestHTTPRateLimitClientCap(t *testing.T) {
	l := &rateLimiter{rate: 1, burst: 2, clients: map[string]*tokenBucket{}}
	now := time.Unix(1425211200, 0)
	key := func(i int) string { return fmt.Sprintf("10.%d.%d.%d", i>>16, i>>8&255, i&255) }
	for i := range 3 * maxRateClients {
		if got, want := l.allow(key(i), now), i < maxRateClients; got != want {
			t.Fatalf("client %d at the same instant: allow = %v, want %v", i, got, want)
		}
		if len(l.clients) > maxRateClients {
			t.Fatalf("client %d: %d buckets, cap is %d", i, len(l.clients), maxRateClients)
		}
	}
	// One scan when the map first filled, none for the 2×cap refusals.
	if !l.pruned.Equal(now) {
		t.Fatalf("pruned at %v, want %v", l.pruned, now)
	}
	// An established client still owns its bucket: one token of the
	// burst of two is left, and then it is throttled like before.
	if !l.allow(key(0), now) || l.allow(key(0), now) {
		t.Fatal("established client lost its bucket to the flood")
	}
	// Two seconds idle refills every bucket; the stale ones make room.
	later := now.Add(2 * time.Second)
	if !l.allow(key(3*maxRateClients), later) {
		t.Fatal("newcomer refused although every bucket had gone idle")
	}
	if len(l.clients) != 1 {
		t.Fatalf("%d buckets after the idle ones were pruned, want 1", len(l.clients))
	}
}

// TestHTTPCanceledStreamingRequest proves the NDJSON and legitimacy
// drains watch the request context: a client that is already gone
// produces no records instead of a full store scan.
func TestHTTPCanceledStreamingRequest(t *testing.T) {
	st := storeFixture(t)
	p := smallPipeline(t)
	handler := NewStoreHandlerWith(st, p, HandlerOptions{})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, path := range []string{"/events?format=ndjson", "/legitimacy"} {
		req := httptest.NewRequest("GET", path, nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		body := strings.TrimSpace(rec.Body.String())
		if body != "" {
			t.Errorf("%s with a canceled request produced output: %q", path, body)
		}
	}

	// Sanity: the same requests with a live context do produce records.
	req := httptest.NewRequest("GET", "/events?format=ndjson", nil)
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n"); len(lines) != 3 {
		t.Errorf("live NDJSON request returned %d lines, want 3", len(lines))
	}
}

func TestHTTPStatsDetectorSection(t *testing.T) {
	st := storeFixture(t)
	p := smallPipeline(t)
	det := p.NewDetector(WithSubscriberQueueBound(2, DropOldest))
	det.Subscribe()
	defer det.closeSubs()

	srv := httptest.NewServer(NewStoreHandlerWith(st, nil, HandlerOptions{Detector: det}))
	defer srv.Close()

	var stats struct {
		StoreStats // embedded: the flat store fields must survive
		Detector   struct {
			SubscriberDrops     uint64            `json:"subscriber_drops"`
			SubscriberEvictions uint64            `json:"subscriber_evictions"`
			Subscribers         []SubscriberStats `json:"subscribers"`
		} `json:"detector"`
	}
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Events != 3 {
		t.Errorf("embedded store stats report %d events, want 3", stats.Events)
	}
	if n := len(stats.Detector.Subscribers); n != 1 {
		t.Fatalf("detector section lists %d subscribers, want 1", n)
	}
	if b := stats.Detector.Subscribers[0].Bound; b != 2 {
		t.Errorf("subscriber bound = %d, want 2", b)
	}
}

// TestAnswerPoolDropsHugeBuffers: a buffer one huge answer grew past
// maxPooledAnswer goes to the GC, never back to the next answer.
func TestAnswerPoolDropsHugeBuffers(t *testing.T) {
	huge := make([]byte, 0, maxPooledAnswer+1)
	answerPool.Put(&huge)
	for range 4 {
		if b := answerPool.Get().(*[]byte); cap(*b) > maxPooledAnswer {
			t.Fatalf("the pool gave back a %d-byte buffer", cap(*b))
		}
	}
}
