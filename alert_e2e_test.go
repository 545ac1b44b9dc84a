package bgpblackholing

// End-to-end alerting: a real detector run feeds the hub, which fans
// matching alerts out to an SSE /watch client and a webhook receiver.
// The SSE client is killed mid-stream and resumed with Last-Event-ID;
// the webhook receiver fails its first two deliveries to prove the
// at-least-once retry path. Expected alert counts are recomputed
// independently from the run's events, so "exactly the matching
// alerts" is checked against ground truth, not against the hub.

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// sseFrame is one parsed "event: alert" frame from a /watch stream.
type sseFrame struct {
	id  uint64
	rec AlertRecord
}

// sseStream wraps an open /watch response for frame-at-a-time reading.
type sseStream struct {
	resp *http.Response
	sc   *bufio.Scanner
}

func dialSSE(t *testing.T, url string, lastID uint64) *sseStream {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("watch: %s: %s", resp.Status, body)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	return &sseStream{resp: resp, sc: sc}
}

func (s *sseStream) close() { s.resp.Body.Close() }

// next reads one alert frame, skipping comments and heartbeats.
func (s *sseStream) next(t *testing.T) sseFrame {
	t.Helper()
	var f sseFrame
	var data string
	for s.sc.Scan() {
		line := s.sc.Text()
		switch {
		case line == "":
			if data == "" {
				continue // comment-only frame (heartbeat, connected)
			}
			if err := json.Unmarshal([]byte(data), &f.rec); err != nil {
				t.Fatalf("alert data %q: %v", data, err)
			}
			return f
		case strings.HasPrefix(line, ":"):
			// comment
		case strings.HasPrefix(line, "id:"):
			id, err := strconv.ParseUint(strings.TrimSpace(line[3:]), 10, 64)
			if err != nil {
				t.Fatalf("sse id line %q: %v", line, err)
			}
			f.id = id
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(line[5:])
		}
	}
	t.Fatalf("sse stream ended early: %v", s.sc.Err())
	return f
}

func TestAlertingEndToEnd(t *testing.T) {
	p := smallPipeline(t)

	// Three rules, one verdict-conditioned: "every" fires on all events,
	// "long" on events of at least 30 minutes, "flagged" only when the
	// detection-time verdict is not legitimate.
	rules := make([]AlertRule, 0, 3)
	for _, spec := range []string{
		"name=every",
		"name=long min-duration=30m",
		"name=flagged verdict=illegitimate,questionable",
	} {
		r, err := ParseRule(spec)
		if err != nil {
			t.Fatal(err)
		}
		rules = append(rules, r)
	}
	hub, err := NewAlertHub(rules, AlertHubConfig{
		Annotator:  p.Annotator(),
		RingSize:   1 << 14, // hold the whole run so resume misses nothing
		WatchBound: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	// Webhook receiver: fails the first two deliveries, then records
	// every alert body in arrival order.
	var whMu sync.Mutex
	var whGot []AlertRecord
	whHits := 0
	whSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		whMu.Lock()
		defer whMu.Unlock()
		whHits++
		if whHits <= 2 {
			http.Error(w, "not yet", http.StatusInternalServerError)
			return
		}
		var rec AlertRecord
		if err := json.NewDecoder(r.Body).Decode(&rec); err != nil {
			t.Errorf("webhook body: %v", err)
		}
		if hdr := r.Header.Get("X-Alert-ID"); hdr != strconv.FormatUint(rec.ID, 10) {
			t.Errorf("X-Alert-ID %q != body id %d", hdr, rec.ID)
		}
		whGot = append(whGot, rec)
	}))
	defer whSrv.Close()
	if err := hub.AddWebhook(whSrv.URL, WebhookConfig{BaseBackoff: time.Millisecond, QueueBound: 1 << 14}); err != nil {
		t.Fatal(err)
	}

	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := httptest.NewServer(NewStoreHandlerWith(st, p, HandlerOptions{
		Hub:            hub,
		WatchHeartbeat: 50 * time.Millisecond,
	}))
	defer srv.Close()

	// First SSE client connects before the run starts, so it sees the
	// live stream from alert 1.
	live := dialSSE(t, srv.URL+"/watch", 0)

	det := p.NewDetector()
	waitHub := det.SinkToHub(hub)
	res, err := det.Run(context.Background(), p.Replay(840, 843))
	if err != nil {
		t.Fatal(err)
	}
	waitHub()
	if len(res.Events) == 0 {
		t.Fatal("replay window produced no events")
	}

	// Ground truth, recomputed independently of the hub: per-rule
	// expected fire counts over the run's closed events.
	ann := p.Annotator()
	wantEvery, wantLong, wantFlagged := len(res.Events), 0, 0
	for _, ev := range res.Events {
		if ev.End.Sub(ev.Start) >= 30*time.Minute {
			wantLong++
		}
		if v := ann.Annotate(ev).Legitimacy; v != VerdictLegitimate {
			wantFlagged++
		}
	}
	if wantLong == 0 || wantFlagged == 0 {
		t.Fatalf("window exercises too little: long=%d flagged=%d", wantLong, wantFlagged)
	}
	total := wantEvery + wantLong + wantFlagged
	if got := hub.Stats().Alerts; got != uint64(total) {
		t.Fatalf("hub emitted %d alerts, ground truth says %d", got, total)
	}

	// Kill the live client after a handful of alerts, then resume a new
	// client from its last seen id: together they must observe ids
	// 1..total exactly once, in order, with per-alert invariants intact.
	const killAfter = 5
	if total <= killAfter {
		t.Fatalf("window too small to exercise resume: %d alerts", total)
	}
	frames := make([]sseFrame, 0, total)
	for i := 0; i < killAfter; i++ {
		frames = append(frames, live.next(t))
	}
	live.close()
	resumed := dialSSE(t, srv.URL+"/watch", frames[len(frames)-1].id)
	defer resumed.close()
	for len(frames) < total {
		frames = append(frames, resumed.next(t))
	}

	gotEvery, gotLong, gotFlagged := 0, 0, 0
	for i, f := range frames {
		if f.id != uint64(i+1) {
			t.Fatalf("frame %d: id %d, want %d (monotonic, gap-free across resume)", i, f.id, i+1)
		}
		if f.rec.ID != f.id {
			t.Fatalf("frame %d: sse id %d != record id %d", i, f.id, f.rec.ID)
		}
		switch f.rec.Rule {
		case "every":
			gotEvery++
		case "long":
			gotLong++
			if f.rec.Event.DurationSeconds < 30*60 {
				t.Fatalf("alert %d: rule long fired on %.0fs event", f.id, f.rec.Event.DurationSeconds)
			}
		case "flagged":
			gotFlagged++
			if v := f.rec.Event.Legitimacy; v == string(VerdictLegitimate) || v == "" {
				t.Fatalf("alert %d: rule flagged fired with verdict %q", f.id, v)
			}
		default:
			t.Fatalf("alert %d: unknown rule %q", f.id, f.rec.Rule)
		}
		// Detection-time enrichment rides every alert record.
		if f.rec.Event.Legitimacy == "" {
			t.Fatalf("alert %d: record not enriched", f.id)
		}
	}
	if gotEvery != wantEvery || gotLong != wantLong || gotFlagged != wantFlagged {
		t.Fatalf("sse rule counts every=%d long=%d flagged=%d, want %d/%d/%d",
			gotEvery, gotLong, gotFlagged, wantEvery, wantLong, wantFlagged)
	}

	// The webhook receives the same alerts, in order, despite failing
	// its first two deliveries (at-least-once with retry).
	deadline := time.Now().Add(30 * time.Second)
	for {
		whMu.Lock()
		n := len(whGot)
		whMu.Unlock()
		if n >= total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("webhook received %d of %d alerts", n, total)
		}
		time.Sleep(10 * time.Millisecond)
	}
	whMu.Lock()
	defer whMu.Unlock()
	if whHits != total+2 {
		t.Fatalf("webhook hit %d times, want %d (total + 2 failed attempts)", whHits, total+2)
	}
	for i, rec := range whGot {
		if rec.ID != uint64(i+1) {
			t.Fatalf("webhook delivery %d: id %d, want %d (in-order despite retries)", i, rec.ID, i+1)
		}
		if rec.Rule != frames[i].rec.Rule {
			t.Fatalf("webhook delivery %d: rule %q != sse rule %q", i, rec.Rule, frames[i].rec.Rule)
		}
	}
	// The sender counts a delivery once it has read the response — a
	// moment after the receiver recorded the request.
	ws := hub.Stats().Webhooks
	for len(ws) == 1 && ws[0].Delivered < uint64(total) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		ws = hub.Stats().Webhooks
	}
	if len(ws) != 1 || ws[0].Delivered != uint64(total) || ws[0].Retries != 2 || ws[0].DeadLetters != 0 {
		t.Fatalf("webhook stats: %+v", ws)
	}

	// The query path computes its verdicts from the same world the
	// detection-time ones came from.
	for _, ev := range res.Events {
		if got := ann.Annotate(ev).Legitimacy; got == "" {
			t.Fatal("the annotator lost a verdict")
		}
	}
}

// TestWatchStalledClientBounded proves the slow-consumer contract over
// HTTP: a /watch client that never reads holds at most the watcher
// bound plus fixed plumbing, never blocks Publish, and its drops are
// visible in the /stats detector section.
func TestWatchStalledClientBounded(t *testing.T) {
	const bound = 8
	rule, err := ParseRule("name=all")
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewAlertHub([]AlertRule{rule}, AlertHubConfig{WatchBound: bound})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := httptest.NewServer(NewStoreHandlerWith(st, nil, HandlerOptions{
		Hub:            hub,
		WatchHeartbeat: time.Hour, // no heartbeats: the stream stalls for real
	}))
	defer srv.Close()

	// Connect but never read past the preamble: the server-side watcher
	// fills its bounded queue and starts dropping.
	stalled := dialSSE(t, srv.URL+"/watch", 0)
	defer stalled.close()
	waitForCond(t, func() bool { return hub.Stats().Watchers == 1 }, "watcher registration")

	const n = 500
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			hub.Publish(stallEvent(i))
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Publish blocked behind a stalled /watch client")
	}

	var stats struct {
		Detector struct {
			Alerts *AlertHubStats `json:"alerts"`
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
	a := stats.Detector.Alerts
	if a == nil {
		t.Fatal("/stats has no detector.alerts section")
	}
	if a.Published != n || a.Alerts != n {
		t.Fatalf("/stats alerts: %+v", a)
	}
	if a.WatcherDrops == 0 {
		t.Fatal("stalled /watch client recorded no drops in /stats")
	}
	// Everything is accounted for: what the client can ever hold is the
	// bound plus fixed channel plumbing; the rest must be counted drops.
	if held := uint64(n) - a.WatcherDrops; held > bound+17+64 {
		t.Fatalf("stalled client holds %d alerts beyond the bounded plumbing", held)
	}
}

// TestWatchHTTPErrors pins the error contract of the alerting surface.
func TestWatchHTTPErrors(t *testing.T) {
	rule, err := ParseRule("name=a")
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewAlertHub([]AlertRule{rule}, AlertHubConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := httptest.NewServer(NewStoreHandlerWith(st, nil, HandlerOptions{Hub: hub}))
	defer srv.Close()

	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"GET", "/watch?rule=nope", "", http.StatusNotFound},
		{"GET", "/watch?last_id=abc", "", http.StatusBadRequest},
		{"POST", "/rules", "name=b origin=65001", http.StatusOK},
		{"POST", "/rules", "mode=upward", http.StatusBadRequest},
		{"POST", "/rules", `{"name":"c","verdicts":["maybe"]}`, http.StatusBadRequest},
		{"DELETE", "/rules/b", "", http.StatusNoContent},
		{"DELETE", "/rules/b", "", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
	// The upsert+delete left the original rule set intact.
	var rules struct {
		Rules []struct {
			Syntax string `json:"syntax"`
		} `json:"rules"`
	}
	getJSON(t, srv.URL+"/rules", &rules)
	if len(rules.Rules) != 1 || rules.Rules[0].Syntax != "name=a" {
		t.Fatalf("rules after CRUD: %+v", rules.Rules)
	}
}

func waitForCond(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
