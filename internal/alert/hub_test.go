package alert

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"bgpblackholing/internal/enrich"
)

// testEncode is the tests' alert wire form: the id and rule alone.
func testEncode(a *Alert) ([]byte, error) {
	return fmt.Appendf(nil, `{"id":%d,"rule":%q}`, a.ID, a.Rule), nil
}

func testHub(t *testing.T, cfg Config, specs ...string) *Hub {
	t.Helper()
	if cfg.Encode == nil {
		cfg.Encode = testEncode
	}
	h, err := NewHub(mustRules(t, specs...), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	return h
}

// TestHubRequiresEncode: alerts have one wire form, the one the caller
// installs; a hub without it is refused, not given a second one.
func TestHubRequiresEncode(t *testing.T) {
	if h, err := NewHub(mustRules(t, "name=all"), Config{}); err == nil {
		h.Close()
		t.Fatal("NewHub without Config.Encode succeeded")
	}
}

func TestHubWatchOrderAndIDs(t *testing.T) {
	h := testHub(t, Config{},
		"name=all",
		"name=sub prefix=10.0.0.0/8 mode=covered",
	)
	w, err := h.Watch(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	for i := 0; i < 5; i++ {
		h.Publish(testEvent(fmt.Sprintf("10.0.0.%d/32", i+1), time.Minute, nil, nil, nil))
	}
	// Each event fires both rules: 10 alerts with ids 1..10, in order.
	var last uint64
	for i := 0; i < 10; i++ {
		select {
		case a := <-w.C():
			if a.ID != last+1 {
				t.Fatalf("alert %d: id %d, want %d", i, a.ID, last+1)
			}
			last = a.ID
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out at alert %d", i)
		}
	}
	s := h.Stats()
	if s.Published != 5 || s.Alerts != 10 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestHubWatchRuleFilterAndUnknown(t *testing.T) {
	h := testHub(t, Config{}, "name=a", "name=b")
	if _, err := h.Watch([]string{"nope"}, 0); err == nil {
		t.Fatal("unknown rule accepted")
	}
	w, err := h.Watch([]string{"b"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	h.Publish(testEvent("10.0.0.1/32", time.Minute, nil, nil, nil))
	a := <-w.C()
	if a.Rule != "b" {
		t.Fatalf("filtered watcher got rule %q", a.Rule)
	}
	select {
	case a := <-w.C():
		t.Fatalf("unexpected second alert %q", a.Rule)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestHubReplayResume(t *testing.T) {
	h := testHub(t, Config{RingSize: 8}, "name=all")
	for i := 0; i < 5; i++ {
		h.Publish(testEvent("10.0.0.1/32", time.Minute, nil, nil, nil))
	}
	// Resume from id 2: ids 3, 4, 5 replay from the ring.
	w, err := h.Watch(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for want := uint64(3); want <= 5; want++ {
		select {
		case a := <-w.C():
			if a.ID != want {
				t.Fatalf("resume got id %d, want %d", a.ID, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for id %d", want)
		}
	}
	// And live delivery continues after the replay.
	h.Publish(testEvent("10.0.0.1/32", time.Minute, nil, nil, nil))
	if a := <-w.C(); a.ID != 6 {
		t.Fatalf("live after resume: id %d, want 6", a.ID)
	}
}

func TestHubRingEviction(t *testing.T) {
	h := testHub(t, Config{RingSize: 4}, "name=all")
	for i := 0; i < 10; i++ {
		h.Publish(testEvent("10.0.0.1/32", time.Minute, nil, nil, nil))
	}
	// Only the last 4 alerts (ids 7-10) survive in the ring.
	w, err := h.Watch(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if a := <-w.C(); a.ID != 7 {
		t.Fatalf("ring head id %d, want 7", a.ID)
	}
}

func TestHubStalledWatcherBounded(t *testing.T) {
	const bound = 8
	h := testHub(t, Config{WatchBound: bound}, "name=all")
	w, err := h.Watch(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// Publish far more than the watcher bound without reading: Publish
	// must never block, the backlog stays bounded, and drops count.
	const n = 500
	donePub := make(chan struct{})
	go func() {
		defer close(donePub)
		for i := 0; i < n; i++ {
			h.Publish(testEvent("10.0.0.1/32", time.Minute, nil, nil, nil))
		}
	}()
	select {
	case <-donePub:
	case <-time.After(10 * time.Second):
		t.Fatal("Publish blocked on a stalled watcher")
	}
	if w.Drops() == 0 {
		t.Fatal("stalled watcher recorded no drops")
	}
	// The watcher can hold at most bound (queue) + the pump channel's
	// capacity + one in flight.
	held := 0
	deadline := time.After(2 * time.Second)
drain:
	for {
		select {
		case <-w.C():
			held++
		case <-deadline:
			break drain
		default:
			if held > 0 {
				break drain
			}
		}
	}
	if held > bound+17 {
		t.Fatalf("stalled watcher held %d alerts, want <= %d", held, bound+17)
	}
	if s := h.Stats(); s.WatcherDrops != w.Drops() {
		t.Fatalf("stats drops %d != watcher drops %d", s.WatcherDrops, w.Drops())
	}
}

func TestHubRulesCRUD(t *testing.T) {
	h := testHub(t, Config{}, "name=a")
	if err := h.UpsertRule(mustRules(t, "name=b origin=65001")[0]); err != nil {
		t.Fatal(err)
	}
	if got := h.Rules(); len(got) != 2 {
		t.Fatalf("rules after upsert: %v", got)
	}
	// Replace by name.
	if err := h.UpsertRule(mustRules(t, "name=b origin=65002")[0]); err != nil {
		t.Fatal(err)
	}
	if got := h.Rules(); len(got) != 2 || got[1].Origins[0] != 65002 {
		t.Fatalf("rules after replace: %v", got)
	}
	if !h.DeleteRule("a") || h.DeleteRule("a") {
		t.Fatal("delete semantics")
	}
	if err := h.SetRules(mustRules(t, "name=x", "name=y")); err != nil {
		t.Fatal(err)
	}
	if got := h.Rules(); len(got) != 2 || got[0].Name != "x" {
		t.Fatalf("rules after set: %v", got)
	}
}

func TestWebhookRetryAndDeadLetter(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Fail the first two deliveries, accept from the third on.
		if hits.Add(1) <= 2 {
			http.Error(w, "try again", http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	h := testHub(t, Config{}, "name=all")
	if err := h.AddWebhook(srv.URL, WebhookConfig{BaseBackoff: time.Millisecond, MaxAttempts: 5}); err != nil {
		t.Fatal(err)
	}
	h.Publish(testEvent("10.0.0.1/32", time.Minute, nil, nil, nil))

	waitFor(t, func() bool {
		s := h.Stats()
		return len(s.Webhooks) == 1 && s.Webhooks[0].Delivered == 1
	}, "delivery after retries")
	ws := h.Stats().Webhooks[0]
	if ws.Retries != 2 || ws.DeadLetters != 0 {
		t.Fatalf("webhook stats: %+v", ws)
	}

	// A permanently failing endpoint dead-letters after MaxAttempts.
	var always atomic.Int64
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		always.Add(1)
		http.Error(w, "no", http.StatusBadGateway)
	}))
	defer bad.Close()
	if err := h.AddWebhook(bad.URL, WebhookConfig{BaseBackoff: time.Millisecond, MaxAttempts: 3}); err != nil {
		t.Fatal(err)
	}
	h.Publish(testEvent("10.0.0.2/32", time.Minute, nil, nil, nil))
	waitFor(t, func() bool {
		for _, ws := range h.Stats().Webhooks {
			if ws.URL == bad.URL && ws.DeadLetters == 1 {
				return true
			}
		}
		return false
	}, "dead letter")
	if got := always.Load(); got != 3 {
		t.Fatalf("failing endpoint hit %d times, want 3", got)
	}
}

func TestHubDetectionTimeEnrichment(t *testing.T) {
	// A nil-world annotator always answers "legitimate" — enough to
	// prove verdict-conditioned matching.
	ann := enrich.New(nil, nil)
	h := testHub(t, Config{Annotator: ann},
		"name=ok verdict=legitimate",
		"name=bad verdict=illegitimate",
	)
	w, err := h.Watch(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ev := testEvent("10.0.0.1/32", time.Minute, nil, nil, nil)
	h.Publish(ev)
	a := <-w.C()
	if a.Rule != "ok" {
		t.Fatalf("verdict rule: got %q", a.Rule)
	}
	if a.Ann == nil || a.Ann.Legitimacy != enrich.VerdictLegitimate {
		t.Fatalf("alert annotation: %+v", a.Ann)
	}
	// The query path annotates the event again and must agree.
	if got := ann.Annotate(ev); got.Legitimacy != a.Ann.Legitimacy {
		t.Fatalf("query-time verdict %q, the alert carried %q", got.Legitimacy, a.Ann.Legitimacy)
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
