package alert

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"bgpblackholing/internal/stream"
)

// WebhookConfig parameterizes one webhook registration. The zero value
// gives 5 attempts, 100ms base backoff, a 10s request timeout, and a
// 256-alert queue.
type WebhookConfig struct {
	// Client overrides the HTTP client (tests inject an httptest-bound
	// one). Defaults to a client with Timeout.
	Client *http.Client
	// MaxAttempts bounds delivery attempts per alert; an alert that
	// exhausts them is dead-lettered (counted, then dropped — at-least-
	// once only up to this bound). Default 5.
	MaxAttempts int
	// BaseBackoff is the first retry delay; each retry doubles it, with
	// ±50% jitter. Default 100ms.
	BaseBackoff time.Duration
	// Timeout applies per request when Client is nil. Default 10s.
	Timeout time.Duration
	// QueueBound bounds the per-webhook pending queue; on overflow the
	// newest alert is dropped and counted. Default 256.
	QueueBound int
}

type webhook struct {
	url  string
	cfg  WebhookConfig
	q    *stream.Queue[*Alert] // bounded; a full queue refuses the newest alert
	stop <-chan struct{}

	delivered   atomic.Uint64
	retries     atomic.Uint64
	deadLetters atomic.Uint64
}

// WebhookStats is the delivery ledger for one registered webhook.
type WebhookStats struct {
	URL string `json:"url"`
	// Queued is the current backlog.
	Queued int `json:"queued"`
	// Delivered counts alerts acknowledged with a 2xx.
	Delivered uint64 `json:"delivered"`
	// Retries counts re-attempts after a failed delivery.
	Retries uint64 `json:"retries"`
	// DeadLetters counts alerts abandoned after MaxAttempts failures.
	DeadLetters uint64 `json:"dead_letters"`
	// Dropped counts alerts discarded on queue overflow.
	Dropped uint64 `json:"dropped"`
}

func (w *webhook) stats() WebhookStats {
	return WebhookStats{
		URL:         w.url,
		Queued:      w.q.Len(),
		Delivered:   w.delivered.Load(),
		Retries:     w.retries.Load(),
		DeadLetters: w.deadLetters.Load(),
		Dropped:     w.q.Dropped(),
	}
}

// AddWebhook registers a webhook endpoint: every matched alert is
// POSTed to url as JSON (the alert payload), with at-least-once
// delivery up to MaxAttempts and jittered exponential backoff between
// attempts. Delivery runs on its own goroutine per webhook, so a slow
// or dead endpoint costs a bounded queue, never inference time.
func (h *Hub) AddWebhook(url string, cfg WebhookConfig) error {
	if url == "" {
		return fmt.Errorf("alert: empty webhook url")
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 100 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.QueueBound <= 0 {
		cfg.QueueBound = 256
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: cfg.Timeout}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return fmt.Errorf("alert: hub closed")
	}
	w := &webhook{
		url:  url,
		cfg:  cfg,
		q:    stream.NewQueue[*Alert](cfg.QueueBound),
		stop: h.stop,
	}
	h.webhooks = append(h.webhooks, w)
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		w.run()
	}()
	return nil
}

// run delivers queued alerts until Hub.Close has closed the queue and
// it has drained.
func (w *webhook) run() {
	for {
		a, err := w.q.Pop()
		if err != nil || !w.deliver(a) {
			return // queue closed and drained, or hub shut down mid-backoff
		}
	}
}

// deliver POSTs one alert, retrying with jittered exponential backoff.
// It returns false only when the hub stopped while waiting to retry.
func (w *webhook) deliver(a *Alert) bool {
	if a.Payload() == nil {
		return true // encode error, already counted by the hub
	}
	for attempt := 0; attempt < w.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			w.retries.Add(1)
			if !w.sleep(backoff(w.cfg.BaseBackoff, attempt)) {
				return false
			}
		}
		if w.post(a) {
			w.delivered.Add(1)
			return true
		}
	}
	w.deadLetters.Add(1)
	return true
}

// post attempts one delivery; true on a 2xx.
func (w *webhook) post(a *Alert) bool {
	req, err := http.NewRequest(http.MethodPost, w.url, bytes.NewReader(a.Payload()))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Alert-ID", strconv.FormatUint(a.ID, 10))
	req.Header.Set("X-Alert-Rule", a.Rule)
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode >= 200 && resp.StatusCode < 300
}

// sleep waits d or until hub shutdown; false means shutdown.
func (w *webhook) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-w.stop:
		return false
	}
}

// backoff computes the delay before retry `attempt` (1-based):
// base·2^(attempt-1), jittered ±50% so synchronized failures don't
// retry in lockstep.
func backoff(base time.Duration, attempt int) time.Duration {
	d := base << (attempt - 1)
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}
