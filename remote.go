package bgpblackholing

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// RemoteBackend speaks the existing bhserve HTTP/NDJSON wire format as
// a Backend: /events (JSON and NDJSON), /figure4 (counts and the
// mergeable shape=sets form), /legitimacy, /stats and /healthz. It is
// how a bhroute router — or a federated bhquery — reaches a shard.
//
// A backend may know several URLs for the same shard: the primary
// (the read-write server) plus replicas (read-only opens of shipped
// segment copies, see ReplicateStore). Buffered requests are hedged:
// after HedgeDelay without an answer a second attempt races against a
// replica and the first success wins. Streaming requests fail over
// only before the first body byte — a half-consumed stream cannot be
// restarted without duplicating records.
type RemoteBackend struct {
	name    string
	urls    []string
	token   string
	timeout time.Duration
	hedge   time.Duration
	client  *http.Client
	// hedges counts hedged attempts launched; a federation reports it
	// as the shard's hedge counter (/stats, bh_federation_shard_hedges_total).
	hedges atomic.Uint64
}

// RemoteOptions configures NewRemoteBackend.
type RemoteOptions struct {
	// Name labels the shard in federated stats; defaults to the
	// primary URL's host.
	Name string
	// AuthToken, when non-empty, is sent as a bearer token.
	AuthToken string
	// Timeout bounds each buffered request (not streams). Defaults to
	// 30s.
	Timeout time.Duration
	// HedgeDelay is how long a buffered request may run before a
	// hedged attempt is launched against the next replica. Zero means
	// sequential failover only (try the next URL after a failure).
	HedgeDelay time.Duration
	// Client overrides the HTTP client (tests).
	Client *http.Client
}

// NewRemoteBackend builds a Backend over one shard's URL set: the
// primary first, then replicas in preference order.
func NewRemoteBackend(urls []string, opts RemoteOptions) (*RemoteBackend, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("remote backend needs at least one URL")
	}
	cleaned := make([]string, len(urls))
	for i, u := range urls {
		cleaned[i] = strings.TrimRight(strings.TrimSpace(u), "/")
		if cleaned[i] == "" {
			return nil, fmt.Errorf("remote backend URL %d is empty", i)
		}
	}
	b := &RemoteBackend{
		name:    opts.Name,
		urls:    cleaned,
		token:   opts.AuthToken,
		timeout: opts.Timeout,
		hedge:   opts.HedgeDelay,
		client:  opts.Client,
	}
	if b.name == "" {
		if u, err := url.Parse(cleaned[0]); err == nil && u.Host != "" {
			b.name = u.Host
		} else {
			b.name = cleaned[0]
		}
	}
	if b.timeout <= 0 {
		b.timeout = 30 * time.Second
	}
	if b.client == nil {
		b.client = http.DefaultClient
	}
	return b, nil
}

// Name implements Backend.
func (b *RemoteBackend) Name() string { return b.name }

// URL returns the shard's primary endpoint.
func (b *RemoteBackend) URL() string { return b.urls[0] }

// Close implements Backend. The HTTP client is shared; nothing to
// release.
func (b *RemoteBackend) Close() error { return nil }

// RemoteError is a non-2xx answer from a shard, preserving the status
// so a router can distinguish a shard's 400 (caller error — propagate)
// from a 5xx (shard failure — count and degrade).
type RemoteError struct {
	Status int
	Msg    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote status %d: %s", e.Status, e.Msg)
}

// attempt runs one GET against one base URL. On non-2xx the body's
// {"error": ...} is folded into a *RemoteError.
func (b *RemoteBackend) attempt(ctx context.Context, base, path string, params url.Values) (*http.Response, error) {
	u := base + path
	if len(params) > 0 {
		u += "?" + params.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	if b.token != "" {
		req.Header.Set("Authorization", "Bearer "+b.token)
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		msg := resp.Status
		var body struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err == nil && body.Error != "" {
			msg = body.Error
		}
		return nil, &RemoteError{Status: resp.StatusCode, Msg: msg}
	}
	return resp, nil
}

// failover walks the URL set in order and returns the first answer. A
// 4xx ends the walk: it is the caller's error, and every replica would
// answer the same.
func (b *RemoteBackend) failover(ctx context.Context, path string, params url.Values) (*http.Response, error) {
	var resp *http.Response
	var err error
	for _, u := range b.urls {
		if resp, err = b.attempt(ctx, u, path, params); err == nil {
			return resp, nil
		}
		var re *RemoteError
		if errors.As(err, &re) && re.Status/100 == 4 {
			break
		}
	}
	return nil, err
}

// hedged races the URL set for a buffered request: the primary starts
// immediately; every HedgeDelay without an answer the next replica
// joins (counted in b.hedges). The first success wins and the losers
// are cancelled. With no hedge delay (or a single URL) it degrades to
// sequential failover.
func (b *RemoteBackend) hedged(ctx context.Context, path string, params url.Values) (*http.Response, error) {
	ctx, cancel := context.WithTimeout(ctx, b.timeout)
	if len(b.urls) == 1 || b.hedge <= 0 {
		resp, err := b.failover(ctx, path, params)
		if err != nil {
			cancel()
			return nil, err
		}
		// The response body must outlive this call; cancel only when
		// the caller is done reading it.
		resp.Body = &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
		return resp, nil
	}

	type outcome struct {
		resp *http.Response
		err  error
	}
	results := make(chan outcome, len(b.urls))
	launched := 0
	launch := func() {
		u := b.urls[launched]
		launched++
		go func() {
			r, err := b.attempt(ctx, u, path, params)
			results <- outcome{r, err}
		}()
	}
	launch()
	timer := time.NewTimer(b.hedge)
	defer timer.Stop()
	var lastErr error
	for pending := 1; pending > 0 || launched < len(b.urls); {
		select {
		case out := <-results:
			pending--
			if out.err == nil {
				out.resp.Body = &cancelOnClose{ReadCloser: out.resp.Body, cancel: cancel}
				// Close losing hedge responses in the background.
				go func(pending int) {
					for i := 0; i < pending; i++ {
						if late := <-results; late.resp != nil {
							late.resp.Body.Close()
						}
					}
				}(pending)
				return out.resp, nil
			}
			lastErr = out.err
			if pending == 0 && launched < len(b.urls) {
				launch()
				pending++
			}
		case <-timer.C:
			if launched < len(b.urls) {
				b.hedges.Add(1)
				launch()
				pending++
				timer.Reset(b.hedge)
			}
		case <-ctx.Done():
			cancel()
			return nil, ctx.Err()
		}
	}
	cancel()
	return nil, lastErr
}

// cancelOnClose ties a context cancel to the response body's lifetime.
type cancelOnClose struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelOnClose) Close() error {
	err := c.ReadCloser.Close()
	c.cancel()
	return err
}

// getJSON runs a hedged GET and decodes the answer.
func (b *RemoteBackend) getJSON(ctx context.Context, path string, params url.Values, v any) error {
	resp, err := b.hedged(ctx, path, params)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// maxRemoteLimit is the explicit limit a remote Records call sends
// when the caller wants everything: shard handlers cap unlimited JSON
// queries at their own default, which would silently truncate a
// federated merge.
const maxRemoteLimit = 1 << 30

// Records implements Backend over GET /events (JSON envelope).
func (b *RemoteBackend) Records(ctx context.Context, q Query) (*RecordSet, error) {
	began := time.Now()
	params := queryParams(q)
	if q.Limit <= 0 {
		params.Set("limit", strconv.Itoa(maxRemoteLimit))
	}
	var envelope struct {
		Total   int            `json:"total"`
		Scanned int            `json:"scanned"`
		Events  []*EventRecord `json:"events"`
	}
	if err := b.getJSON(ctx, "/events", params, &envelope); err != nil {
		return nil, err
	}
	return &RecordSet{
		Records: envelope.Events,
		Total:   envelope.Total,
		Scanned: envelope.Scanned,
		Elapsed: time.Since(began),
	}, nil
}

// recordLineKey is the minimal per-line decode a merge needs — the
// full record rides through as raw bytes.
type recordLineKey struct {
	Prefix string    `json:"prefix"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Seq    uint64    `json:"seq"`
}

// RecordLines implements Backend over GET /events?format=ndjson.
// Failover walks the URL set sequentially and only before the first
// body byte; once a stream is live its shard is committed.
func (b *RemoteBackend) RecordLines(ctx context.Context, q Query) (*RecordStream, error) {
	params := queryParams(q)
	params.Set("format", "ndjson")
	resp, err := b.failover(ctx, "/events", params)
	if err != nil {
		return nil, err
	}
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	return &RecordStream{
		next: func() (RecordLine, error) {
			for {
				raw, err := rd.ReadBytes('\n')
				line := bytes.TrimRight(raw, "\n")
				if len(line) == 0 {
					if err != nil {
						if err == io.EOF {
							return RecordLine{}, io.EOF
						}
						return RecordLine{}, err
					}
					continue // blank keep-alive line
				}
				var key recordLineKey
				if jerr := json.Unmarshal(line, &key); jerr != nil {
					return RecordLine{}, fmt.Errorf("shard %s: bad NDJSON line: %v", b.name, jerr)
				}
				// The line must be owned by the caller: ReadBytes
				// allocates per line, so no copy is needed.
				return RecordLine{
					Key: RecordKey{
						End:    key.End.UnixNano(),
						Seq:    key.Seq,
						Start:  key.Start.UnixNano(),
						Prefix: key.Prefix,
					},
					Line: line,
				}, nil
			}
		},
		close: func() { resp.Body.Close() },
	}, nil
}

// figure4Params renders a Figure 4 window as the /figure4 parameter set.
func figure4Params(start time.Time, days int) url.Values {
	return url.Values{"start": {start.UTC().Format(time.RFC3339)}, "days": {strconv.Itoa(days)}}
}

// Figure4 implements Backend over GET /figure4.
func (b *RemoteBackend) Figure4(ctx context.Context, start time.Time, days int) (*Figure4Result, error) {
	var series []DailyPoint
	if err := b.getJSON(ctx, "/figure4", figure4Params(start, days), &series); err != nil {
		return nil, err
	}
	return &Figure4Result{Series: series}, nil
}

// Figure4Sets implements Backend over GET /figure4?shape=sets.
func (b *RemoteBackend) Figure4Sets(ctx context.Context, start time.Time, days int) (*Figure4Sets, error) {
	params := figure4Params(start, days)
	params.Set("shape", "sets")
	var sets Figure4Sets
	if err := b.getJSON(ctx, "/figure4", params, &sets); err != nil {
		return nil, err
	}
	return &sets, nil
}

// LegitimacySummary implements Backend over GET /legitimacy.
func (b *RemoteBackend) LegitimacySummary(ctx context.Context, q Query) (*LegitimacySummary, error) {
	sum := newLegitimacySummary()
	if err := b.getJSON(ctx, "/legitimacy", queryParams(q), sum); err != nil {
		return nil, err
	}
	return sum, nil
}

// Stats implements Backend over GET /stats. Extra sections a shard
// serves (the detector block) are ignored; a shard that is itself a
// federation forwards its shards block.
func (b *RemoteBackend) Stats(ctx context.Context) (*BackendStats, error) {
	var stats BackendStats
	if err := b.getJSON(ctx, "/stats", nil, &stats); err != nil {
		return nil, err
	}
	return &stats, nil
}

// Healthz implements Backend over GET /healthz. A reachable-but-
// degraded shard answers 503 with a JSON body; both that and a plain
// 200 parse here. An unreachable shard is "down".
func (b *RemoteBackend) Healthz(ctx context.Context) *ShardHealth {
	ctx, cancel := context.WithTimeout(ctx, b.timeout)
	defer cancel()
	var lastErr error
	for _, u := range b.urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/healthz", nil)
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := b.client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		h := &ShardHealth{} // the /healthz body is a ShardHealth's status, events and checks
		err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(h)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		h.Name = b.name
		if h.Status == "" {
			h.Status = "degraded"
		}
		return h
	}
	h := &ShardHealth{Name: b.name, Status: "down"}
	if lastErr != nil {
		h.Err = lastErr.Error()
	}
	return h
}
