package bgpblackholing

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// NewStoreHandler serves a Store over HTTP: longitudinal blackholing
// queries as JSON or NDJSON, plus store-backed reproductions of the
// paper's aggregations. p may be nil; the table endpoints, which need
// the deployment and topology, then answer 503.
//
// Routes (all GET):
//
//	/healthz                       liveness + event count
//	/stats                         store shape (segments, span, indexes)
//	/events                        query; filters via parameters:
//	    from, to          RFC 3339 timestamps (span overlap)
//	    prefix            IP prefix or address
//	    mode              exact | lpm | covered | covering
//	    origin            blackholing user ASN
//	    provider          AS3356 | ixp:4
//	    community         dictionary community ("3356:9999")
//	    min_duration,
//	    max_duration      Go durations ("90s", "1h30m")
//	    limit             max events returned (JSON responses default
//	                      to 10000; pass an explicit limit to raise it)
//	    enrich            1 | true: annotate each event with RPKI
//	                      validity, community documentation status and
//	                      a legitimacy verdict (needs the pipeline's
//	                      world; 503 otherwise)
//	    format            json (default) | ndjson (streaming, uncapped;
//	                      also via the Accept: application/x-ndjson
//	                      header) | lines (the JSON answer unwrapped:
//	                      its records one per line under the same
//	                      limit, its total, scanned and returned in
//	                      the X-Events-Total, X-Events-Scanned and
//	                      X-Events-Returned headers — what a router
//	                      asks of a shard)
//	/legitimacy                    legitimacy summary over the same
//	                               filter params: verdict, RPKI-state
//	                               and community-doc histograms (needs
//	                               pipeline)
//	/figure4?start=&days=&every=   daily longitudinal series
//	/figure8?timeout=              duration distributions (raw/grouped)
//	/table3                        visibility overview (needs pipeline)
//	/table4                        visibility by provider type (needs pipeline)
//
// With HandlerOptions.Hub set, the alerting surface is added:
//
//	GET  /watch?rule=...           SSE stream of matching alerts
//	                               (repeatable rule param filters; none
//	                               means all rules; Last-Event-ID or
//	                               last_id resumes from the replay ring;
//	                               ": heartbeat" comments keep the
//	                               connection alive)
//	GET  /rules                    list compiled rules
//	POST /rules                    upsert one rule (JSON object or the
//	                               compact "name=x prefix=..." syntax)
//	DELETE /rules/{name}           remove one rule
//
// With HandlerOptions.Telemetry set, GET /metrics serves the Prometheus
// text exposition and every route is wrapped in the request middleware;
// with Pprof set, net/http/pprof mounts under /debug/pprof/ (behind
// AuthToken, like everything except /healthz).
//
// When p carries a world, its annotator (registry + dictionary) powers
// enrich=1 and /legitimacy; without a pipeline the handler falls back
// to an annotator attached to the store (Store.SetAnnotator), and a
// bare store-only handler serves everything else unchanged.
func NewStoreHandler(st *Store, p *Pipeline) http.Handler {
	return NewStoreHandlerWith(st, p, HandlerOptions{})
}

// HandlerOptions hardens the HTTP API for exposure beyond localhost.
// The zero value — no auth, no rate limit — preserves NewStoreHandler's
// open behavior.
type HandlerOptions struct {
	// AuthToken, when non-empty, requires every request (except
	// /healthz, so liveness probes keep working) to carry
	// "Authorization: Bearer <token>"; anything else is a 401.
	AuthToken string
	// RateLimit, when positive, is the per-client steady-state request
	// rate (requests/second, token bucket keyed by client IP); excess
	// requests get a 429. /healthz is exempt. The bucket depth — how
	// many requests a client may burst above the steady rate — is
	// max(10, ceil(RateLimit)).
	RateLimit float64
	// Detector, when non-nil, adds the live fan-out counters (drops,
	// evictions, per-subscriber queue depth) to /stats.
	Detector *Detector
	// Hub, when non-nil, serves the alerting surface: the /watch SSE
	// stream, /rules CRUD (behind AuthToken like every other route),
	// and hub delivery counters in the /stats detector section.
	Hub *AlertHub
	// WatchHeartbeat is the SSE heartbeat-comment interval on /watch.
	// Defaults to 15s.
	WatchHeartbeat time.Duration
	// Telemetry, when non-nil, serves GET /metrics (Prometheus text
	// exposition) and wraps every route in the request middleware
	// (per-route counter with status-class label, in-flight gauge,
	// duration histogram).
	Telemetry *Telemetry
	// Pprof mounts net/http/pprof under /debug/pprof/. Like every
	// route except /healthz it sits behind AuthToken when one is set.
	Pprof bool
	// RedialSources, when non-empty, folds each source's session
	// counters into /stats and makes /healthz report degraded when a
	// source has exhausted its retry budget.
	RedialSources []*RedialSource
}

// NewStoreHandlerWith is NewStoreHandler plus live-exposure hardening:
// optional bearer-token auth and a per-client token-bucket rate limit.
func NewStoreHandlerWith(st *Store, p *Pipeline, opts HandlerOptions) http.Handler {
	return newHandler(NewStoreBackend(st, p), opts)
}

// routes is every GET data route: its pattern, its handler, and whether
// any Backend answers it — a federation merging its shards' answers — or
// only an in-process store, which holds whole events and the world; any
// other Backend answers a store-only route 501. TestEveryRouteFederates
// drives every row over a store, a router and a router of routers.
var routes = []struct {
	pattern string
	serve   func(h *handler, w http.ResponseWriter, r *http.Request)
	merged  bool
}{
	{"GET /healthz", (*handler).healthz, true},
	{"GET /stats", (*handler).stats, true},
	{"GET /events", (*handler).events, true},
	{"GET /legitimacy", (*handler).legitimacy, true},
	{"GET /figure4", (*handler).figure4, true},
	{"GET /figure8", (*handler).figure8, false},
	{"GET /table3", fromWorld("deployment", (*Pipeline).Table3FromStore), false},
	{"GET /table4", fromWorld("topology", (*Pipeline).Table4FromStore), false},
}

// newHandler is the one HTTP read surface: it mounts every row of routes
// over be, and the alerting, metrics and profiling routes opts asks for.
func newHandler(be Backend, opts HandlerOptions) http.Handler {
	h := &handler{be: be, det: opts.Detector, hub: opts.Hub,
		redials: opts.RedialSources, heartbeat: opts.WatchHeartbeat}
	h.store, _ = be.(*StoreBackend)
	if h.heartbeat <= 0 {
		h.heartbeat = 15 * time.Second
	}
	mux := http.NewServeMux()
	// handle wraps each route in the telemetry middleware at
	// registration time, so the route label is the static mux pattern —
	// no per-request pattern lookup, and streaming handlers keep their
	// Flusher through the status-recording writer.
	handle := func(pattern string, fn http.Handler) {
		if opts.Telemetry != nil {
			fn = opts.Telemetry.instrument(pattern, fn)
		}
		mux.Handle(pattern, fn)
	}
	for _, rt := range routes {
		serve := rt.serve
		if !rt.merged && h.store == nil {
			serve = func(_ *handler, w http.ResponseWriter, r *http.Request) {
				httpError(w, http.StatusNotImplemented, "%s needs whole events, which only an in-process store holds, not backend %q: ask a shard", r.URL.Path, be.Name())
			}
		}
		handle(rt.pattern, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { serve(h, w, r) }))
	}
	if opts.Hub != nil {
		handle("GET /watch", http.HandlerFunc(h.watch))
		handle("GET /rules", http.HandlerFunc(h.rulesList))
		handle("POST /rules", http.HandlerFunc(h.rulesUpsert))
		handle("DELETE /rules/{name}", http.HandlerFunc(h.rulesDelete))
	}
	if opts.Telemetry != nil {
		handle("GET /metrics", opts.Telemetry.MetricsHandler())
	}
	if opts.Pprof {
		// Index serves /debug/pprof/{heap,goroutine,...} lookups itself;
		// the handler-backed profiles need their own routes.
		handle("GET /debug/pprof/", http.HandlerFunc(pprof.Index))
		handle("GET /debug/pprof/cmdline", http.HandlerFunc(pprof.Cmdline))
		handle("GET /debug/pprof/profile", http.HandlerFunc(pprof.Profile))
		handle("GET /debug/pprof/symbol", http.HandlerFunc(pprof.Symbol))
		handle("GET /debug/pprof/trace", http.HandlerFunc(pprof.Trace))
	}
	var handler http.Handler = mux
	if opts.RateLimit > 0 {
		handler = rateLimitMiddleware(handler, opts.RateLimit, max(10, int(opts.RateLimit+0.999)))
	}
	if opts.AuthToken != "" {
		handler = authMiddleware(handler, opts.AuthToken)
	}
	return handler
}

// authMiddleware enforces a bearer token on everything but /healthz.
func authMiddleware(next http.Handler, token string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			next.ServeHTTP(w, r)
			return
		}
		got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok || subtle.ConstantTimeCompare([]byte(got), []byte(token)) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="bgpblackholing"`)
			httpError(w, http.StatusUnauthorized, "missing or invalid bearer token")
			return
		}
		next.ServeHTTP(w, r)
	})
}

// rateLimiter is a per-client token bucket: each client accrues rate
// tokens per second up to burst, one request spends one token.
type rateLimiter struct {
	mu      sync.Mutex
	rate    float64
	burst   float64
	clients map[string]*tokenBucket
	pruned  time.Time // last pruneLocked scan
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// maxRateClients caps the client map. At the cap, buckets idle long
// enough to have refilled are pruned — at most one scan per refill
// interval — and while every slot is still held by a recently seen
// client a newcomer is refused: established clients keep their buckets
// and a flood of addresses costs neither memory nor a scan per request.
const maxRateClients = 4096

func (l *rateLimiter) allow(key string, now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.clients[key]
	if b == nil {
		if len(l.clients) >= maxRateClients {
			l.pruneLocked(now)
			if len(l.clients) >= maxRateClients {
				return false
			}
		}
		b = &tokenBucket{tokens: l.burst, last: now}
		l.clients[key] = b
	} else {
		b.tokens = min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// pruneLocked drops buckets idle long enough to have refilled fully —
// indistinguishable from a fresh client. It scans at most once per
// refill interval.
func (l *rateLimiter) pruneLocked(now time.Time) {
	full := l.burst / l.rate // seconds to refill from empty
	if now.Sub(l.pruned).Seconds() < full {
		return
	}
	l.pruned = now
	for k, b := range l.clients {
		if now.Sub(b.last).Seconds() >= full {
			delete(l.clients, k)
		}
	}
}

// rateLimitMiddleware enforces a per-client-IP token bucket on
// everything but /healthz.
func rateLimitMiddleware(next http.Handler, rate float64, burst int) http.Handler {
	l := &rateLimiter{rate: rate, burst: float64(burst), clients: map[string]*tokenBucket{}}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			next.ServeHTTP(w, r)
			return
		}
		key := r.RemoteAddr
		if host, _, err := net.SplitHostPort(key); err == nil {
			key = host
		}
		if !l.allow(key, time.Now()) {
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, "rate limit exceeded")
			return
		}
		next.ServeHTTP(w, r)
	})
}

type handler struct {
	be    Backend
	store *StoreBackend // be, when it is an in-process store: what the store-only routes read

	det       *Detector       // optional: fan-out counters on /stats
	hub       *AlertHub       // optional: /watch, /rules, hub counters
	redials   []*RedialSource // optional: session counters on /stats, readiness on /healthz
	heartbeat time.Duration
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON answers v in json.Encoder's bytes under SetIndent("", "  ")
// — json.Marshal's and a newline, laid out — or, when v does not encode,
// with a 500.
func writeJSON(w http.ResponseWriter, v any) {
	compact, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding the answer: %v", err)
		return
	}
	buf := answerPool.Get().(*[]byte)
	defer answerPool.Put(buf)
	*buf, _ = appendIndented((*buf)[:0], append(compact, '\n')) // what Marshal writes is JSON
	w.Header().Set("Content-Type", "application/json")
	w.Write(*buf)
}

// appendIndented appends src laid out as json.Indent(dst, src, "", "  ")
// lays it out, and fails where that fails (FuzzIndentJSON holds it to
// the library): the value's tokens, each member and each closer of a
// non-empty container on a line of its own, ": " after a key, and the
// white space after the value copied.
func appendIndented(dst, src []byte) ([]byte, error) {
	dst, end := indentValue(dst, src, skipSpace(src, 0), 0)
	if end < 0 || skipSpace(src, end) != len(src) {
		return dst, errors.New("not a JSON value")
	}
	return append(dst, src[end:]...), nil
}

// indentValue appends the JSON value starting at b[i] laid out with depth
// containers open around it, and returns the index after it in b, or -1
// if there is none by encoding/json's grammar (remote.go's).
func indentValue(dst, b []byte, i, depth int) ([]byte, int) {
	if end := skipScalar(b, i); end >= 0 {
		return append(dst, b[i:end]...), end
	}
	if depth++; i >= len(b) || b[i] != '{' && b[i] != '[' || depth > maxJSONDepth {
		return dst, -1
	}
	c := b[i]
	closer := c + 2 // '}' is '{'+2 and ']' is '['+2
	dst = append(dst, c)
	if i = skipSpace(b, i+1); i < len(b) && b[i] == closer {
		return append(dst, closer), i + 1
	}
	for {
		dst = append(dst, newline[:1+2*depth]...)
		if c == '{' {
			end, _ := skipString(b, i)
			if end < 0 {
				return dst, -1
			}
			dst = append(append(dst, b[i:end]...), ':', ' ')
			if i = skipSpace(b, end); i >= len(b) || b[i] != ':' {
				return dst, -1
			}
			i = skipSpace(b, i+1)
		}
		var end int
		if dst, end = indentValue(dst, b, i, depth); end < 0 {
			return dst, -1
		}
		if i = skipSpace(b, end); i >= len(b) || b[i] != closer && b[i] != ',' {
			return dst, -1
		}
		if b[i] == closer {
			return append(append(dst, newline[:2*depth-1]...), closer), i + 1
		}
		dst = append(dst, ',')
		i = skipSpace(b, i+1)
	}
}

// newline[:1+2*depth] starts a line at depth, two spaces a level.
var newline = "\n" + strings.Repeat("  ", maxJSONDepth)

// healthz is liveness + readiness in one probe. Liveness is implicit
// (the handler answered); readiness degrades — and the status code
// becomes 503 — when the backend reports a check (a store's write path
// in a known-bad state, a federation's shard down or degraded) or a
// redial source has exhausted its retry budget. The historical keys
// ("status", "events") survive so existing probes keep parsing.
func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	sh := h.be.Healthz(r.Context())
	status, checks := sh.Status, sh.Checks
	for _, src := range h.redials {
		if src.Stats().GaveUp != 0 {
			if checks == nil {
				checks = map[string]string{}
			}
			checks["redial:"+src.Addr()] = "retry budget exhausted; feed ended"
			status = "degraded"
		}
	}
	body := map[string]any{"status": status, "events": sh.Events}
	if status != "ok" {
		body["checks"] = checks
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, body)
}

// detectorStats is the live fan-out section of /stats: the atomic
// drop/evict counters, the mutex-guarded per-subscriber snapshots, and
// — now that the engine's counters are atomics — the full engine
// Metrics snapshot, the same numbers /metrics scrapes.
type detectorStats struct {
	SubscriberDrops     uint64            `json:"subscriber_drops"`
	SubscriberEvictions uint64            `json:"subscriber_evictions"`
	Subscribers         []SubscriberStats `json:"subscribers"`
	// Engine is the inference engine's counter snapshot (updates,
	// detections, events opened/closed).
	Engine *Metrics `json:"engine,omitempty"`
	// Alerts carries the alerting hub's delivery counters (watcher
	// drops, webhook retries/dead-letters) when a hub is attached.
	Alerts *AlertHubStats `json:"alerts,omitempty"`
	// Redial lists each live source's session-lifecycle counters
	// (dials, establishes, reseeds, backoffs, gave-up).
	Redial []RedialStats `json:"redial,omitempty"`
}

func (h *handler) stats(w http.ResponseWriter, r *http.Request) {
	stats, err := h.be.Stats(r.Context())
	if err != nil {
		backendError(w, err)
		return
	}
	if h.det == nil && h.hub == nil && len(h.redials) == 0 {
		writeJSON(w, stats)
		return
	}
	ds := detectorStats{}
	if h.det != nil {
		m := h.det.Metrics()
		ds.SubscriberDrops = m.SubscriberDrops
		ds.SubscriberEvictions = m.SubscriberEvictions
		ds.Subscribers = h.det.SubscriberStats()
		ds.Engine = &m
	}
	if h.hub != nil {
		hs := h.hub.Stats()
		ds.Alerts = &hs
	}
	for _, src := range h.redials {
		ds.Redial = append(ds.Redial, src.Stats())
	}
	// Embedding flattens the store fields so clients decoding into
	// StoreStats keep working.
	writeJSON(w, struct {
		*BackendStats
		Detector detectorStats `json:"detector"`
	}{stats, ds})
}

// defaultJSONLimit caps an /events JSON response when the client sets
// no limit: the whole result materializes as one indented document, so
// an uncapped query over a production-scale store would balloon the
// server. NDJSON has no default cap — records stream one per line;
// pass an explicit limit to raise the JSON cap.
const defaultJSONLimit = 10000

// events answers /events in its three shapes from Backend.RecordLines:
// NDJSON (by parameter or Accept header) streams it uncapped; JSON writes
// the envelope around its lines, and format=lines writes those lines
// bare, the envelope's numbers in headers — the answer as a machine reads
// it, a router above all: no indenting here, no parsing there. Both are
// counted reads, capped at defaultJSONLimit unless the query says
// otherwise, and held until the last line, so a failure is still an
// error status. Whichever, the records are the backend's bytes: nothing
// on this path encodes by reflection.
func (h *handler) events(w http.ResponseWriter, r *http.Request) {
	v := r.URL.Query()
	q, err := ParseQuery(v)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	format := v.Get("format")
	switch {
	case format != "" && format != "json" && format != "ndjson" && format != "lines":
		httpError(w, http.StatusBadRequest, "format: bad value %q (want json, ndjson or lines)", format)
		return
	case strings.Contains(r.Header.Get("Accept"), "application/x-ndjson"):
		format = "ndjson"
	case format != "ndjson" && q.Limit <= 0:
		q.Limit = defaultJSONLimit
	}
	ctx, began := r.Context(), time.Now()
	rs, err := h.be.RecordLines(ctx, q)
	if err != nil {
		if ctx.Err() == nil { // else the client went away: nothing to write
			backendError(w, err)
		}
		return
	}
	defer rs.Close()
	buf := answerPool.Get().(*[]byte)
	defer answerPool.Put(buf)
	shardsFailedHeader(w, rs.ShardsFailed)
	if rs.shard != "" {
		w.Header().Set(shardIdentityHeader, rs.shard)
	}
	if format == "ndjson" {
		streamRecordLines(w, rs, buf)
		return
	}
	var start, returned int
	if *buf, start, returned, err = appendEnvelope((*buf)[:0], rs, format == "lines", began); err != nil {
		backendError(w, err) // the read failed, or a backend's line was not JSON
		return
	}
	hdr, ctype := w.Header(), "application/json"
	if format == "lines" {
		ctype = "application/x-ndjson"
		hdr.Set(eventsTotalHeader, strconv.Itoa(rs.total))
		hdr.Set(eventsScannedHeader, strconv.Itoa(rs.scanned))
		hdr.Set(eventsReturnedHeader, strconv.Itoa(returned))
	}
	hdr.Set("Content-Type", ctype)
	w.Write((*buf)[start:])
}

// The accounting of a format=lines answer: the envelope's "total",
// "scanned" and "returned". The last is how its reader tells a whole body
// from one that ends early on a line boundary.
const (
	eventsTotalHeader    = "X-Events-Total"
	eventsScannedHeader  = "X-Events-Scanned"
	eventsReturnedHeader = "X-Events-Returned"
)

// answerPool recycles the buffer an answer is written into or read into:
// an /events envelope or lines, a shard's counted /events body, a
// shape=sets body, a writeJSON document, and an NDJSON stream's lines
// between writes (at most 64 KiB plus one line).
var answerPool = sync.Pool{New: func() any { return new([]byte) }}

// envelopeHead is room for an envelope's head, elapsed_us at its longest.
const envelopeHead = len("{\n  \"elapsed_us\": -9223372036854775808,\n  \"events\": [")

// appendEnvelope appends the JSON /events envelope around s's lines,
// laid out and newline-terminated: what json.Encoder with SetIndent
// writes for a map[string]any of these five members (a map's keys sort)
// whose "events" are the records themselves, since a line is
// json.Marshal of its record, laid out by indentValue where the encoder
// would — the envelope law, which TestEventsEnvelopeMatchesEncodingJSON
// holds. Its first member, elapsed_us, is the time from began to the
// last line: the head is written last, right-aligned into room reserved
// before the events, so the answer is dst[start:]. bare writes the lines
// alone, one per line: the format=lines answer. A read that fails, or a
// line that is not one JSON value, is an error.
func appendEnvelope(dst []byte, s *RecordStream, bare bool, began time.Time) (_ []byte, start, returned int, err error) {
	room := len(dst)
	dst = append(dst, make([]byte, envelopeHead)...)
	for rl, err := s.Next(); err != io.EOF; rl, err = s.Next() {
		switch {
		case err != nil:
			return dst, 0, 0, err
		case bare:
			dst = append(append(dst, rl.Line...), '\n')
		default:
			if returned > 0 {
				dst = append(dst, ',')
			}
			var end int
			dst, end = indentValue(append(dst, "\n    "...), rl.Line, skipSpace(rl.Line, 0), 2)
			if end < 0 || skipSpace(rl.Line, end) != len(rl.Line) {
				return dst, 0, 0, fmt.Errorf("record %d is not a JSON value", returned)
			}
		}
		returned++
	}
	if bare {
		return dst, room + envelopeHead, returned, nil
	}
	var h [envelopeHead]byte
	head := strconv.AppendInt(append(h[:0], "{\n  \"elapsed_us\": "...), time.Since(began).Microseconds(), 10)
	head = append(head, ",\n  \"events\": ["...)
	start = room + envelopeHead - len(head)
	copy(dst[start:], head)
	if returned > 0 {
		dst = append(dst, "\n  "...)
	}
	dst = strconv.AppendInt(append(dst, "],\n  \"returned\": "...), int64(returned), 10)
	dst = strconv.AppendInt(append(dst, ",\n  \"scanned\": "...), int64(s.scanned), 10)
	dst = strconv.AppendInt(append(dst, ",\n  \"total\": "...), int64(s.total), 10)
	return append(dst, "\n}\n"...), start, returned, nil
}

// backendError maps a Backend failure onto an HTTP response: the
// no-annotator sentinel keeps its historical 503, anything else —
// which for a federated backend means every shard failed — is a 502.
func backendError(w http.ResponseWriter, err error) {
	if errors.Is(err, errNoAnnotator) {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	httpError(w, http.StatusBadGateway, "%v", err)
}

// shardsFailedHeader sets X-Shards-Failed on a partial answer, still a
// 200: the shards a federation lost, at any depth. A store never sets it.
func shardsFailedHeader(w http.ResponseWriter, failed int) {
	if failed > 0 {
		w.Header().Set(shardsFailedKey, strconv.Itoa(failed))
	}
}

const shardsFailedKey = "X-Shards-Failed"

// shardIdentityHeader names, on a stamped store's /events answers, the
// shard whose events they are: "<plan spec> <index>", what the store's
// /stats advertises as Identity. A router that placed the query by that
// advertisement refuses an answer from anyone else
// (FederatedStore.gather). Unstamped stores and routers never set it.
const shardIdentityHeader = "X-Shard-Identity"

// streamRecordLines writes rs one record per line, through buf, as it
// drains — "streaming, uncapped" is literal: beyond 64 KiB plus a line,
// nothing is held ahead of the wire, however many events match. Lines go
// out in 64 KiB writes, and 256 lines held are written and flushed. A
// shard dying mid-stream shows up in counters, not in this response.
func streamRecordLines(w http.ResponseWriter, rs *RecordStream, buf *[]byte) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	*buf = (*buf)[:0]
	held := 0 // lines in *buf
	for {
		rl, err := rs.Next()
		if err != nil {
			break // io.EOF, client cancellation, or a dead source
		}
		*buf = append(append(*buf, rl.Line...), nl...)
		if held++; held < 256 && len(*buf) < 64<<10 {
			continue
		}
		if _, err := w.Write(*buf); err != nil {
			return // client went away
		}
		if held == 256 && flusher != nil {
			flusher.Flush()
		}
		*buf, held = (*buf)[:0], 0
	}
	if _, err := w.Write(*buf); err == nil && flusher != nil {
		flusher.Flush()
	}
}

var nl = []byte{'\n'}

// legitimacy aggregates the legitimacy view over every event matching
// the filter params: verdict, folded RPKI-state and community-doc
// histograms. A store streams through the annotator — no result set is
// materialized; a federation sums its shards' histograms.
func (h *handler) legitimacy(w http.ResponseWriter, r *http.Request) {
	q, err := ParseQuery(r.URL.Query())
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx := r.Context()
	sum, err := h.be.LegitimacySummary(ctx, q)
	if err != nil {
		if ctx.Err() != nil {
			return // client went away; nothing to write
		}
		backendError(w, err)
		return
	}
	shardsFailedHeader(w, sum.ShardsFailed)
	writeJSON(w, sum)
}

// figure4 answers /figure4. shape=sets serves the mergeable per-day
// entity sets instead of the counted series — the form one federation
// tier ships to the next so distinct-entity counts stay exact across
// shards.
func (h *handler) figure4(w http.ResponseWriter, r *http.Request) {
	be, ctx := h.be, r.Context()
	get := r.URL.Query().Get
	sets := get("shape") == "sets"
	every := 0 // 0 = not asked for
	if s := get("every"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			httpError(w, http.StatusBadRequest, "every: bad value %q", s)
			return
		}
		every = n
	}
	stats, err := be.Stats(ctx)
	if err != nil {
		backendError(w, err)
		return
	}
	start := stats.MinStart
	if s := get("start"); s != "" {
		t, err := time.Parse(time.RFC3339, s)
		if err != nil {
			httpError(w, http.StatusBadRequest, "start: %v", err)
			return
		}
		start = t
	}
	// The sets shape has one reader, RemoteBackend.Figure4Sets — a
	// machine — so it is written compact, and in the one spelling that
	// reader takes.
	writeSets := func(fs *Figure4Sets) {
		buf := answerPool.Get().(*[]byte)
		defer answerPool.Put(buf)
		*buf = appendFigure4Sets((*buf)[:0], fs)
		shardsFailedHeader(w, fs.ShardsFailed)
		w.Header().Set("Content-Type", "application/json")
		w.Write(*buf)
	}
	// empty answers a window no event can fall in, in the asked shape.
	empty := func() {
		if sets {
			writeSets(&Figure4Sets{})
		} else {
			writeJSON(w, []DailyPoint{})
		}
	}
	if start.IsZero() {
		empty()
		return
	}
	start = start.UTC().Truncate(24 * time.Hour)
	days := int(stats.MaxEnd.Sub(start).Hours()/24) + 1
	if s := get("days"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			httpError(w, http.StatusBadRequest, "days: bad value %q", s)
			return
		}
		days = n
	}
	// A start past the store's span yields nothing; a start far before
	// it would make the daily series explode — both are caller errors.
	const maxFigure4Days = 36600
	if days <= 0 {
		empty()
		return
	}
	if days > maxFigure4Days {
		httpError(w, http.StatusBadRequest, "series of %d days exceeds the %d-day cap; pass an explicit start and days", days, maxFigure4Days)
		return
	}
	if start.AddDate(0, 0, days-1).Year() > 9999 { // a day JSON's time spelling cannot name
		httpError(w, http.StatusBadRequest, "a series of %d days from %s ends past 9999-12-31", days, start.Format(time.DateOnly))
		return
	}
	if sets {
		fs, err := be.Figure4Sets(ctx, start, days)
		if err != nil {
			backendError(w, err)
			return
		}
		writeSets(fs)
		return
	}
	res, err := be.Figure4(ctx, start, days)
	if err != nil {
		backendError(w, err)
		return
	}
	series := res.Series
	if every > 0 {
		var sampled []DailyPoint
		for i := 0; i < len(series); i += every {
			sampled = append(sampled, series[i])
		}
		series = sampled
	}
	shardsFailedHeader(w, res.ShardsFailed)
	writeJSON(w, series)
}

// appendFigure4Sets appends the shape=sets body: fs as compact JSON and a
// newline — json.Marshal's bytes, for the names the stores hold (nothing
// a JSON string escapes). parseFigure4Sets is its inverse, and takes
// nothing else.
func appendFigure4Sets(dst []byte, fs *Figure4Sets) []byte {
	names := func(key string, table []string) {
		dst = append(dst, key...)
		for i, name := range table {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(append(append(dst, '"'), name...), '"')
		}
	}
	days := func(key string, lists [][]uint32) {
		dst = append(dst, key...)
		for d, day := range lists {
			if d > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			for i, n := range day {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendUint(dst, uint64(n), 10)
			}
			dst = append(dst, ']')
		}
	}
	dst = strconv.AppendInt(appendFigure4Window(dst, fs.Start, fs.Days), int64(fs.ShardsFailed), 10)
	names(`,"providers":[`, fs.Providers)
	names(`],"prefixes":[`, fs.Prefixes)
	days(`],"day_providers":[`, fs.DayProviders)
	days(`],"day_users":[`, fs.DayUsers)
	days(`],"day_prefixes":[`, fs.DayPrefixes)
	return append(dst, "]}\n"...)
}

// appendFigure4Window appends the head of a shape=sets body, which says
// what window the sets are over, up to the count of shards they miss.
func appendFigure4Window(dst []byte, start time.Time, days int) []byte {
	dst = start.UTC().AppendFormat(append(dst, `{"start":"`...), time.RFC3339Nano)
	return append(strconv.AppendInt(append(dst, `","days":`...), int64(days), 10), `,"shards_failed":`...)
}

func (h *handler) figure8(w http.ResponseWriter, r *http.Request) {
	timeout := DefaultGroupTimeout
	if s := r.URL.Query().Get("timeout"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			httpError(w, http.StatusBadRequest, "timeout: %v", err)
			return
		}
		if d <= 0 {
			httpError(w, http.StatusBadRequest, "timeout: grouping timeout must be positive, got %q", s)
			return
		}
		timeout = d
	}
	ungrouped, grouped, err := h.store.st.Figure8(r.Context(), timeout)
	if err != nil {
		return // only a cancelled walk fails: the client went away
	}
	toSecs := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = d.Seconds()
		}
		return out
	}
	writeJSON(w, map[string]any{
		"timeout_seconds":   timeout.Seconds(),
		"ungrouped_seconds": toSecs(ungrouped),
		"grouped_seconds":   toSecs(grouped),
		"ungrouped_events":  len(ungrouped),
		"grouped_periods":   len(grouped),
	})
}

// fromWorld serves one of the paper's visibility tables, which a store
// answers only with the pipeline's world: 503 without one, for it needs
// the world's deployment or topology. It writes nothing once the client
// has gone.
func fromWorld[T any](needs string, table func(*Pipeline, context.Context, *Store) (T, error)) func(*handler, http.ResponseWriter, *http.Request) {
	return func(h *handler, w http.ResponseWriter, r *http.Request) {
		if h.store.p == nil {
			httpError(w, http.StatusServiceUnavailable, "%s needs the pipeline's %s; run the server with a world", r.URL.Path[1:], needs)
			return
		}
		rows, err := table(h.store.p, r.Context(), h.store.st)
		if err != nil {
			return // only a cancelled walk fails: the client went away
		}
		writeJSON(w, rows)
	}
}

// watch serves the SSE alert stream: one "alert" event per matched
// alert (id = the monotonic alert id, data = the AlertRecord JSON),
// with ": heartbeat" comments at the configured interval. Repeatable
// rule params filter to named rules; Last-Event-ID (or a last_id
// query param, for curl) resumes from the hub's replay ring. The
// watcher rides a bounded drop-oldest queue, so a stalled client
// loses old alerts rather than stalling the hub.
func (h *handler) watch(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	var lastID uint64
	lastStr := r.Header.Get("Last-Event-ID")
	if s := r.URL.Query().Get("last_id"); s != "" {
		lastStr = s
	}
	if lastStr != "" {
		id, err := strconv.ParseUint(lastStr, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "last event id: bad value %q", lastStr)
			return
		}
		lastID = id
	}
	wt, err := h.hub.Watch(r.URL.Query()["rule"], lastID)
	if err != nil {
		var unknown *UnknownAlertRuleError
		if errors.As(err, &unknown) {
			httpError(w, http.StatusNotFound, "%v", err)
		} else {
			httpError(w, http.StatusServiceUnavailable, "%v", err)
		}
		return
	}
	defer wt.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": connected\n\n")
	flusher.Flush()

	ticker := time.NewTicker(h.heartbeat)
	defer ticker.Stop()
	done := r.Context().Done()
	for {
		select {
		case a, ok := <-wt.C():
			if !ok {
				return // hub shut down
			}
			payload := a.Payload()
			if payload == nil {
				continue // encode error, counted in hub stats
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: alert\ndata: %s\n\n", a.ID, payload); err != nil {
				return
			}
			flusher.Flush()
		case <-ticker.C:
			if _, err := fmt.Fprintf(w, ": heartbeat\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-done:
			return
		}
	}
}

func (h *handler) rulesList(w http.ResponseWriter, r *http.Request) {
	rules := h.hub.Rules()
	// Render the compact syntax alongside the structured form, so
	// clients can round-trip either. The rule is a named field, not
	// embedded: embedding would promote Rule's MarshalJSON and swallow
	// the syntax field.
	type ruleOut struct {
		Rule   AlertRule `json:"rule"`
		Syntax string    `json:"syntax"`
	}
	out := make([]ruleOut, len(rules))
	for i, rule := range rules {
		out[i] = ruleOut{Rule: rule, Syntax: rule.String()}
	}
	writeJSON(w, map[string]any{"rules": out})
}

// maxRuleBody bounds a /rules POST: a rule is a short declaration, not
// a data upload.
const maxRuleBody = 64 << 10

// rulesUpsert adds or replaces one rule. The body is either a JSON
// rule object or the compact "name=x prefix=... " syntax.
func (h *handler) rulesUpsert(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRuleBody+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(body) > maxRuleBody {
		httpError(w, http.StatusRequestEntityTooLarge, "rule body exceeds %d bytes", maxRuleBody)
		return
	}
	var rule AlertRule
	trimmed := strings.TrimSpace(string(body))
	if strings.HasPrefix(trimmed, "{") {
		if err := json.Unmarshal(body, &rule); err != nil {
			httpError(w, http.StatusBadRequest, "rule: %v", err)
			return
		}
	} else {
		rule, err = ParseRule(trimmed)
		if err != nil {
			httpError(w, http.StatusBadRequest, "rule: %v", err)
			return
		}
	}
	if err := h.hub.UpsertRule(rule); err != nil {
		httpError(w, http.StatusBadRequest, "rule: %v", err)
		return
	}
	writeJSON(w, map[string]any{"rule": rule, "syntax": rule.String(), "rules": len(h.hub.Rules())})
}

func (h *handler) rulesDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !h.hub.DeleteRule(name) {
		httpError(w, http.StatusNotFound, "no rule named %q", name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
