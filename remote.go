package bgpblackholing

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// RemoteBackend is the one client of the query API (http.go): a Backend
// over the merged rows of its routes table, each through one reader,
// and Get for the routes no Backend method reads. It is how a bhroute
// router reaches a shard and how bhquery reaches a server. Every request
// is built and sent by send and walks the URLs in roundTrip.
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
	return b, nil
}

// Name implements Backend.
func (b *RemoteBackend) Name() string { return b.name }

// URL returns the shard's primary endpoint.
func (b *RemoteBackend) URL() string { return b.urls[0] }

// Close implements Backend. Requests go through queryClient, whose idle
// connections every backend shares; nothing to release.
func (b *RemoteBackend) Close() error { return nil }

// idleConnsPerHost is how many idle connections queryClient keeps to one
// host: under 16 concurrent clients, net/http's default of two made a
// router dial most shard requests afresh (TestRouterReusesShardConnections).
const idleConnsPerHost = 16

// queryClient sends every request of the query API (send), through
// http.DefaultTransport's settings with idleConnsPerHost per host.
var queryClient = &http.Client{Transport: func() http.RoundTripper {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = idleConnsPerHost
	return t
}()}

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

// send builds and sends one GET of path to the query API at base: the
// only place a request to a shard or a server is made, with its
// parameters, the caller's extra headers and the bearer token.
func (b *RemoteBackend) send(ctx context.Context, base, path string, params url.Values, header http.Header) (*http.Response, error) {
	u := base + path
	if q := params.Encode(); q != "" {
		u += "?" + q
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	if b.token != "" {
		req.Header.Set("Authorization", "Bearer "+b.token)
	}
	return queryClient.Do(req)
}

// attempt runs one GET against one base URL. On non-2xx the body's
// {"error": ...} is folded into a *RemoteError.
func (b *RemoteBackend) attempt(ctx context.Context, base, path string, params url.Values, header http.Header) (*http.Response, error) {
	resp, err := b.send(ctx, base, path, params, header)
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

// callerError reports whether err is a shard's 4xx answer.
func callerError(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Status/100 == 4
}

// roundTrip is the one walk over the shard's URLs: the first 2xx answer
// wins, and a 4xx ends the walk, since every replica would answer the
// same. A buffered read runs under the backend's timeout and, with a
// hedge delay, races: every HedgeDelay without an answer the next
// replica joins (counted in b.hedges), and the losers are cancelled.
// Otherwise the next URL is tried only after a failure — and a stream,
// which gets no timeout and no hedge, fails over only before its first
// byte. A shard with one URL is asked on the caller's goroutine.
func (b *RemoteBackend) roundTrip(ctx context.Context, path string, params url.Values, header http.Header, stream bool) (*http.Response, error) {
	var cancel context.CancelFunc // nil for a lone stream: nothing to bound
	switch {
	case !stream:
		ctx, cancel = context.WithTimeout(ctx, b.timeout)
	case len(b.urls) > 1:
		ctx, cancel = context.WithCancel(ctx)
	}
	if len(b.urls) == 1 {
		resp, err := b.attempt(ctx, b.urls[0], path, params, header)
		return hold(resp, err, cancel)
	}
	var hedge <-chan time.Time // nil, and never ready, without a hedge delay
	if !stream && b.hedge > 0 {
		hedge = time.After(b.hedge)
	}
	type outcome struct {
		resp *http.Response
		err  error
	}
	results := make(chan outcome, len(b.urls))
	launched, pending := 0, 0
	launch := func() {
		u := b.urls[launched]
		launched, pending = launched+1, pending+1
		go func() {
			r, err := b.attempt(ctx, u, path, params, header)
			results <- outcome{r, err}
		}()
	}
	launch()
	var err error
walk:
	for pending > 0 {
		select {
		case out := <-results:
			pending--
			if out.err == nil {
				// Close losing hedge responses in the background.
				go func(pending int) {
					for range pending {
						if late := <-results; late.resp != nil {
							late.resp.Body.Close()
						}
					}
				}(pending)
				return hold(out.resp, nil, cancel)
			}
			if err = out.err; callerError(err) {
				break walk
			}
			if pending == 0 && launched < len(b.urls) {
				launch()
			}
		case <-hedge:
			if launched < len(b.urls) {
				b.hedges.Add(1)
				launch()
				hedge = time.After(b.hedge)
			}
		case <-ctx.Done():
			err = ctx.Err()
			break walk
		}
	}
	cancel()
	return nil, err
}

// hold ties cancel, when there is one, to the answer: called when the
// attempt failed, and when the body the caller reads is closed — the
// body outlives roundTrip, so its context must too.
func hold(resp *http.Response, err error, cancel context.CancelFunc) (*http.Response, error) {
	switch {
	case cancel == nil:
	case err != nil:
		cancel()
	default:
		resp.Body = &cancelOnClose{ReadCloser: resp.Body, cancel: cancel}
	}
	return resp, err
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

// getJSON runs a buffered GET and decodes the answer into v, returning its
// X-Shards-Failed. The answer is read whole (readAnswer) and must be one
// JSON value and white space: anything else is the shard's failure.
func (b *RemoteBackend) getJSON(ctx context.Context, path string, params url.Values, v any) (failed int, err error) {
	resp, err := b.roundTrip(ctx, path, params, nil, false)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if failed, err = b.nestedFailures(resp.Header); err != nil {
		return 0, err
	}
	body, err := b.readAnswer(resp.Body, maxShardSets)
	if err != nil {
		return 0, err
	}
	if err = json.Unmarshal([]byte(body), v); err != nil {
		return 0, fmt.Errorf("shard %s: bad %s answer: %w", b.name, path, err)
	}
	return failed, nil
}

// readAnswer reads a shard's answer whole, through a pooled buffer: more
// than limit bytes is the shard's failure.
func (b *RemoteBackend) readAnswer(r io.Reader, limit int64) (string, error) {
	var body strings.Builder
	buf := scanBufs.Get().(*[64 << 10]byte)
	_, err := io.CopyBuffer(&body, io.LimitReader(r, limit+1), buf[:])
	scanBufs.Put(buf)
	if err != nil {
		return "", fmt.Errorf("shard %s: %w", b.name, err)
	}
	if int64(body.Len()) > limit {
		return "", fmt.Errorf("shard %s: answer over %d bytes", b.name, limit)
	}
	return body.String(), nil
}

// Records is RecordLines' counted read held whole (collectRecords).
func (b *RemoteBackend) Records(ctx context.Context, q Query) (*RecordSet, error) {
	return collectRecords(ctx, b, q)
}

// maxShardLine caps one record read from a shard. A record is a few
// hundred bytes (a few KiB enriched); one that reaches the cap is a
// misbehaving shard, and buffering more of it would let one shard grow
// the router without bound.
const maxShardLine = 1 << 20

// scanBufs recycles the buffers shard bodies are scanned through: a
// stream of megabytes is read 64 KiB at a time, and a point answer of one
// KiB does not pay for that with an allocation sixty times its size.
var scanBufs = sync.Pool{New: func() any { return new([64 << 10]byte) }}

// scanLines is the one reader of a shard's /events body, counted or
// uncounted: a record a line, keyed by scanLineKey as it passes — nothing
// is decoded into a record. Lines are read through one reused buffer
// (RecordLine.Line is borrowed until the following next) that never grows
// past maxShardLine; an oversize line, one that is no record, or a read
// error is the error next returns from then on. done releases the buffer:
// no line is good after it.
func (b *RemoteBackend) scanLines(body io.Reader) (next func() (RecordLine, error), done func()) {
	buf := scanBufs.Get().(*[64 << 10]byte)
	sc := bufio.NewScanner(body)
	sc.Buffer(buf[:], maxShardLine)
	next = func() (RecordLine, error) {
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue // blank keep-alive line
			}
			key, err := scanLineKey(line)
			if err != nil {
				return RecordLine{}, fmt.Errorf("shard %s: bad record line: %v", b.name, err)
			}
			return RecordLine{Key: key, Line: line}, nil
		}
		if err := sc.Err(); err != nil {
			return RecordLine{}, fmt.Errorf("shard %s: %w", b.name, err)
		}
		return RecordLine{}, io.EOF
	}
	return next, func() { scanBufs.Put(buf) }
}

// RecordLines implements Backend over GET /events. A counted read asks
// format=lines, a buffered request like any other, its head in headers.
// Its body is read whole and keyed before the first line is given out:
// more lines than the limit asked for, or another count than
// X-Events-Returned (a body cut short, accounting missing or no number),
// fail it whole, and a federation counts that against the shard and
// serves the others' merge. An uncounted read asks format=ndjson and
// streams: failover walks the URL set only before the first body byte,
// and a line scanLines refuses ends the stream with an error the
// federation counts as this shard's failure.
func (b *RemoteBackend) RecordLines(ctx context.Context, q Query) (*RecordStream, error) {
	counted := q.Limit > 0
	params := queryParams(q)
	params.Set("format", "ndjson")
	if counted {
		params.Set("format", "lines")
	}
	resp, err := b.roundTrip(ctx, "/events", params, nil, !counted)
	if err != nil {
		return nil, err
	}
	s := &RecordStream{shard: resp.Header.Get(shardIdentityHeader)}
	if s.ShardsFailed, err = b.nestedFailures(resp.Header); err != nil {
		resp.Body.Close()
		return nil, err
	}
	next, done := b.scanLines(resp.Body)
	if !counted {
		s.next, s.close = next, func() { resp.Body.Close(); done() }
		return s, nil
	}
	defer resp.Body.Close()
	defer done()
	returned := 0
	for _, h := range [...]struct {
		name string
		n    *int
	}{{eventsTotalHeader, &s.total}, {eventsScannedHeader, &s.scanned}, {eventsReturnedHeader, &returned}} {
		v, err := strconv.ParseUint(resp.Header.Get(h.name), 10, 63)
		if err != nil {
			return nil, fmt.Errorf("shard %s: bad /events answer: %s %q", b.name, h.name, resp.Header.Get(h.name))
		}
		*h.n = int(v)
	}
	body := answerPool.Get().(*[]byte) // back to the pool on Close; after a failure, left to the GC
	lines, keys := (*body)[:0], []RecordKey(nil)
	for rl, err := next(); err != io.EOF; rl, err = next() {
		if err == nil && len(keys) == q.Limit {
			err = fmt.Errorf("shard %s: bad /events answer: more than the %d records asked for", b.name, q.Limit)
		}
		if err != nil {
			return nil, err
		}
		lines, keys = append(append(lines, rl.Line...), '\n'), append(keys, rl.Key)
	}
	if len(keys) != returned {
		return nil, fmt.Errorf("shard %s: bad /events answer: %d records where %s says %d", b.name, len(keys), eventsReturnedHeader, returned)
	}
	*body = lines // newline-terminated, as the shard sent them
	s.next = func() (RecordLine, error) {
		if len(keys) == 0 {
			return RecordLine{}, io.EOF
		}
		end := bytes.IndexByte(lines, '\n')
		rl := RecordLine{Key: keys[0], Line: lines[:end:end]}
		lines, keys = lines[end+1:], keys[1:]
		return rl, nil
	}
	s.close = func() { answerPool.Put(body) }
	return s, nil
}

// nestedFailures reads an answer's X-Shards-Failed: the shards a router
// answering as this shard is missing below it. Absent is none.
func (b *RemoteBackend) nestedFailures(h http.Header) (int, error) {
	n, err := strconv.ParseUint(cmp.Or(h.Get(shardsFailedKey), "0"), 10, 31)
	if err != nil {
		err = fmt.Errorf("shard %s: bad answer: %s %q", b.name, shardsFailedKey, h.Get(shardsFailedKey))
	}
	return int(n), err
}

// scanLineKey derives a line's merge key in one pass over its bytes. The
// key is scanned, not decoded: a reflective json.Unmarshal of four
// fields cost the router as much per line as producing the line cost
// the shard. It accepts and rejects exactly what json.Unmarshal into
//
//	struct {
//		Prefix string    `json:"prefix"`
//		Start  time.Time `json:"start"`
//		End    time.Time `json:"end"`
//		Seq    uint64    `json:"seq"`
//	}
//
// does, and yields the same four values (FuzzRecordLineKey holds it to
// that): the whole line must be valid JSON, an object or null; keys
// match case-folded, the last duplicate wins, a null value leaves its
// field alone and any other mistyped value is an error.
func scanLineKey(line []byte) (RecordKey, error) {
	var k lineKey
	i := skipSpace(line, 0)
	end := k.skipValue(line, i, 0)
	if end < 0 || skipSpace(line, end) != len(line) || line[i] != '{' && line[i] != 'n' {
		if k.err == nil {
			k.err = errors.New("not a JSON object")
		}
		return RecordKey{}, k.err
	}
	return RecordKey{End: k.end.UnixNano(), Seq: k.seq, Start: k.start.UnixNano(), Prefix: k.prefix}, nil
}

// lineKey collects the key fields as the scan meets them, and the error
// of a member that is syntactically fine but no value for its field.
type lineKey struct {
	prefix     string
	start, end time.Time
	seq        uint64
	err        error
}

var keyPrefix, keyStart, keyEnd, keySeq = []byte("prefix"), []byte("start"), []byte("end"), []byte("seq")

// maxJSONDepth is encoding/json's nesting limit.
const maxJSONDepth = 10000

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// skipValue returns the index after the JSON value starting at b[i], or
// -1 if there is none by encoding/json's grammar (its nesting limit
// included). depth counts the containers open around the value; the
// members of the outermost one, the line itself, are offered to set.
func (k *lineKey) skipValue(b []byte, i, depth int) int {
	if i >= len(b) || b[i] != '{' && b[i] != '[' {
		return skipScalar(b, i)
	}
	c := b[i]
	if depth++; depth > maxJSONDepth {
		return -1
	}
	closer := c + 2 // '}' is '{'+2 and ']' is '['+2
	if i = skipSpace(b, i+1); i < len(b) && b[i] == closer {
		return i + 1
	}
	for {
		var name []byte
		var plain bool
		if c == '{' {
			end, p := skipString(b, i)
			if end < 0 {
				return -1
			}
			name, plain = b[i:end], p
			if i = skipSpace(b, end); i >= len(b) || b[i] != ':' {
				return -1
			}
			i = skipSpace(b, i+1)
		}
		end := k.skipValue(b, i, depth)
		if end < 0 || c == '{' && depth == 1 && !k.set(name, plain, b[i:end]) {
			return -1
		}
		if i = skipSpace(b, end); i >= len(b) || b[i] != closer && b[i] != ',' {
			return -1
		}
		if b[i] == closer {
			return i + 1
		}
		i = skipSpace(b, i+1)
	}
}

// skipScalar returns the index after the string, literal or number
// starting at b[i], or -1 if none does: the token rules of both JSON
// walks, scanLineKey's and indentValue's (http.go).
func skipScalar(b []byte, i int) int {
	if i >= len(b) {
		return -1
	}
	switch b[i] {
	case '"':
		end, _ := skipString(b, i)
		return end
	case 't', 'f', 'n':
		for _, lit := range [...]string{"true", "false", "null"} {
			if len(b)-i >= len(lit) && string(b[i:i+len(lit)]) == lit {
				return i + len(lit)
			}
		}
		return -1
	}
	// A number: -? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?
	if b[i] == '-' {
		i++
	}
	j := skipDigits(b, i)
	if j == i || b[i] == '0' && j > i+1 {
		return -1
	}
	if j < len(b) && b[j] == '.' {
		if i, j = j+1, skipDigits(b, j+1); j == i {
			return -1
		}
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		if j++; j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if i, j = j, skipDigits(b, j); j == i {
			return -1
		}
	}
	return j
}

// skipString returns the index after the string token opening at b[i],
// -1 if none does or it is malformed, and whether the token is plain:
// ASCII with no escape, so the bytes between its quotes are its value.
func skipString(b []byte, i int) (end int, plain bool) {
	if i >= len(b) || b[i] != '"' {
		return -1, false
	}
	plain = true
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c > '\\' && c < utf8.RuneSelf, c >= ' ' && c < '\\' && c != '"':
			// most bytes: printable ASCII but the quote and the backslash
		case c == '"':
			return i + 1, plain
		case c < ' ':
			return -1, false
		case c >= utf8.RuneSelf:
			plain = false
		case c == '\\':
			plain = false
			if i++; i < len(b) && b[i] == 'u' {
				for end := i + 4; i < end; {
					if i++; i >= len(b) || !('0' <= b[i] && b[i] <= '9' || 'a' <= b[i]|0x20 && b[i]|0x20 <= 'f') {
						return -1, false
					}
				}
			} else if i >= len(b) || strings.IndexByte(`"\\/bfnrt`, b[i]) < 0 {
				return -1, false
			}
		}
	}
	return -1, false
}

// set stores one member of the line's object when name, its raw key
// token, names a key field, reading the raw value token tok as
// encoding/json reads it into that field's type. It reports whether the
// scan may go on; k.err says why not.
func (k *lineKey) set(name []byte, plain bool, tok []byte) bool {
	key := name[1 : len(name)-1]
	if !plain {
		var s string // an escaped or non-ASCII key is rare enough to leave to the library
		if k.err = json.Unmarshal(name, &s); k.err != nil {
			return false
		}
		key = []byte(s)
	} else if len(key) < len(keyEnd) || len(key) > len(keyPrefix) {
		return true // no key field's name
	}
	switch {
	case bytes.EqualFold(key, keyStart):
		k.err = k.start.UnmarshalJSON(tok) // null is its no-op, a non-string its error
	case bytes.EqualFold(key, keyEnd):
		k.err = k.end.UnmarshalJSON(tok)
	case tok[0] == 'n':
		// null leaves prefix and seq alone too
	case bytes.EqualFold(key, keySeq):
		k.seq, k.err = strconv.ParseUint(string(tok), 10, 64) // an error for every non-number as well
	case bytes.EqualFold(key, keyPrefix):
		if _, plain := skipString(tok, 0); plain {
			k.prefix = string(tok[1 : len(tok)-1])
		} else {
			var s string // not a string, which is an error, or one the library must unquote
			k.err = json.Unmarshal(tok, &s)
			k.prefix = s
		}
	}
	return k.err == nil
}

// figure4Params renders a Figure 4 window as the /figure4 parameter set.
func figure4Params(start time.Time, days int) url.Values {
	return url.Values{"start": {start.UTC().Format(time.RFC3339)}, "days": {strconv.Itoa(days)}}
}

// Figure4 implements Backend over GET /figure4.
func (b *RemoteBackend) Figure4(ctx context.Context, start time.Time, days int) (*Figure4Result, error) {
	var series []DailyPoint
	failed, err := b.getJSON(ctx, "/figure4", figure4Params(start, days), &series)
	if err != nil {
		return nil, err
	}
	return &Figure4Result{Series: series, ShardsFailed: failed}, nil
}

// maxShardSets caps a shape=sets body, which is read whole: a window of
// years over a shard of millions of prefixes stays well under it.
const maxShardSets = 64 << 20

// Figure4Sets implements Backend over GET /figure4?shape=sets.
func (b *RemoteBackend) Figure4Sets(ctx context.Context, start time.Time, days int) (*Figure4Sets, error) {
	params := figure4Params(start, days)
	params.Set("shape", "sets")
	resp, err := b.roundTrip(ctx, "/figure4", params, nil, false)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := b.readAnswer(resp.Body, maxShardSets) // the sets' names are substrings of it
	if err != nil {
		return nil, err
	}
	sets, err := parseFigure4Sets(body, start, days)
	if err != nil {
		return nil, fmt.Errorf("shard %s: bad /figure4 answer: %w", b.name, err)
	}
	return sets, nil
}

// parseFigure4Sets reads a shape=sets body for the window asked. It is
// appendFigure4Sets' inverse and nothing more lenient: the body must be,
// byte for byte, what that writer emits for the sets this returns — no
// white space, no escape, tables and lists strictly ascending, every
// index inside its table, the window the one asked for. What a shard
// sends is merged into every other shard's answer, so a body that is
// anything else is the shard's failure, not a puzzle to solve.
func parseFigure4Sets(body string, start time.Time, days int) (*Figure4Sets, error) {
	rest, ok := strings.CutPrefix(body, string(appendFigure4Window(nil, start, days)))
	if !ok {
		return nil, fmt.Errorf("not the sets of %d days from %s", days, start.UTC().Format(time.RFC3339))
	}
	// Every number is followed by a comma or closes one of the 3×days
	// lists: the lists slice one allocation.
	// The shards the sets miss, spelled as strconv does, nestedFailures' bound.
	digits := len(rest) - len(strings.TrimLeft(rest, "0123456789"))
	failed, err := strconv.ParseUint(rest[:digits], 10, 31)
	if err != nil || digits > 1 && rest[0] == '0' {
		return nil, fmt.Errorf("want a count of failed shards at %.20q", rest)
	}
	rest = rest[digits:]
	p := setsScanner{rest: rest, nums: make([]uint32, 0, strings.Count(rest, ",")+3*days)}
	fs := &Figure4Sets{Start: start, Days: days, ShardsFailed: int(failed)}
	fs.Providers = p.names(`,"providers":[`)
	fs.Prefixes = p.names(`],"prefixes":[`)
	fs.DayProviders = p.days(`],"day_providers":[`, days, uint64(len(fs.Providers)))
	fs.DayUsers = p.days(`],"day_users":[`, days, 1<<32)
	fs.DayPrefixes = p.days(`],"day_prefixes":[`, days, uint64(len(fs.Prefixes)))
	p.literal("]}\n")
	if p.err == nil && p.rest != "" {
		p.fail("the end")
	}
	if p.err != nil {
		return nil, p.err
	}
	return fs, nil
}

// setsScanner consumes a shape=sets body from the front. The first thing
// that is not what the writer writes there is err, and ends the scan.
type setsScanner struct {
	rest string
	nums []uint32 // every list's numbers, in the order read
	err  error
}

func (p *setsScanner) fail(want string) {
	if p.err == nil {
		p.err = fmt.Errorf("want %s at %.20q", want, p.rest)
	}
}

// literal consumes lit and reports whether the scan goes on.
func (p *setsScanner) literal(lit string) bool {
	rest, ok := strings.CutPrefix(p.rest, lit)
	if !ok {
		p.fail(strconv.Quote(lit))
	}
	if p.err != nil {
		return false
	}
	p.rest = rest
	return true
}

// names consumes open and the table after it, up to its closing bracket:
// quoted names of printable ASCII, strictly ascending.
func (p *setsScanner) names(open string) (names []string) {
	if !p.literal(open) {
		return nil
	}
	for !strings.HasPrefix(p.rest, "]") {
		if len(names) > 0 && !p.literal(",") || !p.literal(`"`) {
			return nil
		}
		end := 0
		for end < len(p.rest) && p.rest[end] != '"' {
			if c := p.rest[end]; c < ' ' || c > '~' || c == '\\' {
				p.fail("a name of plain ASCII")
				return nil
			}
			end++
		}
		name := p.rest[:end]
		if len(names) > 0 && name <= names[len(names)-1] {
			p.fail("a name after " + strconv.Quote(names[len(names)-1]))
			return nil
		}
		names, p.rest = append(names, name), p.rest[end:]
		if !p.literal(`"`) {
			return nil
		}
	}
	return names
}

// days consumes open and the n lists after it, up to the closing bracket
// of the last: numbers spelled as strconv spells them, below limit and
// strictly ascending within a list.
func (p *setsScanner) days(open string, n int, limit uint64) [][]uint32 {
	if !p.literal(open) {
		return nil
	}
	days := make([][]uint32, n)
	for d := range days {
		if d > 0 && !p.literal(",") || !p.literal("[") {
			return nil
		}
		from := len(p.nums)
		for !strings.HasPrefix(p.rest, "]") {
			if len(p.nums) > from && !p.literal(",") {
				return nil
			}
			i, v := 0, uint64(0)
			for i < len(p.rest) && '0' <= p.rest[i] && p.rest[i] <= '9' && v < limit {
				v = v*10 + uint64(p.rest[i]-'0')
				i++
			}
			if i == 0 || i > 1 && p.rest[0] == '0' || v >= limit || len(p.nums) > from && uint32(v) <= p.nums[len(p.nums)-1] {
				p.fail(fmt.Sprintf("an ascending number below %d", limit))
				return nil
			}
			p.nums, p.rest = append(p.nums, uint32(v)), p.rest[i:]
		}
		p.rest = p.rest[1:] // the list's closing bracket
		days[d] = p.nums[from:len(p.nums):len(p.nums)]
	}
	return days
}

// LegitimacySummary implements Backend over GET /legitimacy.
func (b *RemoteBackend) LegitimacySummary(ctx context.Context, q Query) (*LegitimacySummary, error) {
	sum := newLegitimacySummary()
	if _, err := b.getJSON(ctx, "/legitimacy", queryParams(q), sum); err != nil { // the body counts the shards failed too
		return nil, err
	}
	return sum, nil
}

// Stats implements Backend over GET /stats. Extra sections a shard
// serves (the detector block) are ignored; a shard that is itself a
// federation forwards its shards block.
func (b *RemoteBackend) Stats(ctx context.Context) (*BackendStats, error) {
	var stats BackendStats
	if _, err := b.getJSON(ctx, "/stats", nil, &stats); err != nil { // the shards block counts the shards failed
		return nil, err
	}
	return &stats, nil
}

// Healthz implements Backend over GET /healthz. A reachable-but-
// degraded shard answers 503 with a JSON body; both that and a plain
// 200 parse here, so it walks the URLs itself rather than through
// roundTrip, for which a 503 is a failure. An unreachable shard is
// "down".
func (b *RemoteBackend) Healthz(ctx context.Context) *ShardHealth {
	ctx, cancel := context.WithTimeout(ctx, b.timeout)
	defer cancel()
	var lastErr error
	for _, u := range b.urls {
		resp, err := b.send(ctx, u, "/healthz", nil, nil)
		if err != nil {
			lastErr = err
			continue
		}
		h := &ShardHealth{} // the /healthz body is a ShardHealth's status, events and checks
		body, err := b.readAnswer(resp.Body, 1<<20)
		resp.Body.Close()
		if err == nil {
			err = json.Unmarshal([]byte(body), h)
		}
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

// Get asks the shard for path — a route no Backend method reads, such
// as /figure8, /metrics or /watch — with the extra header, and returns
// the answer for the caller to read and close. It runs as a stream: no
// timeout, and failover only before the first byte. A non-2xx answer is
// a *RemoteError.
func (b *RemoteBackend) Get(ctx context.Context, path string, params url.Values, header http.Header) (*http.Response, error) {
	return b.roundTrip(ctx, path, params, header, true)
}
