// The Hub is the delivery half of the alerting subsystem: the detector
// pushes closed events in (Publish), the compiled rule index decides
// which rules fire, and matching alerts fan out to SSE watchers and
// registered webhooks. Publish never blocks on a consumer — watchers
// and webhooks each ride a bounded stream.Queue, the detector's
// backpressure discipline (watchers shed their oldest alert, webhooks
// refuse the newest) — so a stalled subscriber can never stall
// inference.
package alert

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bgpblackholing/internal/core"
	"bgpblackholing/internal/enrich"
	"bgpblackholing/internal/stream"
)

// Alert is one rule firing on one closed event. The payload is
// encoded lazily, at most once, on the first delivery that needs it;
// every delivery path (SSE, webhook, replay ring) then shares the same
// bytes, and a hub with no subscribers never pays the encode.
type Alert struct {
	// ID is monotonic across the hub's lifetime, starting at 1. SSE
	// clients resume with it via Last-Event-ID.
	ID   uint64
	Rule string
	// Event is the closed event that fired the rule. Immutable.
	Event *core.Event
	// Ann is the detection-time legitimacy annotation, nil when the hub
	// has no annotator.
	Ann *enrich.Annotation

	encode  func(*Alert) ([]byte, error)
	onErr   func()
	once    sync.Once
	payload []byte
}

// Payload returns the encoded JSON body, encoding on first use. It is
// safe for concurrent delivery paths; on an encode error it returns
// nil (counted in the hub's EncodeErrors) and the alert is skipped by
// every delivery path.
func (a *Alert) Payload() []byte {
	a.once.Do(func() {
		var err error
		a.payload, err = a.encode(a)
		if err != nil {
			a.payload = nil
			if a.onErr != nil {
				a.onErr()
			}
		}
	})
	return a.payload
}

// Config parameterizes a Hub. Encode is required; the rest defaults to
// no enrichment, a 1024-alert replay ring and 256-alert watcher queues.
type Config struct {
	// Annotator, when set, computes the legitimacy verdict of each
	// closing event on the live path so verdict-conditioned rules fire
	// on the stream; the query path recomputes the same verdict from the
	// same world. Without it, verdict-conditioned rules never match.
	Annotator *enrich.Annotator
	// Encode is the alert wire encoding: the facade's full event-record
	// shape (NewAlertHub installs it), the one form alerts take.
	Encode func(*Alert) ([]byte, error)
	// RingSize bounds the replay ring for Last-Event-ID resume.
	// Default 1024.
	RingSize int
	// WatchBound bounds each watcher's pending queue; the oldest alert
	// is dropped (and counted) when a slow client lets it fill.
	// Default 256.
	WatchBound int
}

const (
	defaultRingSize   = 1024
	defaultWatchBound = 256
)

// Hub matches closing events against a compiled rule set and fans the
// resulting alerts out to watchers and webhooks. All methods are safe
// for concurrent use; Publish is expected from one goroutine (the
// detector sink) but is serialized regardless.
type Hub struct {
	cfg Config

	mu       sync.Mutex
	ix       *Index
	ring     []*Alert // circular
	ringHead int      // index of oldest
	ringLen  int
	nextID   uint64
	watchers []*Watcher
	closed   bool

	published   atomic.Uint64 // events seen
	alerts      atomic.Uint64 // alerts emitted
	encodeErrs  atomic.Uint64
	closedDrops uint64 // drops of since-removed watchers; under mu

	webhooks []*webhook
	wg       sync.WaitGroup
	stop     chan struct{}

	// onEncodeErr is the shared lazy-encode error hook, allocated once
	// rather than per alert.
	onEncodeErr func()

	// publishObs, when set, receives each Publish call's wall time in
	// seconds — the telemetry layer's latency-histogram hook. Held in
	// an atomic pointer so it can be wired after the hub is live.
	publishObs atomic.Pointer[func(float64)]
}

// SetPublishObserver installs fn to observe each Publish call's
// duration in seconds (nil removes it). Safe to call while the hub is
// publishing.
func (h *Hub) SetPublishObserver(fn func(seconds float64)) {
	if fn == nil {
		h.publishObs.Store(nil)
		return
	}
	h.publishObs.Store(&fn)
}

// NewHub builds a hub over an initial rule set (which may be empty and
// replaced later via SetRules). It refuses a config without Encode.
func NewHub(rules []Rule, cfg Config) (*Hub, error) {
	ix, err := Compile(rules)
	if err != nil {
		return nil, err
	}
	if cfg.Encode == nil {
		return nil, errors.New("alert: Config.Encode is required")
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = defaultRingSize
	}
	if cfg.WatchBound <= 0 {
		cfg.WatchBound = defaultWatchBound
	}
	h := &Hub{
		cfg:  cfg,
		ix:   ix,
		ring: make([]*Alert, cfg.RingSize),
		stop: make(chan struct{}),
	}
	h.onEncodeErr = func() { h.encodeErrs.Add(1) }
	return h, nil
}

// Rules returns the current rules in compile order.
func (h *Hub) Rules() []Rule {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Clone(h.ix.Rules())
}

// SetRules atomically replaces the whole rule set.
func (h *Hub) SetRules(rules []Rule) error {
	ix, err := Compile(rules)
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.ix = ix
	h.mu.Unlock()
	return nil
}

// UpsertRule adds or replaces one rule by name.
func (h *Hub) UpsertRule(r Rule) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	rules := slices.Clone(h.ix.Rules())
	replaced := false
	for i := range rules {
		if rules[i].Name == r.Name {
			rules[i] = r
			replaced = true
			break
		}
	}
	if !replaced {
		rules = append(rules, r)
	}
	ix, err := Compile(rules)
	if err != nil {
		return err
	}
	h.ix = ix
	return nil
}

// DeleteRule removes one rule by name; it reports whether the rule
// existed.
func (h *Hub) DeleteRule(name string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	rules := h.ix.Rules()
	i := slices.IndexFunc(rules, func(r Rule) bool { return r.Name == name })
	if i < 0 {
		return false
	}
	rest := slices.Delete(slices.Clone(rules), i, i+1)
	ix, err := Compile(rest)
	if err != nil {
		// Removing a rule cannot invalidate the remainder.
		panic(fmt.Sprintf("alert: recompile after delete: %v", err))
	}
	h.ix = ix
	return true
}

// Publish evaluates one closed event against the rule set and fans out
// every match. It never blocks on a subscriber. When the hub has an
// annotator, the event's legitimacy is computed here, at most once and
// only if a rule asks for the verdict or fires.
func (h *Hub) Publish(ev *core.Event) {
	h.published.Add(1)
	if obs := h.publishObs.Load(); obs != nil {
		start := time.Now()
		defer func() { (*obs)(time.Since(start).Seconds()) }()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	var ann *enrich.Annotation
	verdict := func() string {
		if h.cfg.Annotator == nil {
			return ""
		}
		if ann == nil {
			a := h.cfg.Annotator.Annotate(ev)
			ann = &a
		}
		return ann.Legitimacy
	}
	var vf func() string
	if h.cfg.Annotator != nil {
		vf = verdict
	}
	ords := h.ix.Match(ev, vf)
	if len(ords) == 0 {
		return
	}
	// At least one rule fired: compute (or reuse) the annotation so the
	// alert carries the verdict.
	verdict()
	rules := h.ix.Rules()
	for _, ord := range ords {
		h.nextID++
		a := &Alert{
			ID: h.nextID, Rule: rules[ord].Name, Event: ev, Ann: ann,
			encode: h.cfg.Encode,
			onErr:  h.onEncodeErr,
		}
		h.alerts.Add(1)
		h.ringPush(a)
		for _, w := range h.watchers {
			w.offer(a)
		}
		for _, wh := range h.webhooks {
			wh.q.TryPush(a) // a full queue refuses (and counts) the newest
		}
	}
}

// ringPush appends under h.mu, evicting the oldest entry when full.
func (h *Hub) ringPush(a *Alert) {
	if h.ringLen < len(h.ring) {
		h.ring[(h.ringHead+h.ringLen)%len(h.ring)] = a
		h.ringLen++
		return
	}
	h.ring[h.ringHead] = a
	h.ringHead = (h.ringHead + 1) % len(h.ring)
}

// Close stops the hub: watchers are cancelled, webhook queues are
// drained-and-closed, and in-flight webhook retries are abandoned.
// Publish becomes a no-op.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	watchers := slices.Clone(h.watchers)
	h.watchers = nil
	webhooks := h.webhooks
	close(h.stop)
	h.mu.Unlock()
	for _, w := range watchers {
		w.q.Abort()
	}
	for _, wh := range webhooks {
		wh.q.Close()
	}
	h.wg.Wait()
}

// Stats is the hub's observability snapshot, embedded in the HTTP
// /stats detector section.
type Stats struct {
	// Published counts events evaluated; Alerts counts rule firings.
	Published uint64 `json:"published"`
	Alerts    uint64 `json:"alerts"`
	Rules     int    `json:"rules"`
	Watchers  int    `json:"watchers"`
	// WatcherDrops counts alerts dropped at slow watchers (live and
	// since-closed), the hub-side analogue of detector subscriber drops.
	WatcherDrops uint64         `json:"watcher_drops"`
	EncodeErrors uint64         `json:"encode_errors,omitempty"`
	Webhooks     []WebhookStats `json:"webhooks,omitempty"`
}

// Stats returns a point-in-time snapshot.
func (h *Hub) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := Stats{
		Published:    h.published.Load(),
		Alerts:       h.alerts.Load(),
		Rules:        len(h.ix.Rules()),
		Watchers:     len(h.watchers),
		WatcherDrops: h.closedDrops,
		EncodeErrors: h.encodeErrs.Load(),
	}
	for _, w := range h.watchers {
		s.WatcherDrops += w.Drops()
	}
	for _, wh := range h.webhooks {
		s.Webhooks = append(s.Webhooks, wh.stats())
	}
	return s
}

// Watch registers an SSE-style subscriber. ruleNames filters the
// stream to those rules (every name must exist); nil or empty means
// all rules. lastID replays any ringed alerts with ID > lastID before
// live delivery — the Last-Event-ID contract. The caller must drain
// C() and Close() the watcher when done.
func (h *Hub) Watch(ruleNames []string, lastID uint64) (*Watcher, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, fmt.Errorf("alert: hub closed")
	}
	var filter map[string]bool
	if len(ruleNames) > 0 {
		known := map[string]bool{}
		for _, r := range h.ix.Rules() {
			known[r.Name] = true
		}
		filter = make(map[string]bool, len(ruleNames))
		for _, n := range ruleNames {
			if !known[n] {
				return nil, &UnknownRuleError{Name: n}
			}
			filter[n] = true
		}
	}
	w := newWatcher(h, filter, h.cfg.WatchBound)
	// Replay from the ring first, still under h.mu, so no alert
	// published between replay and registration can be missed.
	for i := 0; i < h.ringLen; i++ {
		a := h.ring[(h.ringHead+i)%len(h.ring)]
		if a.ID > lastID {
			w.offer(a)
		}
	}
	h.watchers = append(h.watchers, w)
	return w, nil
}

// UnknownRuleError reports a /watch filter naming a rule that does not
// exist.
type UnknownRuleError struct{ Name string }

func (e *UnknownRuleError) Error() string { return "unknown rule " + e.Name }

func (h *Hub) removeWatcher(w *Watcher) {
	h.mu.Lock()
	if i := slices.Index(h.watchers, w); i >= 0 {
		h.watchers = slices.Delete(h.watchers, i, i+1)
		h.closedDrops += w.Drops()
	}
	h.mu.Unlock()
}

// Watcher is one /watch subscriber: a bounded drop-oldest stream.Queue
// relayed into a channel (the SSE handler selects on it beside its
// heartbeat ticker), the detector's slow-consumer discipline, so a
// stalled SSE client holds at most WatchBound+17 alerts and never
// backpressures Publish.
type Watcher struct {
	hub    *Hub
	filter map[string]bool // nil = all rules
	q      *stream.Queue[*Alert]
	ch     chan *Alert
}

func newWatcher(h *Hub, filter map[string]bool, bound int) *Watcher {
	w := &Watcher{
		hub:    h,
		filter: filter,
		q:      stream.NewQueue[*Alert](bound),
		// 16 slots: a client keeping pace rarely parks the relay.
		ch: make(chan *Alert, 16),
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		w.q.Pump(w.ch)
	}()
	return w
}

// C delivers matching alerts in publish order. It is closed after
// Close (or hub shutdown).
func (w *Watcher) C() <-chan *Alert { return w.ch }

// Drops reports alerts discarded because this watcher fell behind.
func (w *Watcher) Drops() uint64 { return w.q.Dropped() }

// offer enqueues without blocking, evicting the oldest pending alert
// on overflow.
func (w *Watcher) offer(a *Alert) {
	if w.filter == nil || w.filter[a.Rule] {
		w.q.Push(a)
	}
}

// Close deregisters the watcher and stops delivery immediately;
// pending alerts are discarded (a resuming client replays them by ID).
func (w *Watcher) Close() {
	w.hub.removeWatcher(w)
	w.q.Abort()
}
