package bgpblackholing

// RedialSource — a self-healing live feed. Real collector sessions
// reset: peers reboot, transit flaps, daemons hang. This source wraps
// DialBGP in a reconnect loop — timeout-bounded dials, exponential
// backoff with jitter, an optional retry budget — and re-seeds the
// element stream from a RIB dump after every re-established session,
// so the consuming Detector recovers blackholing state announced while
// the session was down (§4.2's table-dump initialization, replayed
// through the normal stream path on the consumer's goroutine).

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"bgpblackholing/internal/mrt"
	"bgpblackholing/internal/stream"
)

// ConnState is one phase of a RedialSource's connection lifecycle.
type ConnState int

const (
	// ConnIdle: not yet started (before the first Next call).
	ConnIdle ConnState = iota
	// ConnDialing: a connect + handshake attempt is in flight.
	ConnDialing
	// ConnEstablished: a session is up and its updates are flowing.
	ConnEstablished
	// ConnReseeding: a re-established session is replaying the RIB
	// dump into the stream before (well, while) live updates resume.
	ConnReseeding
	// ConnBackoff: the last attempt or session failed; waiting before
	// redialing.
	ConnBackoff
	// ConnGaveUp: the retry budget is exhausted; the feed has ended.
	ConnGaveUp
	// ConnClosed: Close ended the feed.
	ConnClosed
)

func (s ConnState) String() string {
	switch s {
	case ConnIdle:
		return "idle"
	case ConnDialing:
		return "dialing"
	case ConnEstablished:
		return "established"
	case ConnReseeding:
		return "reseeding"
	case ConnBackoff:
		return "backoff"
	case ConnGaveUp:
		return "gave-up"
	case ConnClosed:
		return "closed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ConnTransition is one structured connection-state change, delivered
// to RedialConfig.OnTransition.
type ConnTransition struct {
	From, To ConnState
	// Time stamps the transition.
	Time time.Time
	// Attempt counts consecutive failed dials (1-based) on transitions
	// into ConnBackoff / ConnGaveUp; 0 elsewhere.
	Attempt int
	// Err carries the failure driving a ConnBackoff or ConnGaveUp
	// transition, or a non-fatal reseed failure on the transition from
	// ConnReseeding back to ConnEstablished.
	Err error
	// Wait is the backoff delay chosen on a ConnBackoff transition.
	Wait time.Duration
}

// RedialConfig configures a RedialSource.
type RedialConfig struct {
	// Session is the local BGP identity for each dial, including the
	// DialTimeout bounding every connect + handshake.
	Session BGPConfig
	// CollectorName and Platform label every published element.
	CollectorName string
	Platform      Platform

	// InitialBackoff is the wait after the first failure (default
	// 500ms); each further consecutive failure multiplies it by
	// Multiplier (default 2) up to MaxBackoff (default 30s).
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
	Multiplier     float64
	// Jitter spreads each backoff uniformly within ±Jitter×delay
	// (0..1), so a fleet of dialers does not thunder back in lockstep.
	// Default 0.2; negative disables.
	Jitter float64
	// MaxRetries caps consecutive failed dials before the source gives
	// up and ends the feed with an error. 0 retries forever.
	MaxRetries int

	// Reseed, when non-nil, is invoked after every re-established
	// session (not the first — initial seeding is the caller's
	// SeedFromRIBDump): it returns an MRT TABLE_DUMP_V2 archive whose
	// entries are replayed into the stream ahead of the resumed live
	// updates, restoring blackholing state announced during the
	// outage. A reseed failure is reported via OnTransition and the
	// session continues without it.
	Reseed func() (io.ReadCloser, error)

	// OnTransition, when non-nil, receives every connection-state
	// change, synchronously from the connection goroutine — keep it
	// fast and do not call back into the source. When nil, transitions
	// are logged through Logger (or slog.Default) instead, so session
	// resets are never silent.
	OnTransition func(ConnTransition)

	// Logger receives the default transition log lines when
	// OnTransition is nil. Nil means slog.Default().
	Logger *slog.Logger
}

// RedialSource is a Source fed by a BGP session that redials itself.
// Create with NewRedialSource; the connection loop starts lazily at
// the first Next call and runs until Close, a retry-budget exhaustion,
// or a listener that is gone for good.
type RedialSource struct {
	addr string
	cfg  RedialConfig
	live *stream.Live

	start  sync.Once
	ctx    context.Context // canceled by Close
	cancel context.CancelFunc

	mu       sync.Mutex
	state    ConnState
	terminal error

	// Session-lifecycle counters, bumped inside transition so they
	// cover both custom OnTransition callbacks and the default logger.
	dials          atomic.Uint64
	establishes    atomic.Uint64
	reseeds        atomic.Uint64
	reseedFailures atomic.Uint64
	backoffs       atomic.Uint64
	gaveUp         atomic.Uint64
}

// RedialStats is a snapshot of one source's session-lifecycle
// counters, served on /stats and /metrics.
type RedialStats struct {
	Addr  string `json:"addr"`
	State string `json:"state"`
	// Dials counts connect+handshake attempts; Establishes counts the
	// ones that produced a session.
	Dials       uint64 `json:"dials"`
	Establishes uint64 `json:"establishes"`
	// Reseeds counts RIB-dump replays after re-established sessions;
	// ReseedFailures the ones that failed (the session continued).
	Reseeds        uint64 `json:"reseeds"`
	ReseedFailures uint64 `json:"reseed_failures"`
	// Backoffs counts waits after failed dials or lost sessions.
	Backoffs uint64 `json:"backoffs"`
	// GaveUp is 1 once the retry budget is exhausted and the feed has
	// ended with a terminal error.
	GaveUp uint64 `json:"gave_up"`
}

// Addr returns the collector address this source dials.
func (r *RedialSource) Addr() string { return r.addr }

// Stats snapshots the source's session-lifecycle counters. Safe to
// call concurrently with the connection loop.
func (r *RedialSource) Stats() RedialStats {
	return RedialStats{
		Addr:           r.addr,
		State:          r.State().String(),
		Dials:          r.dials.Load(),
		Establishes:    r.establishes.Load(),
		Reseeds:        r.reseeds.Load(),
		ReseedFailures: r.reseedFailures.Load(),
		Backoffs:       r.backoffs.Load(),
		GaveUp:         r.gaveUp.Load(),
	}
}

// NewRedialSource returns a reconnecting live source dialing addr.
func NewRedialSource(addr string, cfg RedialConfig) *RedialSource {
	if cfg.InitialBackoff <= 0 {
		cfg.InitialBackoff = 500 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 30 * time.Second
	}
	if cfg.Multiplier <= 1 {
		cfg.Multiplier = 2
	}
	if cfg.Jitter == 0 {
		cfg.Jitter = 0.2
	}
	if cfg.OnTransition == nil {
		cfg.OnTransition = transitionLogger(addr, cfg.Logger)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &RedialSource{addr: addr, cfg: cfg, live: stream.NewLive(), ctx: ctx, cancel: cancel}
}

// State reports the connection loop's current phase.
func (r *RedialSource) State() ConnState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// Next blocks until an element arrives from the current session (or a
// reseed replay). The first call starts the connection loop. When the
// feed ends because the retry budget ran out, Next surfaces that
// terminal error instead of a clean io.EOF.
func (r *RedialSource) Next() (*Elem, error) {
	r.start.Do(func() { go r.loop() })
	el, err := r.live.Next()
	if err != nil && errors.Is(err, io.EOF) {
		r.mu.Lock()
		terminal := r.terminal
		r.mu.Unlock()
		if terminal != nil {
			return nil, terminal
		}
	}
	return el, err
}

// Close ends the feed: the in-flight dial or session is abandoned,
// pending elements still drain, then the consumer sees io.EOF.
func (r *RedialSource) Close() { r.cancel() }

func (r *RedialSource) attach(ctx context.Context, runDone <-chan struct{}) {
	attachLive(ctx, runDone, r.live)
}

func (r *RedialSource) isClosed() bool { return r.ctx.Err() != nil }

// transitionLogger is the default OnTransition: structured slog lines
// at a severity matching the transition (routine phases at debug/info,
// failures at warn, terminal give-up at error).
func transitionLogger(addr string, logger *slog.Logger) func(ConnTransition) {
	return func(tr ConnTransition) {
		if logger == nil {
			logger = slog.Default()
		}
		attrs := []any{"source", addr, "from", tr.From.String(), "to", tr.To.String()}
		switch tr.To {
		case ConnDialing:
			logger.Debug("redial: dialing", attrs...)
		case ConnBackoff:
			logger.Warn("redial: backing off",
				append(attrs, "attempt", tr.Attempt, "wait", tr.Wait.String(), "err", errString(tr.Err))...)
		case ConnGaveUp:
			logger.Error("redial: retry budget exhausted",
				append(attrs, "attempt", tr.Attempt, "err", errString(tr.Err))...)
		case ConnEstablished:
			if tr.Err != nil { // non-fatal reseed failure
				logger.Warn("redial: reseed failed, continuing live",
					append(attrs, "err", tr.Err.Error())...)
				return
			}
			logger.Info("redial: session established", attrs...)
		default:
			logger.Info("redial: "+tr.To.String(), attrs...)
		}
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// transition records a state change, bumps the lifecycle counters, and
// notifies OnTransition (without holding the lock — the callback may
// inspect State of other sources).
func (r *RedialSource) transition(to ConnState, attempt int, err error, wait time.Duration) {
	r.mu.Lock()
	from := r.state
	r.state = to
	r.mu.Unlock()
	switch to {
	case ConnDialing:
		r.dials.Add(1)
	case ConnEstablished:
		if from == ConnDialing {
			r.establishes.Add(1)
		}
		if from == ConnReseeding && err != nil {
			r.reseedFailures.Add(1)
		}
	case ConnReseeding:
		r.reseeds.Add(1)
	case ConnBackoff:
		r.backoffs.Add(1)
	case ConnGaveUp:
		r.gaveUp.Store(1)
	}
	if r.cfg.OnTransition != nil {
		r.cfg.OnTransition(ConnTransition{
			From: from, To: to, Time: time.Now(),
			Attempt: attempt, Err: err, Wait: wait,
		})
	}
}

// backoffFor computes the jittered exponential delay for the given
// consecutive-failure count (1-based).
func (r *RedialSource) backoffFor(attempt int) time.Duration {
	d := float64(r.cfg.InitialBackoff)
	for i := 1; i < attempt; i++ {
		d *= r.cfg.Multiplier
		if d >= float64(r.cfg.MaxBackoff) {
			break
		}
	}
	d = min(d, float64(r.cfg.MaxBackoff))
	if r.cfg.Jitter > 0 {
		d *= 1 + r.cfg.Jitter*(2*rand.Float64()-1)
	}
	return time.Duration(d)
}

// loop is the connection goroutine: dial, receive, back off, repeat,
// until Close or the retry budget ends it.
func (r *RedialSource) loop() {
	defer r.live.Close()
	defer func() {
		if r.isClosed() {
			r.transition(ConnClosed, 0, nil, 0)
		}
	}()
	attempt, sessions := 0, 0
	for !r.isClosed() {
		r.transition(ConnDialing, 0, nil, 0)
		sess, err := DialBGPContext(r.ctx, r.addr, r.cfg.Session)
		if err != nil {
			if r.isClosed() {
				return
			}
			attempt++
			if r.cfg.MaxRetries > 0 && attempt > r.cfg.MaxRetries {
				r.mu.Lock()
				r.terminal = fmt.Errorf("bgpblackholing: redial %s: retry budget (%d) exhausted: %w", r.addr, r.cfg.MaxRetries, err)
				r.mu.Unlock()
				r.transition(ConnGaveUp, attempt, err, 0)
				return
			}
			if !r.waitBackoff(attempt, err) {
				return
			}
			continue
		}
		attempt = 0
		sessions++
		// Close ends the session, which unblocks its read.
		stop := context.AfterFunc(r.ctx, func() { sess.Close() })
		if r.isClosed() { // Close raced the dial
			return
		}
		r.transition(ConnEstablished, 0, nil, 0)
		if sessions > 1 && r.cfg.Reseed != nil {
			r.transition(ConnReseeding, 0, nil, 0)
			r.transition(ConnEstablished, 0, r.reseed(), 0)
		}
		readErr := sess.receive(r.live, r.cfg.CollectorName, r.cfg.Platform)
		stop()
		// A lost session redials after one base backoff: enough to
		// avoid a hot loop against a peer that accepts and instantly
		// drops, without treating an outage after hours of service as
		// a consecutive failure.
		if r.isClosed() || !r.waitBackoff(1, readErr) {
			return
		}
	}
}

// waitBackoff announces and sleeps one backoff, reporting false when
// Close ended the wait.
func (r *RedialSource) waitBackoff(attempt int, cause error) bool {
	wait := r.backoffFor(attempt)
	r.transition(ConnBackoff, attempt, cause, wait)
	select {
	case <-time.After(wait):
		return true
	case <-r.ctx.Done():
		return false
	}
}

// reseed replays the configured RIB dump into the stream; the entries
// are delivered on the consumer's goroutine like any other element, so
// the engine never sees concurrent seeding.
func (r *RedialSource) reseed() error {
	rc, err := r.cfg.Reseed()
	if err != nil {
		return fmt.Errorf("reseed: %w", err)
	}
	defer rc.Close()
	src := stream.FromMRT(mrt.NewReader(rc), r.cfg.CollectorName, r.cfg.Platform)
	for {
		el, err := src.Next()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, mrt.ErrTruncated) {
				return nil // end of archive, or the usual truncated tail
			}
			return fmt.Errorf("reseed: %w", err)
		}
		r.live.Publish(el)
	}
}
