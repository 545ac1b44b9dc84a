// Command bhserve runs a live blackholing detector: it listens for BGP
// sessions on a TCP port (like a RIPE RIS collector), feeds every
// received UPDATE through the inference engine, and prints blackholing
// events as they close — the §10 near-real-time workflow as a daemon.
//
// With -store, every closed event also lands in the persistent event
// store (crash-safe segmented log, background-compacted), and -http
// serves the store's longitudinal query API (JSON + NDJSON) while the
// detector runs. -ingest pre-loads a replay window into the store at
// startup, so the query API has history before the first live session:
//
//	bhserve -listen 127.0.0.1:1790 -scale 0.15 -seed 42 \
//	        -store ./bhstore -http 127.0.0.1:8080 -ingest 800:810
//
// Point any RFC 4271 speaker at it (examples/livefeed shows a client);
// updates tagged with dictionary communities start events, withdrawals
// and untagged re-announcements close them. SIGINT flushes open events
// and exits. Query the store while it runs:
//
//	curl 'http://127.0.0.1:8080/events?prefix=10.1.2.3&mode=lpm'
//	bhquery -server http://127.0.0.1:8080 -origin 65001
//
// -rules-file loads alert rules (one per line, "name=x prefix=..."
// syntax; see the README's Alerting section) into the alerting hub:
// matching events stream to SSE clients on GET /watch, to webhooks
// registered with -webhook (repeatable), and the rule set is editable
// at runtime via /rules. Verdict-conditioned rules are enriched at
// detection time through the world's annotator:
//
//	bhserve ... -http 127.0.0.1:8080 \
//	        -rules-file rules.txt -webhook http://127.0.0.1:9000/hook
//	bhquery -server http://127.0.0.1:8080 -watch
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bgpblackholing"
)

// config carries the parsed command line.
type config struct {
	listen     string
	scale      float64
	seed       int64
	asn        uint32
	storeDir   string
	httpAddr   string
	ingest     string
	policy     string
	syncPolicy string
	mmap       bool
	authToken  string
	rateLimit  float64
	liveBuffer int
	subQueue   int
	rulesFile  string
	webhooks   []string
	workload   string
	logFormat  string
	logLevel   string
	pprof      bool
}

func main() {
	var cfg config
	flags(flag.CommandLine, &cfg)
	flag.Parse()
	if err := setupLogger(cfg.logFormat, cfg.logLevel); err != nil {
		fmt.Fprintln(os.Stderr, "bhserve:", err)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		slog.Error("bhserve failed", "err", err)
		os.Exit(1)
	}
}

// flags defines bhserve's flags on fs, each setting its field of c.
func flags(fs *flag.FlagSet, c *config) {
	fs.StringVar(&c.listen, "listen", "127.0.0.1:1790", "listen address for BGP sessions")
	fs.Float64Var(&c.scale, "scale", 0.15, "world scale (dictionary + topology)")
	fs.Int64Var(&c.seed, "seed", 42, "deterministic seed")
	c.asn = 64900
	fs.Func("asn", "local AS number, 1 to 4294967295 (default 64900)", func(v string) error {
		n, err := strconv.ParseUint(v, 10, 32)
		if c.asn = uint32(n); err == nil && n == 0 {
			return fmt.Errorf("AS 0 is reserved (RFC 7607)")
		}
		return err
	})
	fs.StringVar(&c.storeDir, "store", "", "persist events to this store directory")
	fs.StringVar(&c.httpAddr, "http", "", "serve the store's query API on this address (requires -store)")
	fs.StringVar(&c.ingest, "ingest", "", "replay days FROM:TO into the store at startup (requires -store)")
	fs.StringVar(&c.policy, "compact-policy", "merge-all", "store compaction policy: merge-all, or tiered[,partition=30d,ratio=4,min-run=4]")
	fs.StringVar(&c.syncPolicy, "sync-policy", "close", "store durability: close, always, or group[,every=N,interval=D]")
	fs.Bool("cold-open", true, "deprecated: no effect (every store open is cold)")
	fs.BoolVar(&c.mmap, "mmap", true, "memory-map sealed segments instead of reading them into the heap (unix only; ignored elsewhere)")
	fs.StringVar(&c.authToken, "auth-token", "", "require this bearer token on the query API (default open)")
	fs.Float64Var(&c.rateLimit, "rate-limit", 0, "per-client query API requests/second (0 = unlimited)")
	fs.IntVar(&c.liveBuffer, "live-buffer", 0, "bound the live feed's pending-element buffer, dropping oldest past it (0 = unbounded)")
	fs.IntVar(&c.subQueue, "sub-queue", 0, "bound each event subscriber's queue, dropping oldest past it (0 = unbounded)")
	fs.StringVar(&c.workload, "workload", "", "scenario preset for the world and -ingest replay: default or flash-crowd")
	fs.StringVar(&c.rulesFile, "rules-file", "", "load alert rules from this file (one per line, 'name=x prefix=...' syntax)")
	fs.Func("webhook", "POST matching alerts to this URL (repeatable)", func(v string) error {
		c.webhooks = append(c.webhooks, v)
		return nil
	})
	fs.StringVar(&c.logFormat, "log-format", "text", "log output format: text or json")
	fs.StringVar(&c.logLevel, "log-level", "info", "minimum log level: debug, info, warn, or error")
	fs.BoolVar(&c.pprof, "pprof", false, "serve net/http/pprof under /debug/pprof/ on the query API (requires -http; auth-protected when -auth-token is set)")
}

// setupLogger installs the process-wide slog default per -log-format
// and -log-level.
func setupLogger(format, level string) error {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return fmt.Errorf("-log-level: unknown level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	switch strings.ToLower(format) {
	case "text":
		h = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	default:
		return fmt.Errorf("-log-format: unknown format %q (want text or json)", format)
	}
	slog.SetDefault(slog.New(h))
	return nil
}

func run(cfg config) error {
	switch {
	case cfg.storeDir == "" && (cfg.httpAddr != "" || cfg.ingest != ""):
		return fmt.Errorf("-http and -ingest require -store")
	case cfg.pprof && cfg.httpAddr == "":
		return fmt.Errorf("-pprof requires -http")
	case !(cfg.rateLimit >= 0) || math.IsInf(cfg.rateLimit, 1):
		return fmt.Errorf("-rate-limit %v: want a finite rate ≥ 0 (0 = unlimited)", cfg.rateLimit)
	case cfg.liveBuffer < 0:
		return fmt.Errorf("-live-buffer %d: want ≥ 0 (0 = unbounded)", cfg.liveBuffer)
	case cfg.subQueue < 0:
		return fmt.Errorf("-sub-queue %d: want ≥ 0 (0 = unbounded)", cfg.subQueue)
	case cfg.asn == 0:
		return fmt.Errorf("-asn 0: AS 0 is reserved (RFC 7607)")
	}
	pol, err := bgpblackholing.ParseCompactionPolicy(cfg.policy)
	if err != nil {
		return fmt.Errorf("-compact-policy: %w", err)
	}
	syncPol, err := bgpblackholing.ParseSyncPolicy(cfg.syncPolicy)
	if err != nil {
		return fmt.Errorf("-sync-policy: %w", err)
	}
	// A named preset keeps its own timeline length (flash-crowd is a
	// short dense run, not an 850-day longitudinal one).
	days := 850
	if cfg.workload != "" && cfg.workload != "default" {
		days = 0
	}
	p, err := bgpblackholing.NewPipeline(bgpblackholing.Options{
		Seed: cfg.seed, TopoScale: cfg.scale, CollectorScale: cfg.scale, EventScale: cfg.scale,
		Days: days, Workload: cfg.workload,
	})
	if err != nil {
		return err
	}

	// One Telemetry per process: the store's write-path instruments,
	// the detector / hub snapshots and the HTTP middleware all feed the
	// registry GET /metrics renders.
	tel := bgpblackholing.NewTelemetry()

	// The store outlives individual runs; sealed segments compact in
	// the background under the configured policy (tiered policies keep
	// cold partitions untouched and give DeletePrefix tombstones their
	// physical erasure pass).
	var st *bgpblackholing.Store
	if cfg.storeDir != "" {
		st, err = bgpblackholing.OpenStoreWith(cfg.storeDir, bgpblackholing.StoreOptions{
			CompactSegments: 8, Policy: pol, Sync: syncPol, Mmap: cfg.mmap,
			Instruments: tel.StoreInstruments(),
		})
		if err != nil {
			return err
		}
		defer st.Close()
		tel.ObserveStore(st)
		slog.Info("store opened", "dir", cfg.storeDir, "events", st.Len(), "sync_policy", cfg.syncPolicy)
	}

	if cfg.ingest != "" {
		if err := ingestWindow(p, st, cfg.ingest); err != nil {
			return fmt.Errorf("ingest: %w", err)
		}
	}

	// The detector exists before the HTTP server so /stats can surface
	// its live fan-out counters. Bounded subscriber queues keep a
	// stalled consumer from buffering the run's whole event stream.
	var detOpts []bgpblackholing.DetectorOption
	if cfg.subQueue > 0 {
		detOpts = append(detOpts, bgpblackholing.WithSubscriberQueueBound(cfg.subQueue, bgpblackholing.DropOldest))
	}
	det := p.NewDetector(detOpts...)
	tel.ObserveDetector(det)

	// The alerting hub exists whenever it has a surface to serve: an
	// HTTP API (/watch, /rules), an initial rule set, or webhooks.
	// Detection-time enrichment rides the world's annotator, so
	// verdict-conditioned rules fire on the live stream.
	var hub *bgpblackholing.AlertHub
	if cfg.httpAddr != "" || cfg.rulesFile != "" || len(cfg.webhooks) > 0 {
		rules, err := loadRules(cfg.rulesFile)
		if err != nil {
			return fmt.Errorf("-rules-file: %w", err)
		}
		hubCfg := bgpblackholing.AlertHubConfig{Annotator: p.Annotator()}
		if cfg.subQueue > 0 {
			hubCfg.WatchBound = cfg.subQueue
		}
		hub, err = bgpblackholing.NewAlertHub(rules, hubCfg)
		if err != nil {
			return fmt.Errorf("rules: %w", err)
		}
		defer hub.Close()
		for _, u := range cfg.webhooks {
			if err := hub.AddWebhook(u, bgpblackholing.WebhookConfig{}); err != nil {
				return fmt.Errorf("-webhook: %w", err)
			}
		}
		tel.ObserveHub(hub)
		slog.Info("alerting hub ready", "rules", len(rules), "webhooks", len(cfg.webhooks))
	}

	var srv *http.Server
	if cfg.httpAddr != "" {
		hln, err := net.Listen("tcp", cfg.httpAddr)
		if err != nil {
			return err
		}
		// The handler carries the world's annotator (ROA registry +
		// IRR/web dictionary), so /events?enrich=1 and /legitimacy can
		// answer "was this blackholing legitimate" per event. Attach it
		// to the store too, for programmatic Query.Enrich callers.
		st.SetAnnotator(p.Annotator())
		srv = newServer(bgpblackholing.NewStoreHandlerWith(st, p, bgpblackholing.HandlerOptions{
			AuthToken: cfg.authToken,
			RateLimit: cfg.rateLimit,
			Detector:  det,
			Hub:       hub,
			Telemetry: tel,
			Pprof:     cfg.pprof,
		}))
		go srv.Serve(hln)
		// Backstop for error paths; the normal exit drains gracefully
		// below before the deferred store close runs.
		defer srv.Close()
		slog.Info("query API listening", "addr", "http://"+hln.Addr().String(),
			"auth", cfg.authToken != "", "rate_limit", cfg.rateLimit, "pprof", cfg.pprof)
		if reg := p.RPKIRegistry(); reg != nil {
			slog.Info("legitimacy enrichment on", "roas", reg.Len(), "communities", len(p.Dict.Entries()))
		}
	}

	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	slog.Info("listening for BGP sessions", "addr", ln.Addr().String(), "asn", cfg.asn,
		"communities", len(p.Dict.Entries()))

	// The live feed: every accepted BGP session publishes its updates
	// into the source the detector drains.
	live := bgpblackholing.NewLiveSource()
	if cfg.liveBuffer > 0 {
		live.SetBufferLimit(cfg.liveBuffer)
	}
	serveRes := make(chan error, 1)
	go func() {
		// ServeBGP closes the feed on return, so Run below still drains
		// and reports; the error is re-checked after Run so a listener
		// death does not pass as a clean exit-0 shutdown.
		serveRes <- live.ServeBGP(ln, serveCfg(cfg.asn))
	}()

	// Events print the moment they close, not at shutdown; with a store
	// they persist through the sink the same moment.
	waitSink := func() error { return nil }
	if st != nil {
		waitSink = det.SinkToStore(st)
	}
	waitHub := func() {}
	if hub != nil {
		waitHub = det.SinkToHub(hub)
	}
	printed := make(chan struct{})
	sub := det.Subscribe()
	go func() {
		defer close(printed)
		for ev := range sub {
			printEvent(ev)
		}
	}()

	// SIGINT/SIGTERM: stop accepting and close the feed; Run drains
	// what is buffered, flushes open events (they stream to the
	// subscriber and the store sink) and returns.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		slog.Info("shutting down")
		ln.Close()
		live.Close()
	}()

	res, err := det.Run(context.Background(), live)
	if err != nil {
		return err
	}
	<-printed
	if err := waitSink(); err != nil {
		return fmt.Errorf("store sink: %w", err)
	}
	waitHub()
	// Graceful HTTP shutdown: drain in-flight store queries before the
	// deferred store close can pull the store out from under them (the
	// old abrupt Close raced exactly that).
	if srv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Shutdown(sctx); err != nil {
			srv.Close()
		}
		cancel()
	}
	m := res.Metrics
	slog.Info("run complete",
		"updates", m.UpdatesProcessed, "cleaned", m.UpdatesCleaned,
		"detections", m.Detections, "events", m.EventsClosed,
		"explicit_ends", m.ExplicitEnds, "implicit_ends", m.ImplicitEnds)
	if n := live.Dropped(); n > 0 {
		slog.Warn("live buffer dropped elements", "dropped", n, "bound", cfg.liveBuffer)
	}
	if m.SubscriberDrops > 0 || m.SubscriberEvictions > 0 {
		slog.Warn("slow subscribers", "dropped", m.SubscriberDrops, "evicted", m.SubscriberEvictions)
	}
	if hub != nil {
		hs := hub.Stats()
		if hs.Alerts > 0 || hs.WatcherDrops > 0 {
			slog.Info("alerting hub summary",
				"alerts", hs.Alerts, "published", hs.Published, "watcher_drops", hs.WatcherDrops)
		}
		for _, ws := range hs.Webhooks {
			slog.Info("webhook summary", "url", ws.URL, "delivered", ws.Delivered,
				"retries", ws.Retries, "dead_letters", ws.DeadLetters, "dropped", ws.Dropped)
		}
	}
	if st != nil {
		s := st.Stats()
		slog.Info("store summary", "events", s.Events, "prefixes", s.Prefixes,
			"segments", s.Segments, "bytes", s.Bytes)
	}
	// A listener that died on its own (not via the SIGINT ln.Close) is a
	// failed run. ServeBGP may still be waiting on sessions lingering
	// past SIGINT, so don't block on it for long.
	select {
	case serr := <-serveRes:
		if serr != nil {
			return fmt.Errorf("listener failed: %w", serr)
		}
	case <-time.After(time.Second):
	}
	return nil
}

// Slow-client bounds on the query API: the time a peer has to send its
// request headers, and how long an idle keep-alive connection is kept.
// There is deliberately no WriteTimeout: /events NDJSON and the /watch
// SSE stream are unbounded, and a write deadline would cut them mid-body.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

func newServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// loadRules reads a rules file: one rule per line in the compact
// "name=x prefix=..." syntax, with blank lines and #-comments skipped.
// An empty path yields an empty (but editable via /rules) rule set.
func loadRules(path string) ([]bgpblackholing.AlertRule, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rules []bgpblackholing.AlertRule
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r, err := bgpblackholing.ParseRule(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// ingestWindow replays days "FROM:TO" of the scenario into the store,
// so the query API starts with longitudinal history.
func ingestWindow(p *bgpblackholing.Pipeline, st *bgpblackholing.Store, window string) error {
	head, tail, ok := strings.Cut(window, ":")
	if !ok {
		return fmt.Errorf("bad window %q (want FROM:TO)", window)
	}
	from, err1 := strconv.Atoi(head)
	to, err2 := strconv.Atoi(tail)
	if err1 != nil || err2 != nil || to <= from {
		return fmt.Errorf("bad window %q (want FROM:TO with TO > FROM)", window)
	}
	slog.Info("ingesting replay window", "from_day", from, "to_day", to)
	det := p.NewDetector()
	wait := det.SinkToStore(st)
	res, err := det.Run(context.Background(), p.Replay(from, to))
	if err != nil {
		return err
	}
	if err := wait(); err != nil {
		return err
	}
	slog.Info("ingest complete", "events", len(res.Events))
	return nil
}

func serveCfg(asn uint32) bgpblackholing.BGPServerConfig {
	return bgpblackholing.BGPServerConfig{
		ASN:           bgpblackholing.ASN(asn),
		BGPID:         netip.MustParseAddr("10.255.0.1"),
		HoldTime:      90 * time.Second,
		CollectorName: "bhserve",
		Platform:      bgpblackholing.PlatformRIS,
		Logf: func(format string, args ...any) {
			slog.Info(fmt.Sprintf(format, args...), "component", "bgp-listener")
		},
	}
}

func printEvent(ev *bgpblackholing.Event) {
	var provs []string
	for _, pr := range ev.Providers {
		provs = append(provs, pr.String())
	}
	slog.Info("event closed",
		"prefix", ev.Prefix.String(),
		"start", ev.Start.Format(time.RFC3339),
		"end", ev.End.Format(time.RFC3339),
		"duration", ev.Duration().Truncate(time.Second).String(),
		"providers", strings.Join(provs, ","),
		"users", len(ev.Users))
}
