// Command bhroute federates the query APIs of several bhserve shards
// behind one endpoint: it fans each request out to every shard — or,
// for a prefix query over a fleet written by one prefix-split
// SinkToShards, to the one shard whose identity says it holds the
// answer — merges the answers in global event order, and reports
// partial results honestly when a shard is down (HTTP 200 +
// X-Shards-Failed rather than an error). Writes stay on the shard
// servers; bhroute is a stateless read tier that can be restarted or
// scaled at will. It takes no plan: it reads the shards' identities at
// start-up, logs what it learned, and exits 1 if they contradict each
// other (two plans, one index twice, a shard count that is not the
// plan's).
//
// Shards come from a static list, either repeated -shard flags or a
// -shards file (one shard per line):
//
//	# name = target [replica-target ...]
//	edge-a = http://127.0.0.1:8081 http://127.0.0.1:9081
//	edge-b = http://127.0.0.1:8082
//	cold   = /var/bh/replicas/cold
//
// An http:// or https:// target is a bhserve/bhroute query API; extra
// targets for the same shard are replicas, raced with hedged retries
// (-hedge) after -timeout-guarded attempts. Any other target is a
// local store directory opened read-only — the shape produced by
// `bhquery -replicate-to` or any rsync'd store dir.
//
//	bhroute -http 127.0.0.1:8090 \
//	        -shard edge-a=http://127.0.0.1:8081 \
//	        -shard edge-b=http://127.0.0.1:8082 \
//	        -shard edge-c=http://127.0.0.1:8083
//	bhquery -server http://127.0.0.1:8090 -origin 65001
//
// Routes: bhserve's, as NewRouterHandler describes them, plus /metrics.
// See OPERATIONS.md for the runbook.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bgpblackholing"
)

type config struct {
	httpAddr   string
	shardsFile string
	shards     []string
	authToken  string
	shardToken string
	timeout    time.Duration
	hedge      time.Duration
	rateLimit  float64
}

func main() {
	var cfg config
	flag.StringVar(&cfg.httpAddr, "http", "127.0.0.1:8090", "serve the federated query API on this address")
	flag.StringVar(&cfg.shardsFile, "shards", "", "shards file: one 'name = target [replica...]' per line")
	flag.Func("shard", "one shard, 'name=target[,replica...]' (repeatable); http(s) targets are shard query APIs, anything else a read-only store directory", func(v string) error {
		cfg.shards = append(cfg.shards, v)
		return nil
	})
	flag.StringVar(&cfg.authToken, "auth-token", "", "require this bearer token on the router's API (default open)")
	flag.StringVar(&cfg.shardToken, "shard-token", "", "bearer token bhroute presents to the shard APIs")
	flag.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-shard request timeout")
	flag.DurationVar(&cfg.hedge, "hedge", 0, "race a shard's replicas after this delay (0 = sequential failover only)")
	flag.Float64Var(&cfg.rateLimit, "rate-limit", 0, "per-client requests/second (0 = unlimited)")
	flag.Parse()
	if err := run(cfg); err != nil {
		slog.Error("bhroute failed", "err", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if !(cfg.rateLimit >= 0) || math.IsInf(cfg.rateLimit, 1) {
		return fmt.Errorf("-rate-limit %v: want a finite rate ≥ 0 (0 = unlimited)", cfg.rateLimit)
	}
	shards, err := loadShards(cfg)
	if err != nil {
		return err
	}
	if len(shards) == 0 {
		return fmt.Errorf("no shards configured; pass -shard name=url or -shards file")
	}
	backends := make([]bgpblackholing.Backend, 0, len(shards))
	for _, sh := range shards {
		b, err := openShard(sh, cfg)
		if err != nil {
			return fmt.Errorf("shard %s: %w", sh.name, err)
		}
		backends = append(backends, b)
		slog.Info("shard configured", "name", sh.name, "targets", len(sh.targets), "remote", isRemote(sh.targets[0]))
	}
	fed := bgpblackholing.NewFederatedStore(backends...)
	defer fed.Close()
	if err := learnPlacement(fed, cfg.timeout); err != nil {
		return err
	}

	tel := bgpblackholing.NewTelemetry()
	handler := bgpblackholing.NewRouterHandler(fed, bgpblackholing.RouterOptions{
		AuthToken: cfg.authToken,
		RateLimit: cfg.rateLimit,
		Telemetry: tel,
	})
	ln, err := net.Listen("tcp", cfg.httpAddr)
	if err != nil {
		return err
	}
	srv := newServer(handler)
	slog.Info("federated query API listening", "addr", "http://"+ln.Addr().String(),
		"shards", len(backends), "auth", cfg.authToken != "",
		"timeout", cfg.timeout, "hedge", cfg.hedge)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		return err
	case <-sig:
		slog.Info("shutting down")
		// Drain like bhserve: an in-flight NDJSON window ends at its last
		// line, not mid-body.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return srv.Close()
		}
		return nil
	}
}

// learnPlacement reads the shards' identities once before serving and
// logs what the router will do with them. Only identities that
// contradict each other are an error: the fleet is not the one its
// writer made, and starting would serve it anyway. A shard that is down
// teaches nothing: every query goes to every shard until a /stats request
// reaches them all and reads the identities again.
func learnPlacement(fed *bgpblackholing.FederatedStore, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if _, err := fed.Stats(ctx); err != nil {
		slog.Warn("no shard answered /stats", "err", err)
	}
	placement, err := fed.Placement()
	if err != nil {
		return err
	}
	slog.Info("placement " + placement)
	return nil
}

// Slow-client bounds on the query API: the time a peer has to send its
// request headers, and how long an idle keep-alive connection is kept.
// There is deliberately no WriteTimeout: /events NDJSON is an unbounded
// stream, and a write deadline would cut a long answer mid-body.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

func newServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// shardSpec is one parsed shard line: a name and its target list
// (primary first, replicas after).
type shardSpec struct {
	name    string
	targets []string
}

func isRemote(target string) bool {
	return strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://")
}

// openShard builds the Backend for one shard: remote targets get a
// hedging RemoteBackend, a local target a read-only store.
func openShard(sh shardSpec, cfg config) (bgpblackholing.Backend, error) {
	if isRemote(sh.targets[0]) {
		for _, t := range sh.targets {
			if !isRemote(t) {
				return nil, fmt.Errorf("mixed remote and local targets")
			}
		}
		return bgpblackholing.NewRemoteBackend(sh.targets, bgpblackholing.RemoteOptions{
			Name:       sh.name,
			AuthToken:  cfg.shardToken,
			Timeout:    cfg.timeout,
			HedgeDelay: cfg.hedge,
		})
	}
	if len(sh.targets) > 1 {
		return nil, fmt.Errorf("local store shards take a single directory")
	}
	st, err := bgpblackholing.OpenStoreReadOnly(sh.targets[0])
	if err != nil {
		return nil, err
	}
	return bgpblackholing.NewStoreBackend(st, nil).WithName(sh.name), nil
}

// loadShards merges the -shards file and -shard flags, in that order.
func loadShards(cfg config) ([]shardSpec, error) {
	var out []shardSpec
	seen := map[string]bool{}
	add := func(spec, origin string) error {
		sh, err := parseShard(spec)
		if err != nil {
			return fmt.Errorf("%s: %w", origin, err)
		}
		if seen[sh.name] {
			return fmt.Errorf("%s: duplicate shard name %q", origin, sh.name)
		}
		seen[sh.name] = true
		out = append(out, sh)
		return nil
	}
	if cfg.shardsFile != "" {
		data, err := os.ReadFile(cfg.shardsFile)
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			if err := add(line, fmt.Sprintf("%s:%d", cfg.shardsFile, i+1)); err != nil {
				return nil, err
			}
		}
	}
	for _, spec := range cfg.shards {
		if err := add(spec, "-shard"); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// parseShard parses "name = target [target...]" (file form) or
// "name=target[,target...]" (flag form).
func parseShard(spec string) (shardSpec, error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok {
		return shardSpec{}, fmt.Errorf("bad shard %q (want name=target)", spec)
	}
	name = strings.TrimSpace(name)
	var targets []string
	for _, field := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
		if field != "" {
			targets = append(targets, field)
		}
	}
	if name == "" || len(targets) == 0 {
		return shardSpec{}, fmt.Errorf("bad shard %q (want name=target)", spec)
	}
	return shardSpec{name: name, targets: targets}, nil
}
