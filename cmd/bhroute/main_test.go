package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bgpblackholing"
)

// TestNewServerTimeouts: the router bounds slow headers and idle
// connections, and never the response write.
func TestNewServerTimeouts(t *testing.T) {
	srv := newServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v > 0", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v > 0", srv.IdleTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0: a write deadline cuts streamed responses", srv.WriteTimeout)
	}
}

// TestNewServerDoesNotCutLongStreams serves a handler that trickles
// lines for two seconds through newServer and reads every one of them:
// the timeouts bound the request, not a long streamed answer.
func TestNewServerDoesNotCutLongStreams(t *testing.T) {
	const lines, gap = 20, 100 * time.Millisecond
	srv := newServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		for i := 0; i < lines; i++ {
			fmt.Fprintf(w, "{\"line\":%d}\n", i)
			w.(http.Flusher).Flush()
			time.Sleep(gap)
		}
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	began := time.Now()
	resp, err := http.Get("http://" + ln.Addr().String() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		got++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream cut after %d lines: %v", got, err)
	}
	if got != lines {
		t.Fatalf("read %d lines, want %d", got, lines)
	}
	if took := time.Since(began); took < lines*gap {
		t.Fatalf("stream finished in %v; it should have trickled for %v", took, lines*gap)
	}
}

// TestRunRefusesUnboundedByMistake: 0 is how -rate-limit says "none"; a
// negative or non-finite rate is refused by name, not read as no limit
// (or, for +Inf, as a bucket that refills at once).
func TestRunRefusesUnboundedByMistake(t *testing.T) {
	for _, rate := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := run(config{rateLimit: rate}); err == nil || !strings.HasPrefix(err.Error(), "-rate-limit ") {
			t.Errorf("-rate-limit %v: %v; want it refused", rate, err)
		}
	}
}

// TestRunRefusesContradictingShards: bhroute takes no plan, it reads the
// one its shards were written under; shards that say two different
// things are not one fleet, and the router does not start over them.
func TestRunRefusesContradictingShards(t *testing.T) {
	stamped := func(identity string) string {
		dir := t.TempDir()
		st, err := bgpblackholing.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		// docs/FORMAT.md "Shard identity": one line in SHARD.
		if err := os.WriteFile(filepath.Join(dir, "SHARD"), []byte(identity+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	cfg := config{httpAddr: "127.0.0.1:0", timeout: 5 * time.Second,
		shards: []string{"a=" + stamped("prefix:8:2 0"), "b=" + stamped("prefix:8:2 0")}}
	if err := run(cfg); err == nil || !strings.Contains(err.Error(), "both shard 0 of plan prefix:8:2") {
		t.Fatalf("run over two shards stamped with one index: %v; want the contradiction", err)
	}

	// The same check, on a fleet that is one: the plan is learned.
	backends := make([]bgpblackholing.Backend, 2)
	for i := range backends {
		st, err := bgpblackholing.OpenStoreReadOnly(stamped(fmt.Sprintf("prefix:8:2 %d", i)))
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		backends[i] = bgpblackholing.NewStoreBackend(st, nil)
	}
	fed := bgpblackholing.NewFederatedStore(backends...)
	if err := learnPlacement(fed, time.Second); err != nil {
		t.Fatal(err)
	}
	if got, _ := fed.Placement(); got != "plan=prefix:8:2 placed=exact,covered,lpm" {
		t.Errorf("placement %q", got)
	}
}
