package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"
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
