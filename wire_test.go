package bgpblackholing

// Tests for what a read costs on the wire: how many writes an NDJSON
// stream makes per hop, when it first shows bytes, and how many
// connections a router opens to its shards.

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// writeCounter counts the writes, the bytes written and the flushes a
// handler makes to its ResponseWriter, forwarding them.
type writeCounter struct {
	writes, bytes, flushes atomic.Int64
}

func (c *writeCounter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(&countedWriter{w, c}, r)
	})
}

type countedWriter struct {
	http.ResponseWriter
	c *writeCounter
}

func (w *countedWriter) Write(p []byte) (int, error) {
	w.c.writes.Add(1)
	w.c.bytes.Add(int64(len(p)))
	return w.ResponseWriter.Write(p)
}

func (w *countedWriter) Flush() {
	w.c.flushes.Add(1)
	w.ResponseWriter.(http.Flusher).Flush()
}

// TestStreamWritesPer64KiB: an NDJSON window leaves a store and a router
// in writes of 64 KiB, not two per line — at most ⌈N / 64 KiB⌉ + 2 of
// them for N bytes — and the router's bytes are still the store's.
func TestStreamWritesPer64KiB(t *testing.T) {
	f := newFederationFixture(t)
	var single, shards, router writeCounter
	singleSrv := httptest.NewServer(single.wrap(NewStoreHandlerWith(f.single, f.p, HandlerOptions{})))
	defer singleSrv.Close()
	backends := make([]Backend, 0, 3)
	for _, st := range f.shards["prefix:16:3"] {
		srv := httptest.NewServer(shards.wrap(NewStoreHandlerWith(st, f.p, HandlerOptions{})))
		defer srv.Close()
		rb, err := NewRemoteBackend([]string{srv.URL}, RemoteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, rb)
	}
	routerSrv := httptest.NewServer(router.wrap(NewRouterHandler(NewFederatedStore(backends...), RouterOptions{})))
	defer routerSrv.Close()

	const path = "/events?format=ndjson"
	_, want := get(t, singleSrv.URL, path)
	if len(want) <= 64<<10 {
		t.Fatalf("fixture window is %d bytes; want one past a 64 KiB buffer", len(want))
	}
	_, got := get(t, routerSrv.URL, path)
	if string(got) != string(want) {
		t.Fatalf("router window (%d bytes) differs from the store's (%d bytes)", len(got), len(want))
	}
	bound := func(n int) int64 { return int64((n+64<<10-1)/(64<<10) + 2) }
	for _, c := range []struct {
		name  string
		n     int
		count *writeCounter
		most  int64
	}{
		{"store", len(want), &single, bound(len(want))},
		{"router", len(want), &router, bound(len(want))},
		// Three shards stream the window between them: whole buffers, and
		// a tail each.
		{"shards", len(want), &shards, bound(len(want)) + 1},
	} {
		t.Logf("%s: %d bytes, %d writes", c.name, c.n, c.count.writes.Load())
		if w := c.count.writes.Load(); w > c.most || w == 0 {
			t.Errorf("%s: a %d-byte window took %d writes, want 1..%d", c.name, c.n, w, c.most)
		}
	}
}

// linesBackend streams n short synthetic lines, recording what the
// handler had written and flushed when the last one was asked for.
type linesBackend struct {
	*StoreBackend
	n                           int
	counter                     *writeCounter
	writesAtLast, flushesAtLast int64
}

func (b *linesBackend) RecordLines(ctx context.Context, q Query) (*RecordStream, error) {
	i := 0
	var buf []byte
	return &RecordStream{next: func() (RecordLine, error) {
		if i == b.n {
			return RecordLine{}, io.EOF
		}
		if i == b.n-1 {
			b.writesAtLast, b.flushesAtLast = b.counter.writes.Load(), b.counter.flushes.Load()
		}
		buf = fmt.Appendf(buf[:0], `{"n":%d}`, i)
		i++
		return RecordLine{Line: buf}, nil
	}}, nil
}

// TestStreamFlushesEvery256Lines: a stream of short lines, which fill
// the 64 KiB buffer slowly, still reaches the client before its last
// line is produced: 256 lines held without a write are flushed.
func TestStreamFlushesEvery256Lines(t *testing.T) {
	const n = 600
	var c writeCounter
	be := &linesBackend{StoreBackend: NewStoreBackend(storeFixture(t), nil), n: n, counter: &c}
	srv := httptest.NewServer(c.wrap(newHandler(be, HandlerOptions{})))
	defer srv.Close()
	_, body := get(t, srv.URL, "/events?format=ndjson")
	if lines := countLines(body); lines != n {
		t.Fatalf("streamed %d lines, want %d", lines, n)
	}
	if be.writesAtLast < 2 || be.flushesAtLast < 2 {
		t.Errorf("before the last of %d lines: %d writes, %d flushes; want the two 256-line marks flushed", n, be.writesAtLast, be.flushesAtLast)
	}
	if w := c.writes.Load(); w > n/256+1 {
		t.Errorf("%d short lines took %d writes, want at most %d", n, w, n/256+1)
	}
}

func countLines(b []byte) int {
	n := 0
	for _, c := range b {
		if c == '\n' {
			n++
		}
	}
	return n
}

// TestRouterReusesShardConnections: a router under many concurrent
// clients keeps its connections to a shard open between requests
// instead of dialling one per request.
func TestRouterReusesShardConnections(t *testing.T) {
	const clients, requests = 16, 400
	var dials atomic.Int64
	shard := httptest.NewUnstartedServer(NewStoreHandlerWith(storeFixture(t), nil, HandlerOptions{}))
	shard.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	shard.Start()
	defer shard.Close()
	rb, err := NewRemoteBackend([]string{shard.URL}, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(NewRouterHandler(NewFederatedStore(rb), RouterOptions{}))
	defer router.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()

	var wg sync.WaitGroup
	var failed atomic.Int64
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range requests / clients {
				resp, err := client.Get(router.URL + "/events?limit=2")
				if err != nil {
					failed.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d of %d routed requests failed", n, requests)
	}
	if n := dials.Load(); n > 2*clients {
		t.Errorf("%d routed requests from %d clients opened %d shard connections, want at most %d", requests, clients, n, 2*clients)
	}
}
