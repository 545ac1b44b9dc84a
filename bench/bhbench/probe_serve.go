package main

// Serving layers (backend.go, http.go): projection, record sets, JSON
// encoding, the handler into a recorder and over a loopback socket.
// They move shard_p50_us, shard_cpu_us_per_req and live_read_p50_us.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"

	bh "bgpblackholing"
)

// serveRig is the serving stack over one opened store: the backend,
// the handler, and the same handler behind a loopback socket.
type serveRig struct {
	be      *bh.StoreBackend
	handler http.Handler
	srv     *httptest.Server
	client  *http.Client
}

func newServeRig(in *probeInputs, st *bh.Store) *serveRig {
	r := &serveRig{be: bh.NewStoreBackend(st, in.p), handler: bh.NewStoreHandler(st, in.p), client: newClient()}
	r.srv = httptest.NewServer(r.handler)
	return r
}

func (r *serveRig) close() {
	r.client.CloseIdleConnections()
	r.srv.Close()
}

// serveStages continues the read chain above the store: projection,
// encoding, the backend, and the handler with and without a socket.
func serveStages(tr *tracer, r *serveRig, k probeKeys, windowEvents [][]*bh.Event) error {
	ctx := context.Background()
	var flat []*bh.Event
	for _, w := range windowEvents {
		flat = append(flat, w...)
	}
	records := make([]bh.EventRecord, 0, len(flat))
	tr.do("backend.project", len(flat), func() {
		for _, ev := range flat {
			records = append(records, bh.NewEventRecord(ev))
		}
	})
	var jerr error
	tr.do("http.encode_json", len(records), func() {
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		jerr = enc.Encode(records)
	})
	if jerr != nil {
		return jerr
	}

	be := r.be
	var berr error
	tr.do("backend.records_lpm", len(k.lpm), func() {
		for _, p := range k.lpm {
			if _, err := be.Records(ctx, bh.Query{Prefix: p, Mode: bh.PrefixLPM, Limit: pointLimit}); err != nil {
				berr = err
			}
		}
	})
	lines := 0
	tr.do("backend.lines", 0, func() {
		for _, w := range k.windows {
			rs, err := be.RecordLines(ctx, bh.Query{From: w[0], To: w[1]})
			if err != nil {
				berr = err
				return
			}
			for {
				if _, err := rs.Next(); err != nil {
					break
				}
				lines++
			}
			rs.Close()
		}
	})
	tr.setOps(lines)
	if berr != nil {
		return berr
	}

	handler := r.handler
	paths := make([]string, len(k.lpm))
	for i, p := range k.lpm {
		paths[i] = pointPath(p.Addr().String(), "lpm")
	}
	var herr error
	serve := func(path string) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			herr = fmt.Errorf("handler %s: status %d", path, rec.Code)
		}
	}
	tr.do("http.handler_point", len(paths), func() {
		for _, p := range paths {
			serve(p)
		}
	})
	tr.do("http.handler_window", len(k.windows), func() {
		for _, w := range k.windows {
			q := url.Values{"format": {"ndjson"}, "from": {w[0].UTC().Format("2006-01-02T15:04:05Z")}, "to": {w[1].UTC().Format("2006-01-02T15:04:05Z")}}
			serve("/events?" + q.Encode())
		}
	})
	if herr != nil {
		return herr
	}

	srv, hc := r.srv, r.client
	var buf bytes.Buffer
	tr.do("http.socket_point", len(paths), func() {
		for _, p := range paths {
			if status, err := fetchInto(ctx, hc, srv.URL+p, &buf); err != nil || status != http.StatusOK {
				herr = fmt.Errorf("socket %s: status %d err %v", p, status, err)
			}
		}
	})
	return herr
}
