package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"bgpblackholing"
)

// writes hands each write to the test as it happens.
type writes chan string

func (w writes) Write(p []byte) (int, error) { w <- string(p); return len(p), nil }

func (w writes) next(t *testing.T) string {
	t.Helper()
	select {
	case s := <-w:
		return s
	case <-time.After(5 * time.Second):
		t.Fatal("nothing printed within 5s")
		return ""
	}
}

// TestWatchOncePrintsAlerts drives one -watch connection against a server
// with a hub, resuming after alert 1: alert 2 prints as the table header
// and a row, or with -format ndjson as the raw record, to the writers the
// session is given, and the session's last id advances to it.
func TestWatchOncePrintsAlerts(t *testing.T) {
	rule, err := bgpblackholing.ParseRule("name=all")
	if err != nil {
		t.Fatal(err)
	}
	hub, err := bgpblackholing.NewAlertHub([]bgpblackholing.AlertRule{rule}, bgpblackholing.AlertHubConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	st, err := bgpblackholing.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := httptest.NewServer(bgpblackholing.NewStoreHandlerWith(st, nil, bgpblackholing.HandlerOptions{Hub: hub}))
	defer srv.Close()
	start := time.Date(2016, 9, 20, 12, 0, 0, 0, time.UTC)
	for _, p := range []string{"10.0.0.0/24", "192.0.2.1/32"} {
		hub.Publish(&bgpblackholing.Event{Prefix: netip.MustParsePrefix(p), Start: start, End: start.Add(90 * time.Second)})
	}
	rb, err := bgpblackholing.NewRemoteBackend([]string{srv.URL}, bgpblackholing.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for _, format := range []string{"table", "ndjson"} {
		out, stop, done := make(writes, 8), make(chan os.Signal, 1), make(chan error, 1)
		var stderr bytes.Buffer
		w := &watcher{stdout: out, stderr: &stderr, format: format, lastID: 1}
		go func() { done <- w.watchOnce(rb, nil, stop) }()
		if format == "table" {
			header, row := strings.Fields(out.next(t)), strings.Fields(out.next(t))
			want := []string{"ID", "RULE", "PREFIX", "START", "DURATION", "PROVIDERS", "USERS", "LEGITIMACY"}
			if !slices.Equal(header, want) {
				t.Errorf("table header %q, want %q", header, want)
			}
			if want := []string{"2", "all", "192.0.2.1/32", "2016-09-20T12:00:00Z", "1m30s", "0", "-"}; !slices.Equal(row, want) {
				t.Errorf("table row %q, want %q", row, want)
			}
		} else {
			line := out.next(t)
			var rec bgpblackholing.AlertRecord
			if err := json.Unmarshal([]byte(line), &rec); err != nil || !strings.HasSuffix(line, "}\n") || strings.Count(line, "\n") != 1 {
				t.Errorf("ndjson printed %q (%v), want one record line", line, err)
			}
			if rec.ID != 2 || rec.Rule != "all" || rec.Event.Prefix != "192.0.2.1/32" {
				t.Errorf("ndjson record %+v, want alert 2 of rule all on 192.0.2.1/32", rec)
			}
		}
		stop <- os.Interrupt
		if err := <-done; err != nil {
			t.Errorf("%s: interrupted session returned %v", format, err)
		}
		if w.lastID != 2 || stderr.Len() > 0 {
			t.Errorf("%s: last id %d, stderr %q; want 2 and nothing", format, w.lastID, stderr.String())
		}
	}
}

// TestWatchOnceReportsBadPayload: an alert whose payload does not decode
// is reported on stderr, prints nothing, and does not advance the id a
// reconnect resumes after.
func TestWatchOnceReportsBadPayload(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get("Last-Event-ID"); got != "3" {
			t.Errorf("Last-Event-ID %q, want 3", got)
		}
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, ": connected\n\nid: 9\nevent: alert\ndata: {\"id\":9,\n\n")
	}))
	defer srv.Close()
	rb, err := bgpblackholing.NewRemoteBackend([]string{srv.URL}, bgpblackholing.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	w := &watcher{stdout: &stdout, stderr: &stderr, format: "table", lastID: 3}
	if err := w.watchOnce(rb, nil, make(chan os.Signal)); err == nil {
		t.Error("a stream the server closed returned nil, want an error to reconnect on")
	}
	if !strings.Contains(stderr.String(), "bad alert payload") || stdout.Len() > 0 {
		t.Errorf("stdout %q, stderr %q; want the bad payload reported on stderr alone", stdout.String(), stderr.String())
	}
	if w.lastID != 3 {
		t.Errorf("last id advanced to %d past an alert that did not print", w.lastID)
	}
}
