package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bgpblackholing"
)

// runWatch is the -watch client: it subscribes to the server's /watch
// SSE stream and prints alerts as they arrive (table by default,
// -format ndjson for the raw records). On a dropped connection it
// reconnects with the last seen alert id in Last-Event-ID, so nothing
// within the server's replay ring is missed. Ctrl-C exits.
func runWatch(stdout, stderr io.Writer, c *config, rb *bgpblackholing.RemoteBackend) error {
	switch c.format {
	case "table", "ndjson":
	default:
		return fmt.Errorf("-watch supports -format table or ndjson, not %q", c.format)
	}
	params := url.Values{"rule": c.watchRules}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	w := &watcher{stdout: stdout, stderr: stderr, format: c.format}
	backoff := time.Second
	for {
		err := w.watchOnce(rb, params, stop)
		if err == nil {
			return nil // interrupted
		}
		// Auth and bad-request failures won't heal on retry.
		var re *bgpblackholing.RemoteError
		if errors.As(err, &re) && (re.Status == 400 || re.Status == 401 || re.Status == 404) {
			return err
		}
		fmt.Fprintf(stderr, "bhquery: watch: %v; reconnecting in %v (last id %d)\n", err, backoff, w.lastID)
		select {
		case <-stop:
			return nil
		case <-time.After(backoff):
		}
		backoff = min(backoff*2, 30*time.Second)
	}
}

// watcher is one -watch session; lastID is the last alert printed, which
// a reconnect resumes after.
type watcher struct {
	stdout, stderr io.Writer
	format         string
	printedHeader  bool
	lastID         uint64
}

// watchOnce runs one SSE connection until it drops (error) or the user
// interrupts (nil).
func (w *watcher) watchOnce(rb *bgpblackholing.RemoteBackend, params url.Values, stop <-chan os.Signal) error {
	header := http.Header{"Accept": {"text/event-stream"}}
	if w.lastID > 0 {
		header.Set("Last-Event-ID", strconv.FormatUint(w.lastID, 10))
	}
	resp, err := rb.Get(context.Background(), "/watch", params, header)
	if err != nil {
		return err
	}
	defer resp.Body.Close()

	// Tear the connection down on interrupt so the blocking read below
	// returns.
	done := make(chan struct{})
	defer close(done)
	interrupted := false
	go func() {
		select {
		case <-stop:
			interrupted = true
			resp.Body.Close()
		case <-done:
		}
	}()

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var id uint64
	var data strings.Builder
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if data.Len() > 0 {
				if err := w.printAlert(data.String()); err == nil && id > 0 {
					w.lastID = id
				}
			}
			id, data = 0, strings.Builder{}
		case strings.HasPrefix(line, ":"):
			// heartbeat comment
		case strings.HasPrefix(line, "id:"):
			id, _ = strconv.ParseUint(strings.TrimSpace(line[3:]), 10, 64)
		case strings.HasPrefix(line, "data:"):
			if data.Len() > 0 {
				data.WriteByte('\n')
			}
			data.WriteString(strings.TrimSpace(line[5:]))
		}
	}
	if interrupted {
		return nil
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		return err
	}
	return fmt.Errorf("stream closed")
}

// printAlert renders one alert record.
func (w *watcher) printAlert(data string) error {
	if w.format == "ndjson" {
		fmt.Fprintln(w.stdout, data)
		return nil
	}
	var rec bgpblackholing.AlertRecord
	if err := json.Unmarshal([]byte(data), &rec); err != nil {
		fmt.Fprintf(w.stderr, "bhquery: watch: bad alert payload: %v\n", err)
		return err
	}
	if !w.printedHeader {
		fmt.Fprintf(w.stdout, "%-6s %-16s %-20s %-20s %-12s %-28s %-6s %s\n",
			"ID", "RULE", "PREFIX", "START", "DURATION", "PROVIDERS", "USERS", "LEGITIMACY")
		w.printedHeader = true
	}
	ev := rec.Event
	dur := (time.Duration(ev.DurationSeconds) * time.Second).String()
	provs := strings.Join(ev.Providers, ",")
	if len(provs) > 27 {
		provs = provs[:24] + "..."
	}
	legit := ev.Legitimacy
	if legit == "" {
		legit = "-"
	}
	fmt.Fprintf(w.stdout, "%-6d %-16s %-20s %-20s %-12s %-28s %-6d %s\n",
		rec.ID, rec.Rule, ev.Prefix, ev.Start.Format("2006-01-02T15:04:05Z"), dur,
		provs, len(ev.Users), legit)
	return nil
}
