package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"time"
)

// server is a running bhserve or bhroute with the addresses it chose.
type server struct {
	*child
	httpURL string // http://127.0.0.1:PORT
	bgpAddr string // bhserve only
}

var (
	// bhserve logs through slog's text handler (msg="..."), bhroute
	// through the default one (bare message).
	httpAddrRE = regexp.MustCompile(`query API listening"? addr="?(http://[0-9.:]+)`)
	bgpAddrRE  = regexp.MustCompile(`listening for BGP sessions"? addr="?([0-9.:]+)`)
)

const serverStartTimeout = 30 * time.Second

// startServe launches bhserve on kernel-chosen ports and returns once
// its query API answers /healthz.
func (e *env) startServe(ctx context.Context, args ...string) (*server, error) {
	s, err := e.startServer(ctx, "bhserve", append([]string{"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0"}, args...))
	if err != nil {
		return nil, err
	}
	s.bgpAddr, err = s.waitLog(bgpAddrRE, serverStartTimeout)
	return s, err
}

// startServer launches a server binary, reads the query API's address
// from its log and waits for /healthz.
func (e *env) startServer(ctx context.Context, bin string, args []string) (*server, error) {
	s := &server{child: e.procs.command(ctx, e.bin(bin), args...)}
	if err := e.procs.start(s.child); err != nil {
		return nil, err
	}
	var err error
	if s.httpURL, err = s.waitLog(httpAddrRE, serverStartTimeout); err != nil {
		return nil, err
	}
	return s, waitHealthy(ctx, s)
}

// startRoute launches bhroute over the given shard APIs.
func (e *env) startRoute(ctx context.Context, shardURLs []string) (*server, error) {
	args := []string{"-http", "127.0.0.1:0"}
	for i, u := range shardURLs {
		args = append(args, "-shard", fmt.Sprintf("shard-%d=%s", i, u))
	}
	return e.startServer(ctx, "bhroute", args)
}

func waitHealthy(ctx context.Context, s *server) error {
	deadline := time.Now().Add(serverStartTimeout)
	for {
		status, _, err := httpGet(ctx, http.DefaultClient, s.httpURL+"/healthz")
		if err == nil && status == http.StatusOK {
			return nil
		}
		select {
		case <-s.exited:
			return fmt.Errorf("%s exited during start-up: %v\n%s", s.name, s.err, s.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %v (last: %d %v)\n%s", s.name, serverStartTimeout, status, err, s.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// serverStats is the part of bhserve's GET /stats the harness reads:
// the store's counters and, under "detector", the engine's and the
// alert hub's.
type serverStats struct {
	Events            int
	SegmentsCold      int
	SegmentsHydrated  int
	OpenDecodedEvents int
	Detector          struct {
		Engine struct {
			UpdatesProcessed uint64
			UpdatesCleaned   uint64
		} `json:"engine"`
		Alerts struct {
			Alerts       uint64 `json:"alerts"`
			WatcherDrops uint64 `json:"watcher_drops"`
		} `json:"alerts"`
	} `json:"detector"`
}

func fetchStats(ctx context.Context, base string) (*serverStats, error) {
	status, body, err := httpGet(ctx, http.DefaultClient, base+"/stats")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /stats: status %d err %v", status, err)
	}
	var s serverStats
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	return &s, nil
}

// httpGet fetches a URL and reads the body to its last byte.
func httpGet(ctx context.Context, c *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// newClient returns an HTTP client that keeps exactly one connection:
// one closed-loop client is one load-generating connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// failureLog renders a server's stderr for an error message: the last
// lines that are not bhserve's per-event log.
func failureLog(s *server) string {
	var keep []string
	for _, line := range strings.Split(s.stderr.String(), "\n") {
		if line != "" && !strings.Contains(line, `msg="event closed"`) {
			keep = append(keep, line)
		}
	}
	if len(keep) > 20 {
		keep = keep[len(keep)-20:]
	}
	return strings.Join(keep, "\n")
}
