package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference is how the benchmark tells a slow program from a slow
// machine. The box is a few virtual CPUs of a shared host: a fixed
// piece of work takes anywhere between 1× and 1.5× its best time,
// depending on what the neighbours do, for spells of milliseconds to
// minutes (sized with a spin loop: per-second medians of 12.5–18.4 ms
// against a floor of 11.0 ms), and no statistic of a 20-second run
// escapes a spell that lasts the whole run. So every timed slice of a
// workload (a few hundred requests, one exec) is followed by a reading
// of the reference, a fixed unit of work that lives in this file and
// never changes with the program, and the slice's time is reported at
// reference speed:
//
//	time at reference speed = measured time × referenceNominal ÷ the reading
//
// Each end-to-end figure is the median of its slices' values. The unit
// is an HTTP round trip over loopback to a server in this process that
// JSON-encodes a small fixed answer, which the client decodes: socket
// calls, scheduler hand-offs, allocation and encoding, the same kinds
// of work the measured programs do, so that it slows down when they
// do. Sized on ten 20-second query-shard runs, one seed each, in a
// noisy hour: the p50 as measured ranged 38 % and its quartiles were
// 28 % of the median apart; at reference speed 9 % and 5 %.
const (
	// referenceNominal is a round number near one reading beside a
	// running workload when nothing disturbs the box. It only fixes
	// the scale, so that figures read as real milliseconds then.
	referenceNominal = 100 * time.Microsecond
	// referenceTrips is how many round trips one reading takes: about
	// 6 ms, beside slices of 200 ms and more.
	referenceTrips     = 64
	referenceWarmTrips = 2
)

type referenceRecord struct {
	Prefix      string   `json:"prefix"`
	Start       string   `json:"start"`
	End         string   `json:"end"`
	Providers   []string `json:"providers"`
	Communities []string `json:"communities"`
	Peers       int      `json:"peers"`
}

type referenceAnswer struct {
	Total  int               `json:"total"`
	Events []referenceRecord `json:"events"`
}

// reference is the running reference server with the clients that
// read it.
type reference struct {
	srv  *http.Server
	url  string
	done chan struct{} // closed when Serve has returned

	mu      sync.Mutex
	clients []*referenceClient // idle, one connection each
}

type referenceClient struct {
	hc  *http.Client
	buf bytes.Buffer
}

func startReference() (*reference, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("reference server: %w", err)
	}
	answer := referenceAnswer{Total: 8}
	for i := 0; i < answer.Total; i++ {
		answer.Events = append(answer.Events, referenceRecord{
			Prefix: "198.51.100.0/24", Start: "2016-01-02T03:04:05Z", End: "2016-01-02T04:05:06Z",
			Providers: []string{"AS64500", "ixp:0"}, Communities: []string{"64500:666"}, Peers: i,
		})
	}
	r := &reference{url: "http://" + ln.Addr().String() + "/events?limit=20&mode=lpm&prefix=198.51.100.7", done: make(chan struct{})}
	r.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		_ = req.URL.Query().Get("prefix")
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(&answer) // the client sees a short body and fails the reading
	})}
	go func() {
		defer close(r.done)
		_ = r.srv.Serve(ln) // always ErrServerClosed, from close
	}()
	return r, nil
}

func (r *reference) close() {
	_ = r.srv.Close()
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.clients {
		c.hc.CloseIdleConnections()
	}
	r.clients = nil
}

func (r *reference) client() *referenceClient {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.clients); n > 0 {
		c := r.clients[n-1]
		r.clients = r.clients[:n-1]
		return c
	}
	return &referenceClient{hc: newClient()}
}

func (r *reference) release(c *referenceClient) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clients = append(r.clients, c)
}

// reading runs trips round trips, one after the other on one
// connection, and returns the CPU time this process spent on one: the
// time the harness's threads were on a CPU, not the time they waited
// for one. A reading shares its CPU with whatever the measured servers
// still do in the background (a collection cycle soaks up an idle
// CPU), and by the wall clock two readings taken back to back on
// query-fleet differed by up to 2.4×: that is the program's doing, to
// be measured and not divided away. What the neighbours on the host
// do — a busy sibling thread, a shared cache — makes the same
// instructions take longer on the CPU, and that is what a reading is
// for. A few unmeasured trips come first: after an exec the harness's
// own code and connection are cold, which is not the machine's speed.
func (r *reference) reading(ctx context.Context, trips int) (time.Duration, error) {
	return r.readingOn(ctx, 1, trips)
}

// readingOn is a reading taken on lanes connections at once: the
// reading for a program that keeps that many CPUs busy.
func (r *reference) readingOn(ctx context.Context, lanes, trips int) (time.Duration, error) {
	clients := make([]*referenceClient, lanes)
	for i := range clients {
		clients[i] = r.client()
		defer r.release(clients[i])
	}
	// all runs n trips on every lane and waits for them.
	all := func(n int) error {
		if lanes == 1 {
			return r.trips(ctx, clients[0], n)
		}
		errs := make(chan error, lanes)
		for _, c := range clients {
			go func() { errs <- r.trips(ctx, c, n) }()
		}
		var first error
		for range clients {
			if err := <-errs; err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	if err := all(referenceWarmTrips); err != nil {
		return 0, err
	}
	start := processCPU()
	if err := all(trips); err != nil {
		return 0, err
	}
	return (processCPU() - start) / time.Duration(lanes*trips), nil
}

// trips makes n round trips on c's connection and checks each answer.
func (r *reference) trips(ctx context.Context, c *referenceClient, n int) error {
	for i := 0; i < n; i++ {
		status, err := fetchInto(ctx, c.hc, r.url, &c.buf)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("reference request: status %d err %v", status, err)
		}
		var got referenceAnswer
		if err := json.Unmarshal(c.buf.Bytes(), &got); err != nil || len(got.Events) != got.Total {
			return fmt.Errorf("reference answer: %d events, err %v", len(got.Events), err)
		}
	}
	return nil
}

// processCPU is the CPU time of all this process's threads so far.
func processCPU() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// atReference converts a measured quantity that grows with time
// (a latency, CPU time per op) to reference speed, given the reading
// taken beside it.
func atReference(measured float64, reading time.Duration) float64 {
	return measured * float64(referenceNominal) / float64(reading)
}
