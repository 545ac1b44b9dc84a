package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"time"
)

// request is one HTTP op of a query workload.
type request struct {
	class string // op class within the workload's mix
	path  string // path and query, appended to the server's base URL
}

// sample is one completed request of the timed phase.
type sample struct {
	class string
	lat   time.Duration // request written → last body byte read
	bytes int
}

// loadSlice is a fixed number of consecutive requests of the timed
// phase, with the reference reading taken right after them.
type loadSlice struct {
	samples []sample
	wall    time.Duration // first request written → last byte of the last answer
	cpu     time.Duration // the servers' CPU time over the same span
	reading time.Duration // one reference round trip, then
}

// loadResult is what a closed-loop phase measured.
type loadResult struct {
	slices    []loadSlice
	attempted int
	failed    int
	digests   map[string]uint64 // path → stable digest of its body
	problems  []string
}

// loop is the shape of a closed-loop phase.
type loop struct {
	warm     time.Duration // driven the same way, not recorded
	timed    time.Duration // no slice starts after this much of the timed phase
	sliceOps int           // requests to a slice
}

// closedLoop drives the server from one client on one connection,
// sending the next request only when the previous answer has been read
// to the last byte: with the servers confined to the client's CPU
// there is nothing a second client could overlap with. Requests come
// from next(i), a pure function of the seed. Every answer must be a
// 200 and, for a path seen before, carry the same stable digest. cpu
// reads the servers' CPU clocks.
func closedLoop(ctx context.Context, base string, ref *reference, lp loop, cpu func() time.Duration, next func(i int) request) (*loadResult, error) {
	res := &loadResult{digests: map[string]uint64{}}
	hc := newClient()
	defer hc.CloseIdleConnections()
	var body bytes.Buffer
	i := 0
	// one sends request i and checks the answer.
	one := func() (sample, bool) {
		req := next(i)
		i++
		start := time.Now()
		status, err := fetchInto(ctx, hc, base+req.path, &body)
		lat := time.Since(start)
		ok := err == nil && status == http.StatusOK
		if ok {
			d := stableDigest(body.Bytes())
			if prev, seen := res.digests[req.path]; seen && prev != d {
				ok = false
				res.problems = append(res.problems, fmt.Sprintf("%s answered differently for the same request", req.path))
			}
			res.digests[req.path] = d
		} else if len(res.problems) < 5 {
			res.problems = append(res.problems, fmt.Sprintf("%s: status %d err %v", req.path, status, err))
		}
		return sample{req.class, lat, body.Len()}, ok
	}

	for begin := time.Now(); time.Since(begin) < lp.warm && ctx.Err() == nil; {
		one()
	}
	if _, err := ref.reading(ctx, referenceTrips); err != nil {
		return nil, err
	}
	for begin := time.Now(); time.Since(begin) < lp.timed && ctx.Err() == nil; {
		sl := loadSlice{samples: make([]sample, 0, lp.sliceOps)}
		failed := 0
		cpu0, start := cpu(), time.Now()
		for j := 0; j < lp.sliceOps; j++ {
			s, ok := one()
			if !ok {
				failed++
				continue
			}
			sl.samples = append(sl.samples, s)
		}
		sl.wall = time.Since(start)
		sl.cpu = cpu() - cpu0
		var err error
		if sl.reading, err = ref.reading(ctx, referenceTrips); err != nil {
			return nil, err
		}
		res.attempted += lp.sliceOps
		res.failed += failed
		if failed == 0 {
			// A slice with a failed op measured something else.
			res.slices = append(res.slices, sl)
		}
	}
	if len(res.slices) == 0 {
		return nil, fmt.Errorf("no slice of %d requests completed cleanly in %v (%d of %d requests failed: %v)",
			lp.sliceOps, lp.timed, res.failed, res.attempted, res.problems)
	}
	return res, ctx.Err()
}

// fetchInto GETs url and reads the whole body into buf (reset first).
func fetchInto(ctx context.Context, hc *http.Client, url string, buf *bytes.Buffer) (int, error) {
	buf.Reset()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(buf, resp.Body)
	return resp.StatusCode, err
}

var elapsedKey = []byte(`"elapsed_us": `)

// stableDigest hashes a response body, skipping the one field that is
// a timing and so differs between two correct answers.
func stableDigest(body []byte) uint64 {
	h := fnv.New64a()
	if i := bytes.Index(body, elapsedKey); i >= 0 {
		j := i + len(elapsedKey)
		for j < len(body) && body[j] >= '0' && body[j] <= '9' {
			j++
		}
		h.Write(body[:i])
		body = body[j:]
	}
	h.Write(body)
	return h.Sum64()
}

// ops is the number of requests in the recorded slices.
func (r *loadResult) ops() int {
	n := 0
	for _, sl := range r.slices {
		n += len(sl.samples)
	}
	return n
}

// latencies returns the recorded latencies (ms, as measured) of one
// op class, or of every class when class is empty.
func (r *loadResult) latencies(class string) []float64 {
	var out []float64
	for _, sl := range r.slices {
		for _, s := range sl.samples {
			if class == "" || s.class == class {
				out = append(out, ms(s.lat))
			}
		}
	}
	return out
}

// sliceP50s is each slice's median latency (ms) of one op class (every
// class when empty), at reference speed.
func (r *loadResult) sliceP50s(class string) []float64 { return r.slicePercentiles(class, 0.5) }

// slicePercentiles is each slice's p-quantile latency (ms) of one op
// class, at reference speed.
func (r *loadResult) slicePercentiles(class string, p float64) []float64 {
	var out, lats []float64
	for _, sl := range r.slices {
		lats = lats[:0]
		for _, s := range sl.samples {
			if class == "" || s.class == class {
				lats = append(lats, ms(s.lat))
			}
		}
		if len(lats) > 0 {
			out = append(out, atReference(percentile(lats, p), sl.reading))
		}
	}
	return out
}

// sliceRates is each slice's weight (requests, when weight is nil) per
// second at reference speed.
func (r *loadResult) sliceRates(weight func(sample) float64) []float64 {
	out := make([]float64, len(r.slices))
	for i, sl := range r.slices {
		w := float64(len(sl.samples))
		if weight != nil {
			w = 0
			for _, s := range sl.samples {
				w += weight(s)
			}
		}
		out[i] = w / atReference(sl.wall.Seconds(), sl.reading)
	}
	return out
}

// sliceCPUs is each slice's server CPU time per request (ms) at
// reference speed.
func (r *loadResult) sliceCPUs() []float64 {
	out := make([]float64, len(r.slices))
	for i, sl := range r.slices {
		out[i] = atReference(ms(sl.cpu)/float64(len(sl.samples)), sl.reading)
	}
	return out
}

// medianReading is the phase's median reading: how fast the box ran
// while it lasted.
func (r *loadResult) medianReading() time.Duration {
	readings := make([]float64, len(r.slices))
	for i, sl := range r.slices {
		readings[i] = float64(sl.reading)
	}
	return time.Duration(median(readings))
}

// totals sums the slices' wall and CPU time.
func (r *loadResult) totals() (wall, cpu time.Duration) {
	for _, sl := range r.slices {
		wall += sl.wall
		cpu += sl.cpu
	}
	return wall, cpu
}

func (r *loadResult) meanBytes(class string) float64 {
	n, total := 0, 0
	for _, sl := range r.slices {
		for _, s := range sl.samples {
			if class == "" || s.class == class {
				n++
				total += s.bytes
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// rawRows prints the phase as measured, beside the figures at
// reference speed: the median latency of class over all its requests,
// requests per second of wall time, and how slow the box ran.
func (r *loadResult) rawRows(out *outcome, class string) {
	wall, _ := r.totals()
	out.row("raw.op_ms", median(r.latencies(class)), "ms")
	out.row("raw.throughput_per_s", float64(r.ops())/wall.Seconds(), "1/s")
	out.row("reference.slowdown", float64(r.medianReading())/float64(referenceNominal), "ratio")
	out.row("reference.slices", float64(len(r.slices)), "count")
}
