package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	bh "bgpblackholing"
)

// The operator's path, update in → alert out: a flash-crowd feed over
// one BGP session into bhserve (bgpd wire, stream.Live, the engine,
// store append, enrichment, the alert hub, SSE). Phase A is open-loop
// at a rate the server sustains with room to spare, so latency is the
// blocking chain and not a queue; phase B sends the rest unpaced, so
// the drain rate is whatever five goroutines get out of two cores. A
// paced reader queries the same store the sinks append to.
const (
	liveRateA        = 10000 // updates/s offered in phase A
	livePhaseAShare  = 0.3   // of -seconds
	liveBurstPerSec  = 60000 // phase B updates per second of -seconds
	liveReadRate     = 200   // reader requests/s
	liveReadAfter    = 250 * time.Millisecond
	liveQuiesceLimit = 60 * time.Second
	liveLocalASN     = 64999
	liveSubQueue     = 1 << 16
	liveBatchBytes   = 64 << 10
	liveWindow       = 50000 // phase B updates in flight
	livePoll         = 2 * time.Millisecond
)

// sentUpdate is the generator's record of one update on the wire.
type sentUpdate struct {
	due  time.Time // when the schedule released it (phase B: when it was written)
	sent time.Time // just before the write
}

// sentLog maps each prefix to the updates that named it, in send order.
type sentLog map[netip.Prefix][]sentUpdate

func (l sentLog) add(u *bh.Update, s sentUpdate) {
	for _, p := range u.Announced {
		l[p] = append(l[p], s)
	}
	for _, p := range u.Withdrawn {
		l[p] = append(l[p], s)
	}
}

// cause returns the latest update naming prefix that was sent at or
// before notAfter: the update whose receipt closed the event.
func (l sentLog) cause(prefix netip.Prefix, notAfter time.Time) (sentUpdate, bool) {
	sent := l[prefix]
	i := sort.Search(len(sent), func(i int) bool { return sent[i].sent.After(notAfter) })
	if i == 0 {
		return sentUpdate{}, false
	}
	return sent[i-1], true
}

// alertArrival is one alert as the SSE observer saw it. The payload
// is decoded when somebody asks, not on arrival: during the burst the
// observer shares two cores with the server it is observing.
type alertArrival struct {
	at     time.Time
	data   string       // the JSON payload
	prefix netip.Prefix // decoded from data
	end    time.Time    // decoded: the record's end stamp, the server's receipt clock
}

func (a *alertArrival) decode() error {
	if a.prefix.IsValid() {
		return nil
	}
	var rec struct {
		Event struct {
			Prefix netip.Prefix `json:"prefix"`
			End    time.Time    `json:"end"`
		} `json:"event"`
	}
	if err := json.Unmarshal([]byte(a.data), &rec); err != nil {
		return fmt.Errorf("alert payload: %w", err)
	}
	a.prefix, a.end = rec.Event.Prefix, rec.Event.End
	return nil
}

// alertFeed is the passive /watch observer.
type alertFeed struct {
	mu       sync.Mutex
	arrivals []alertArrival
	err      error
	done     chan struct{}
}

// watch reads the SSE stream until it ends, stamping each alert on
// arrival.
func (f *alertFeed) watch(resp *http.Response) {
	defer close(f.done)
	defer resp.Body.Close()
	sr := newSSEReader(resp.Body)
	for {
		frame, err := sr.next()
		if err != nil {
			f.mu.Lock()
			f.err = err
			f.mu.Unlock()
			return
		}
		at := time.Now()
		if frame.Event != "alert" {
			continue
		}
		f.mu.Lock()
		f.arrivals = append(f.arrivals, alertArrival{at: at, data: frame.Data})
		f.mu.Unlock()
	}
}

func (f *alertFeed) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.arrivals)
}

// pickAlertedBefore returns one of the prefixes alerted at or before
// t, chosen by r, or false while there is none.
func (f *alertFeed) pickAlertedBefore(t time.Time, r *rand.Rand) (netip.Prefix, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := sort.Search(len(f.arrivals), func(i int) bool { return f.arrivals[i].at.After(t) })
	if n == 0 {
		return netip.Prefix{}, false
	}
	a := &f.arrivals[r.Intn(n)]
	if err := a.decode(); err != nil {
		f.err = err
		return netip.Prefix{}, false
	}
	return a.prefix, true
}

// liveRig is a started server with the session and observer attached.
// The session is established through the library; updates are then
// written to its connection already marshalled.
type liveRig struct {
	srv  *server
	conn net.Conn
	sess *bh.BGPSession
	feed *alertFeed
	sse  *http.Response
}

func (r *liveRig) stop() {
	if r.sess != nil {
		_ = r.sess.Close()
	}
	if r.sse != nil {
		_ = r.sse.Body.Close()
		<-r.feed.done
	}
	if r.srv != nil {
		r.srv.stop()
	}
}

func startLiveRig(ctx context.Context, e *env, dir string) (*liveRig, error) {
	rules := filepath.Join(dir, "rules.txt")
	if err := os.WriteFile(rules, []byte("name=every\n"), 0o644); err != nil {
		return nil, err
	}
	rig := &liveRig{feed: &alertFeed{done: make(chan struct{})}}
	var err error
	rig.srv, err = e.startServe(ctx, "-scale", strconv.FormatFloat(liveScale, 'g', -1, 64),
		"-seed", strconv.FormatInt(e.fixture, 10), "-workload", "flash-crowd",
		"-store", filepath.Join(dir, "store"), "-rules-file", rules,
		// The observer shares two cores with the server; a watcher queue
		// deeper than the run's alert count means a descheduled observer
		// delays alerts instead of losing them.
		"-sub-queue", strconv.Itoa(liveSubQueue))
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rig.srv.httpURL+"/watch", nil)
	if err != nil {
		return rig, err
	}
	req.Header.Set("Accept", "text/event-stream")
	rig.sse, err = http.DefaultClient.Do(req)
	if err != nil {
		return rig, err
	}
	if rig.sse.StatusCode != http.StatusOK {
		return rig, fmt.Errorf("GET /watch: %s", rig.sse.Status)
	}
	go rig.feed.watch(rig.sse)
	var d net.Dialer
	if rig.conn, err = d.DialContext(ctx, "tcp", rig.srv.bgpAddr); err != nil {
		return rig, err
	}
	rig.sess, err = bh.EstablishBGP(rig.conn, bh.BGPConfig{
		ASN: liveLocalASN, BGPID: netip.MustParseAddr("10.0.0.9"), HoldTime: 90 * time.Second})
	if err != nil {
		rig.conn.Close()
	}
	return rig, err
}

// readSample is one paced read.
type readSample struct {
	lat  time.Duration // from the due time
	miss bool          // the alerted prefix was not in the store
}

// pacedReader asks the store for prefixes alerted a while ago (which
// ones is the seed's choice), on an open-loop schedule, until stop
// closes.
func pacedReader(ctx context.Context, base string, feed *alertFeed, seed int64, start time.Time, stop <-chan struct{}) (samples []readSample, failed int) {
	hc := newClient()
	defer hc.CloseIdleConnections()
	pc := newPacer(wallClock{}, start, liveReadRate)
	r := rand.New(rand.NewSource(seed))
	for {
		select {
		case <-stop:
			return samples, failed
		default:
		}
		due, _ := pc.next()
		prefix, ok := feed.pickAlertedBefore(due.Add(-liveReadAfter), r)
		if !ok {
			continue // nothing old enough to ask about yet
		}
		status, body, err := httpGet(ctx, hc, base+pointPath(prefix.Addr().String(), "lpm"))
		lat := time.Since(due)
		if err != nil || status != http.StatusOK {
			failed++
			continue
		}
		var got struct {
			Total int `json:"total"`
		}
		if json.Unmarshal(body, &got) != nil {
			failed++
			continue
		}
		samples = append(samples, readSample{lat, got.Total == 0})
	}
}

func runLive(ctx context.Context, e *env) (*outcome, error) {
	out := newOutcome()
	var (
		feed []feedUpdate
		rig  *liveRig
	)
	setupS, teardown, err := e.repeatSetup(ctx, "live", func(ctx context.Context, dir string) (func(), error) {
		var err error
		if feed, err = buildFeed(ctx, e.fixture); err != nil {
			return nil, err
		}
		rig, err = startLiveRig(ctx, e, dir)
		if err != nil {
			if rig != nil {
				rig.stop()
			}
			return nil, err
		}
		return rig.stop, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()
	out.e2e["setup_s"] = setupS

	nA := int(liveRateA * livePhaseAShare * e.seconds)
	nB := int(liveBurstPerSec * e.seconds)
	if len(feed) < 2*nA {
		return nil, fmt.Errorf("feed has %d updates, too few after %d paced ones", len(feed), nA)
	}
	// Phase B cycles over the rest of the feed until it has sent its
	// share: a replayed feed is still a feed, prefixes re-announce and
	// events open and close again.
	rest := feed[nA:]
	feed = feed[:nA:nA]
	for len(feed) < nA+nB {
		feed = append(feed, rest[:min(len(rest), nA+nB-len(feed))]...)
	}
	stamps := make([]sentUpdate, len(feed))
	meter := newCPUMeter(rig.srv)
	cpuBefore := meter.total()

	// Phase A: open loop. The reader runs beside it.
	startA := time.Now()
	stopReader := make(chan struct{})
	var (
		reads      []readSample
		readFailed int
		readerDone = make(chan struct{})
	)
	go func() {
		defer close(readerDone)
		reads, readFailed = pacedReader(ctx, rig.srv.httpURL, rig.feed, e.seed, startA, stopReader)
	}()
	pc := newPacer(wallClock{}, startA, liveRateA)
	var late []float64
	for i, u := range feed[:nA] {
		due, l := pc.next()
		late = append(late, ms(l))
		stamps[i] = sentUpdate{due: due, sent: time.Now()}
		if _, err := rig.conn.Write(u.wire); err != nil {
			return nil, fmt.Errorf("send update: %w\n%s", err, failureLog(rig.srv))
		}
	}
	endA := time.Now()
	close(stopReader)
	<-readerDone

	// Phase B: the rest, unpaced, many updates to a write so that the
	// generator is never what limits the rate — but at most a window
	// in flight: bhserve reads a session as fast as it arrives into an
	// unbounded buffer, and a backlog of half a million updates makes
	// the drain rate a measurement of the garbage collector's luck.
	startB := time.Now()
	batch := make([]byte, 0, liveBatchBytes)
	var waveRates []float64
	expect := time.Duration(0) // how long the last window took
	for i := nA; i < len(feed); {
		waveStart, waveFirst := time.Now(), i
		for wave := min(i+liveWindow, len(feed)); i < wave; {
			batch = batch[:0]
			first := i
			for i < wave && len(batch)+len(feed[i].wire) <= cap(batch) {
				batch = append(batch, feed[i].wire...)
				i++
			}
			now := time.Now()
			if _, err := rig.conn.Write(batch); err != nil {
				return nil, fmt.Errorf("send updates: %w\n%s", err, failureLog(rig.srv))
			}
			for j := first; j < i; j++ {
				stamps[j] = sentUpdate{due: now, sent: now}
			}
		}
		// Leave the server alone for most of the window, then poll.
		time.Sleep(expect * 3 / 4)
		for deadline := time.Now().Add(liveQuiesceLimit); ; {
			stats, err := fetchStats(ctx, rig.srv.httpURL)
			if err != nil {
				return nil, err
			}
			if eng := stats.Detector.Engine; int(eng.UpdatesProcessed+eng.UpdatesCleaned) >= i {
				expect = time.Since(waveStart)
				waveRates = append(waveRates, float64(i-waveFirst)/expect.Seconds())
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("engine stuck before update %d\n%s", i, failureLog(rig.srv))
			}
			time.Sleep(livePoll)
		}
	}

	// Quiescence: the engine has consumed every update, the observer
	// has every alert the hub fired, the store every event — and a
	// second look a moment later sees the same counts, since the last
	// update's own alert trails the counter that says it was consumed.
	var stats *serverStats
	var settled [3]int
	deadline := time.Now().Add(liveQuiesceLimit)
	for {
		if stats, err = fetchStats(ctx, rig.srv.httpURL); err != nil {
			return nil, err
		}
		eng, hub := stats.Detector.Engine, stats.Detector.Alerts
		now := [3]int{rig.feed.count(), int(hub.Alerts), stats.Events}
		// A dropped alert never arrives: count it as accounted for here
		// and let the oracle below fail the run for it.
		if int(eng.UpdatesProcessed+eng.UpdatesCleaned) >= len(feed) &&
			now[0]+int(hub.WatcherDrops) >= now[1] && now[2] >= now[1] && now == settled {
			break
		}
		settled = now
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("no quiescence after %v: engine consumed %d+%d of %d updates, %d alerts fired, %d seen, %d events stored\n%s",
				liveQuiesceLimit, eng.UpdatesProcessed, eng.UpdatesCleaned, len(feed),
				stats.Detector.Alerts.Alerts, rig.feed.count(), stats.Events, failureLog(rig.srv))
		}
		time.Sleep(10 * time.Millisecond)
	}
	cpu, busy := meter.total()-cpuBefore, time.Since(startA)
	rig.stop()
	if err := rig.feed.err; err != nil && rig.feed.count() == 0 {
		return nil, fmt.Errorf("watch stream: %w", err)
	}

	// Oracle: alerts received = events stored = alerts fired, nothing
	// dropped at the watcher, every alerted prefix was sent.
	arrivals := rig.feed.arrivals
	fired := int(stats.Detector.Alerts.Alerts)
	if len(arrivals) != fired || stats.Events != fired {
		out.problemf("alerts received %d, hub fired %d, store holds %d events", len(arrivals), fired, stats.Events)
	}
	if drops := stats.Detector.Alerts.WatcherDrops; drops != 0 {
		out.problemf("%d alerts dropped at the watcher", drops)
	}
	if fired == 0 {
		out.problemf("no alert fired")
	}
	sent := sentLog{}
	for i, u := range feed {
		sent.add(u.update, stamps[i])
	}
	var latA, afterReceipt []float64
	var lastB time.Time
	unsent, payload := 0, 0
	for i := range arrivals {
		a := &arrivals[i]
		if err := a.decode(); err != nil {
			return nil, err
		}
		payload += len(a.data)
		cause, ok := sent.cause(a.prefix, a.end)
		if !ok {
			unsent++
			continue
		}
		switch {
		case !cause.sent.After(endA):
			latA = append(latA, ms(a.at.Sub(cause.due)))
			afterReceipt = append(afterReceipt, ms(a.at.Sub(a.end)))
		case a.at.After(lastB):
			lastB = a.at
		}
	}
	if unsent > 0 {
		out.problemf("%d alerts name a prefix no update sent before their end stamp had named", unsent)
	}
	if len(latA) == 0 || lastB.IsZero() {
		return nil, fmt.Errorf("phases produced no alerts (A: %d, B: %v)", len(latA), !lastB.IsZero())
	}
	misses := 0
	var readLat []float64
	for _, r := range reads {
		readLat = append(readLat, ms(r.lat))
		if r.miss {
			misses++
		}
	}
	out.attempted = fired + len(reads) + readFailed
	out.failed = unsent + misses + readFailed
	if misses > 0 {
		out.problemf("%d of %d reads missed an event alerted %v earlier", misses, len(reads), liveReadAfter)
	}
	if readFailed > 0 {
		out.problemf("%d reads failed", readFailed)
	}

	// The burst rate is the upper-quartile window's. A collection
	// cycle or a busy neighbour only ever slows a window down, so the
	// faster windows say what the server sustains undisturbed; sized on
	// six runs of eighteen windows, the upper quartile stayed within
	// 226–240 k/s where the median ranged 188–220 k/s.
	burst := percentile(waveRates, 0.75)
	out.e2e["op_ms"] = percentile(latA, 0.5)
	out.e2e["throughput_per_s"] = burst
	out.e2e["cpu_ms_per_op"] = ms(cpu) / float64(len(feed))
	out.e2e["peak_rss_mb"] = rig.srv.usage().maxRSSMB
	out.observed(latA, float64(payload)/float64(len(arrivals)), cpu, busy, fired)
	out.layer["e2e.ops"] = float64(fired) // both phases' alerts; the latencies are phase A's

	out.row("live_alert_p50_ms", percentile(latA, 0.5), "ms")
	out.row("live_alert_p90_ms", percentile(latA, 0.9), "ms")
	out.row("live_burst_updates_per_s", burst, "1/s")
	out.row("live_read_p50_us", 1000*percentile(readLat, 0.5), "us")
	out.row("live.alert_p99_ms", percentile(latA, 0.99), "ms")
	out.row("live.alert_after_receipt_p50_ms", percentile(afterReceipt, 0.5), "ms")
	out.row("live.generator_late_p99_ms", percentile(late, 0.99), "ms")
	out.row("live.burst_median_window_per_s", median(waveRates), "1/s")
	out.row("live.burst_whole_updates_per_s", float64(nB)/lastB.Sub(startB).Seconds(), "1/s")
	out.row("live.burst_windows", float64(len(waveRates)), "count")
	out.row("live.phase_a_rate_per_s", float64(nA)/endA.Sub(startA).Seconds(), "1/s")
	out.row("live.phase_a_alerts", float64(len(latA)), "count")
	out.row("live.server_cpu_us_per_update", 1000*ms(cpu)/float64(len(feed)), "us")
	out.row("live.alerts_total", float64(fired), "count")
	out.row("live.updates_sent", float64(len(feed)), "count")
	out.row("live.watch_drops", float64(stats.Detector.Alerts.WatcherDrops), "count")
	out.row("live.reads", float64(len(reads)), "count")
	out.row("live.read_miss_ratio", float64(misses)/float64(max(len(reads), 1)), "ratio")
	return out, nil
}
