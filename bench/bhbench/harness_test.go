package main

import (
	"io"
	"math"
	"net/netip"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	bh "bgpblackholing"
)

// None of these tests spawns a binary: they cover the arithmetic and
// parsing the measurements rest on.

func TestPercentile(t *testing.T) {
	vals := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.9, 46}, {0.125, 15},
	} {
		if got := percentile(vals, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing must be NaN, not a time")
	}
	if vals[0] != 50 {
		t.Error("percentile sorted its input in place")
	}
}

func TestSlicesAtReferenceSpeed(t *testing.T) {
	lat := func(ds ...time.Duration) []sample {
		out := make([]sample, len(ds))
		for i, d := range ds {
			out[i] = sample{class: "point", lat: d, bytes: 1000}
		}
		return out
	}
	// Three slices of two requests. The second ran while the box was
	// twice as slow: everything in it, the reading too, took double.
	r := &loadResult{slices: []loadSlice{
		{samples: lat(time.Millisecond, 3*time.Millisecond), wall: 4 * time.Millisecond, cpu: 2 * time.Millisecond, reading: referenceNominal},
		{samples: lat(2*time.Millisecond, 6*time.Millisecond), wall: 8 * time.Millisecond, cpu: 4 * time.Millisecond, reading: 2 * referenceNominal},
		{samples: lat(time.Millisecond, 5*time.Millisecond), wall: 6 * time.Millisecond, cpu: 2 * time.Millisecond, reading: referenceNominal},
	}}
	approx := func(name string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %v, want %v", name, got, want)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9*want[i] {
				t.Fatalf("%s: %v, want %v", name, got, want)
			}
		}
	}
	approx("slice p50s", r.sliceP50s("point"), []float64{2, 2, 3})
	approx("slice rates", r.sliceRates(nil), []float64{500, 500, 2000.0 / 6})
	approx("slice MB/s", r.sliceRates(func(s sample) float64 { return float64(s.bytes) / 1e6 }), []float64{0.5, 0.5, 2.0 / 6})
	approx("slice CPU per op", r.sliceCPUs(), []float64{1, 1, 1})
	if got := r.sliceP50s("window"); len(got) != 0 {
		t.Errorf("slices without a window op yielded window p50s %v", got)
	}
	if got := r.medianReading(); got != referenceNominal {
		t.Errorf("median reading %v, want %v", got, referenceNominal)
	}
	if got := median(r.latencies("")); got != 2.5 {
		t.Errorf("raw median latency %v ms, want 2.5", got)
	}
}

func TestLastCPU(t *testing.T) {
	var set cpuSet
	set[0] = 0b1011
	one, cpu := set.lastCPU()
	if cpu != 3 || one[0] != 0b1000 || one[1] != 0 {
		t.Errorf("last CPU of {0,1,3}: cpu %d set %b", cpu, one[0])
	}
	set[1] = 1 << 5
	if one, cpu = set.lastCPU(); cpu != 69 || one[0] != 0 || one[1] != 1<<5 {
		t.Errorf("last CPU of {0,1,3,69}: cpu %d", cpu)
	}
	if _, cpu = (cpuSet{}).lastCPU(); cpu != -1 {
		t.Errorf("last CPU of the empty set: %d", cpu)
	}
}

// fakeClock advances only when slept on, plus a fixed cost per Now
// call that stands in for the work between ops.
type fakeClock struct {
	now   time.Time
	slept time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.now = c.now.Add(d)
	c.slept += d
}

func TestPacerOnSchedule(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	p := newPacer(clk, start, 100) // every 10 ms
	for i := 0; i < 5; i++ {
		due, late := p.next()
		if want := start.Add(time.Duration(i) * 10 * time.Millisecond); !due.Equal(want) {
			t.Fatalf("op %d due %v, want %v", i, due, want)
		}
		if late != 0 {
			t.Fatalf("op %d released %v late on an idle clock", i, late)
		}
		if !clk.now.Equal(due) {
			t.Fatalf("op %d released at %v, due %v", i, clk.now, due)
		}
	}
	if clk.slept != 40*time.Millisecond {
		t.Errorf("slept %v for 5 ops at 100/s, want 40ms", clk.slept)
	}
}

func TestPacerCountsLatenessFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	p := newPacer(clk, start, 100)
	p.next()
	// The system under test stalls the generator for 35 ms: ops 1, 2
	// and 3 are overdue and go out back to back, without sleeping, each
	// still due on the original schedule.
	clk.now = clk.now.Add(35 * time.Millisecond)
	slept := clk.slept
	for i, wantLate := range []time.Duration{25 * time.Millisecond, 15 * time.Millisecond, 5 * time.Millisecond} {
		due, late := p.next()
		if want := start.Add(time.Duration(i+1) * 10 * time.Millisecond); !due.Equal(want) {
			t.Fatalf("overdue op %d due %v, want %v", i+1, due, want)
		}
		if late != wantLate {
			t.Fatalf("overdue op %d late %v, want %v", i+1, late, wantLate)
		}
		// Latency from due time = completion - due, so the stall is
		// charged to every op it delayed.
		if got := clk.now.Sub(due); got != wantLate {
			t.Fatalf("overdue op %d due-time latency %v, want %v", i+1, got, wantLate)
		}
	}
	if clk.slept != slept {
		t.Error("pacer slept while behind schedule")
	}
	// Caught up: the next op waits for its slot again.
	if _, late := p.next(); late != 0 {
		t.Errorf("op after catching up released %v late", late)
	}
}

func TestSSEReader(t *testing.T) {
	stream := ": connected\n\n" +
		"id: 1\nevent: alert\ndata: {\"id\":1}\n\n" +
		": heartbeat\n\n" +
		"id: 2\r\nevent: alert\r\ndata: first\r\ndata: second\r\n\r\n" +
		"event: other\ndata:no-space\n\n" +
		"id: 9\nevent: alert\ndata: cut off"
	sr := newSSEReader(strings.NewReader(stream))
	want := []sseFrame{
		{ID: 1, Event: "alert", Data: `{"id":1}`},
		{ID: 2, Event: "alert", Data: "first\nsecond"},
		{ID: 0, Event: "other", Data: "no-space"},
	}
	for i, w := range want {
		got, err := sr.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got != w {
			t.Errorf("frame %d = %+v, want %+v", i, got, w)
		}
	}
	if _, err := sr.next(); err != io.EOF {
		t.Errorf("a frame cut off by the end of the stream gave %v, want io.EOF", err)
	}
}

func TestSentLogCause(t *testing.T) {
	t0 := time.Unix(2000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	a, b := netip.MustParsePrefix("10.0.0.1/32"), netip.MustParsePrefix("10.0.0.2/32")
	log := sentLog{}
	// Announce a, announce b, withdraw a (paced: due earlier than sent),
	// re-announce a, withdraw both in one update.
	log.add(&bh.Update{Announced: []netip.Prefix{a}}, sentUpdate{due: at(0), sent: at(1)})
	log.add(&bh.Update{Announced: []netip.Prefix{b}}, sentUpdate{due: at(10), sent: at(10)})
	log.add(&bh.Update{Withdrawn: []netip.Prefix{a}}, sentUpdate{due: at(20), sent: at(26)})
	log.add(&bh.Update{Announced: []netip.Prefix{a}}, sentUpdate{due: at(30), sent: at(30)})
	log.add(&bh.Update{Withdrawn: []netip.Prefix{a, b}}, sentUpdate{due: at(40), sent: at(40)})

	// The alert for a's first event carries the withdrawal's receipt
	// stamp (27): its cause is the update sent at 26, due at 20.
	cause, ok := log.cause(a, at(27))
	if !ok || !cause.due.Equal(at(20)) {
		t.Errorf("cause of a's close at 27 = %+v %v, want the update due at 20", cause, ok)
	}
	// An end stamp equal to a send time still matches that update.
	if cause, _ := log.cause(a, at(26)); !cause.due.Equal(at(20)) {
		t.Errorf("cause at the send instant = %+v", cause)
	}
	// b was named by two updates; at 41 the latest one is the joint withdrawal.
	if cause, _ := log.cause(b, at(41)); !cause.due.Equal(at(40)) {
		t.Errorf("cause of b's close = %+v, want the joint withdrawal", cause)
	}
	// Before anything naming the prefix was sent there is no cause: the
	// oracle reports such an alert as naming an unsent prefix.
	if _, ok := log.cause(b, at(5)); ok {
		t.Error("found a cause for b before b was ever sent")
	}
	if _, ok := log.cause(netip.MustParsePrefix("192.0.2.0/24"), at(100)); ok {
		t.Error("found a cause for a prefix never sent")
	}
}

func TestSeededGeneratorsRepeat(t *testing.T) {
	if a, b := zipfKeys(7, 1.1, 1000, 500), zipfKeys(7, 1.1, 1000, 500); !reflect.DeepEqual(a, b) {
		t.Error("zipfKeys differs between two calls with one seed")
	}
	if a, b := zipfKeys(7, 1.1, 1000, 500), zipfKeys(8, 1.1, 1000, 500); reflect.DeepEqual(a, b) {
		t.Error("zipfKeys ignores its seed")
	}
	keys := zipfKeys(7, 1.1, 1000, 20000)
	hot := 0
	for _, k := range keys {
		if k < 0 || k >= 1000 {
			t.Fatalf("zipf key %d outside [0,1000)", k)
		}
		if k < 10 {
			hot++
		}
	}
	if share := float64(hot) / float64(len(keys)); share < 0.3 {
		t.Errorf("the ten hottest of 1000 keys drew %.0f%% of requests; Zipf(1.1) should reuse keys far more", 100*share)
	}

	draw := func(seed int64) []string {
		m := newMix(seed, []string{"a", "b", "c"}, []float64{70, 20, 10})
		out := make([]string, 5000)
		for i := range out {
			out[i] = m.next()
		}
		return out
	}
	first := draw(3)
	if !reflect.DeepEqual(first, draw(3)) {
		t.Error("mix differs between two streams with one seed")
	}
	counts := map[string]int{}
	for _, c := range first {
		counts[c]++
	}
	for name, want := range map[string]float64{"a": 0.7, "b": 0.2, "c": 0.1} {
		if got := float64(counts[name]) / float64(len(first)); math.Abs(got-want) > 0.03 {
			t.Errorf("class %s drew %.3f of ops, want about %.1f", name, got, want)
		}
	}
}

func TestRequestSequencesRepeat(t *testing.T) {
	events := []*bh.Event{
		{Prefix: netip.MustParsePrefix("10.1.2.3/32")},
		{Prefix: netip.MustParsePrefix("10.1.2.0/24")},
		{Prefix: netip.MustParsePrefix("172.16.5.9/32")},
	}
	addrs := eventAddrs(events)
	a := pointRequests(11, events, addrs, 300, true)
	if !reflect.DeepEqual(a, pointRequests(11, events, addrs, 300, true)) {
		t.Error("pointRequests differs between two calls with one seed")
	}
	if reflect.DeepEqual(a, pointRequests(12, events, addrs, 300, true)) {
		t.Error("pointRequests ignores its seed")
	}
	for _, r := range a {
		if r.class == "miss" && !strings.Contains(r.path, "prefix=240.") {
			t.Errorf("miss request %s is not in class E space", r.path)
		}
	}
	// The hot keys are the fixture's choice, not the traffic seed's.
	if !reflect.DeepEqual(popularityOrder(42, addrs), popularityOrder(42, addrs)) {
		t.Error("popularityOrder differs between two calls with one fixture seed")
	}
}

func TestFleetCyclesHoldTheMix(t *testing.T) {
	day := 24 * time.Hour
	t0 := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	c := &corpus{events: []*bh.Event{
		{Prefix: netip.MustParsePrefix("10.1.2.3/32"), Start: t0, End: t0.Add(day)},
		{Prefix: netip.MustParsePrefix("172.16.5.9/32"), Start: t0.Add(300 * day), End: t0.Add(301 * day)},
	}}
	addrs := eventAddrs(c.events)
	reqs := fleetRequests(5, c, addrs, 7)
	if !reflect.DeepEqual(reqs, fleetRequests(5, c, addrs, 7)) {
		t.Error("fleetRequests differs between two calls with one seed")
	}
	if reflect.DeepEqual(reqs, fleetRequests(6, c, addrs, 7)) {
		t.Error("fleetRequests ignores its seed")
	}
	if len(reqs) != 7*fleetCycleOps {
		t.Fatalf("%d requests for 7 cycles of %d", len(reqs), fleetCycleOps)
	}
	stratum := (301*day - fleetWindow) / 8
	for n := 0; n < 7; n++ {
		counts := map[string]int{}
		strata := map[int]bool{}
		for _, r := range reqs[n*fleetCycleOps : (n+1)*fleetCycleOps] {
			counts[r.class]++
			if r.class != "window" {
				continue
			}
			u, err := url.Parse(r.path)
			if err != nil {
				t.Fatal(err)
			}
			from, err := time.Parse(time.RFC3339, u.Query().Get("from"))
			if err != nil {
				t.Fatal(err)
			}
			strata[int(from.Sub(t0)/stratum)] = true
		}
		for _, part := range fleetCycle {
			if counts[part.class] != part.count {
				t.Errorf("cycle %d has %d %s requests, want %d", n, counts[part.class], part.class, part.count)
			}
		}
		if len(strata) != 8 {
			t.Errorf("cycle %d's windows start in %d of the 8 strata", n, len(strata))
		}
	}
}

func TestPointTotalReference(t *testing.T) {
	events := []*bh.Event{
		{Prefix: netip.MustParsePrefix("10.1.2.3/32")},
		{Prefix: netip.MustParsePrefix("10.1.2.3/32")},
		{Prefix: netip.MustParsePrefix("10.1.2.0/24")},
		{Prefix: netip.MustParsePrefix("10.1.0.0/16")},
	}
	for _, c := range []struct {
		prefix, mode string
		want         int
	}{
		{"10.1.2.3", "lpm", 2},      // the /32 wins over the /24 and /16
		{"10.1.2.9", "lpm", 1},      // the /24
		{"10.1.9.9", "lpm", 1},      // the /16
		{"240.1.2.3", "lpm", 0},     // nothing covers class E
		{"10.1.2.3/32", "exact", 2}, // both events of that prefix
		{"10.1.2.0/24", "exact", 1},
		{"10.1.2.0/25", "exact", 0},
	} {
		got, err := pointTotal(events, c.prefix, c.mode)
		if err != nil || got != c.want {
			t.Errorf("pointTotal(%s, %s) = %d, %v; want %d", c.prefix, c.mode, got, err, c.want)
		}
	}
}

func TestStableDigestIgnoresElapsed(t *testing.T) {
	a := []byte("{\n  \"elapsed_us\": 7,\n  \"events\": [],\n  \"total\": 0\n}\n")
	b := []byte("{\n  \"elapsed_us\": 12345,\n  \"events\": [],\n  \"total\": 0\n}\n")
	c := []byte("{\n  \"elapsed_us\": 7,\n  \"events\": [],\n  \"total\": 1\n}\n")
	if stableDigest(a) != stableDigest(b) {
		t.Error("two answers differing only in elapsed_us digest differently")
	}
	if stableDigest(a) == stableDigest(c) {
		t.Error("answers with different totals digest alike")
	}
	nd := []byte("{\"prefix\":\"10.0.0.1/32\"}\n")
	if stableDigest(nd) == stableDigest(append(nd, nd...)) {
		t.Error("NDJSON bodies of different length digest alike")
	}
}

func TestSameAnswer(t *testing.T) {
	single := []byte(`{"elapsed_us": 7, "events": [], "returned": 0, "scanned": 3, "total": 0}`)
	routed := []byte(`{"elapsed_us": 900, "events": null, "returned": 0, "scanned": 0, "total": 0}`)
	if !sameAnswer("point", single, routed) {
		t.Error("an empty match as [] and as null must count as the same answer")
	}
	one := []byte(`{"events": [{"prefix":"10.0.0.1/32"}], "returned": 1, "total": 1}`)
	other := []byte(`{"events": [{"prefix":"10.0.0.2/32"}], "returned": 1, "total": 1}`)
	if sameAnswer("point", one, other) {
		t.Error("different events counted as the same answer")
	}
	if !sameAnswer("window", []byte("a\nb\n"), []byte("a\nb\n")) || sameAnswer("window", []byte("a\nb\n"), []byte("b\na\n")) {
		t.Error("NDJSON must compare byte for byte")
	}
	l1 := []byte(`{"total": 5, "legitimacy": {"legitimate": 5}, "elapsed_us": 10}`)
	l2 := []byte(`{"total": 5, "legitimacy": {"legitimate": 5}, "elapsed_us": 99}`)
	l3 := []byte(`{"total": 4, "legitimacy": {"legitimate": 4}, "elapsed_us": 10}`)
	if !sameAnswer("legitimacy", l1, l2) || sameAnswer("legitimacy", l1, l3) {
		t.Error("legitimacy summaries must compare on everything but elapsed_us")
	}
}

func TestSpanSelfTime(t *testing.T) {
	// chain [0,100) ⊃ a [10,60) ⊃ (a1 [20,30), a2 [30,50)); chain ⊃ b [60,90).
	// A second "a" span [200,210) elsewhere adds to the same layer.
	spans := []span{
		{ID: 0, Parent: -1, Name: "chain", StartNS: 0, EndNS: 100, Ops: 1},
		{ID: 1, Parent: 0, Name: "a", StartNS: 10, EndNS: 60, Ops: 5},
		{ID: 2, Parent: 1, Name: "a1", StartNS: 20, EndNS: 30, Ops: 2},
		{ID: 3, Parent: 1, Name: "a2", StartNS: 30, EndNS: 50, Ops: 2},
		{ID: 4, Parent: 0, Name: "b", StartNS: 60, EndNS: 90, Ops: 3},
		{ID: 5, Parent: -1, Name: "a", StartNS: 200, EndNS: 210, Ops: 1},
	}
	got := selfTimes(spans)
	want := map[string]layerTotal{
		"chain": {Self: 20, Ops: 1}, // 100 - (50 + 30)
		"a":     {Self: 30, Ops: 6}, // (50 - 10 - 20) + 10
		"a1":    {Self: 10, Ops: 2},
		"a2":    {Self: 20, Ops: 2},
		"b":     {Self: 30, Ops: 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	// Self times of a chain's spans add up to its wall time.
	var sum time.Duration
	for _, s := range spans[:5] {
		sum += got[s.Name].Self
	}
	if sum-10 != 100 { // minus the stray second "a"
		t.Errorf("self times under the chain sum to %v, want its wall of 100", sum-10)
	}
}

func TestTracerNestingAndBaseMode(t *testing.T) {
	run := func(tr *tracer) {
		tr.chain = "c"
		tr.do("outer", 1, func() {
			tr.do("inner", 0, func() { time.Sleep(time.Millisecond) })
			tr.setOps(7)
			tr.do("sibling", 2, func() {})
		})
	}
	tr := newTracer(true)
	run(tr)
	if len(tr.spans) != 3 {
		t.Fatalf("traced pass recorded %d spans, want 3", len(tr.spans))
	}
	if tr.spans[1].Parent != 0 || tr.spans[2].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Errorf("parents %d %d %d, want -1 0 0", tr.spans[0].Parent, tr.spans[1].Parent, tr.spans[2].Parent)
	}
	if tr.spans[1].Ops != 7 {
		t.Errorf("setOps left %d ops on the inner span, want 7", tr.spans[1].Ops)
	}
	if d := tr.spans[1].EndNS - tr.spans[1].StartNS; d < int64(time.Millisecond) {
		t.Errorf("inner span lasted %dns around a 1ms sleep", d)
	}
	base := newTracer(false)
	run(base)
	if len(base.spans) != 1 || base.spans[0].Name != "outer" {
		t.Fatalf("base pass recorded %v, want the outer span only", base.spans)
	}
	if base.spans[0].Ops != 1 {
		t.Errorf("an inner setOps changed the outer span's ops to %d in the base pass", base.spans[0].Ops)
	}

	all := appendSpans(nil, tr.spans)
	all = appendSpans(all, tr.spans)
	for i, s := range all {
		if s.ID != i {
			t.Fatalf("span %d has id %d after merging", i, s.ID)
		}
	}
	if all[4].Parent != 3 || all[3].Parent != -1 {
		t.Errorf("merged parents %d and %d, want 3 and -1", all[4].Parent, all[3].Parent)
	}
}

func TestParseSchedstat(t *testing.T) {
	if d, ok := parseSchedstat("51632123 1163592 27\n"); !ok || d != 51632123*time.Nanosecond {
		t.Errorf("parseSchedstat = %v %v", d, ok)
	}
	if _, ok := parseSchedstat("garbage"); ok {
		t.Error("parseSchedstat accepted a line without three fields")
	}
}

func TestParseProcStatCPU(t *testing.T) {
	// comm contains spaces and a parenthesis; utime=150 stime=50 ticks.
	line := "1234 (bh serve) x) S 1 1234 1234 0 -1 4194560 500 0 0 0 150 50 0 0 20 0 8 0 12345 1000000 300 18446744073709551615"
	got, err := parseProcStatCPU(line)
	if err != nil || got != 2*time.Second {
		t.Errorf("cpu = %v, %v; want 2s", got, err)
	}
	if _, err := parseProcStatCPU("garbage"); err == nil {
		t.Error("a malformed stat line parsed")
	}
}
