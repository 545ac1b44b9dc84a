package bgpblackholing

// Tests for the streaming detection API: Run over a ReplaySource must
// be byte-identical across worker counts, cancellation must be prompt and
// leak-free, and closed events must reach subscribers incrementally.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"bgpblackholing/internal/faultfs"
)

// archiveGlob lists a directory's update archives (not table dumps).
func archiveGlob(dir string) ([]struct{ path, name string }, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.mrt"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	var out []struct{ path, name string }
	for _, m := range matches {
		if strings.HasSuffix(m, ".dump.mrt") {
			continue
		}
		out = append(out, struct{ path, name string }{m, strings.TrimSuffix(filepath.Base(m), ".mrt")})
	}
	return out, nil
}

// TestRunReplayMatchesRunWindow is the replay contract: Run over a
// ReplaySource produces byte-identical Events and InferStats, and the
// same window, for every worker count.
func TestRunReplayMatchesRunWindow(t *testing.T) {
	const fromDay, toDay = 820, 850
	var want string
	var first *RunResult
	for i, workers := range []int{1, 2, 8} {
		opts := SmallOptions()
		opts.Workers = workers
		p, err := NewPipeline(opts)
		if err != nil {
			t.Fatal(err)
		}
		res := replay(t, p, fromDay, toDay)
		if i == 0 {
			first, want = res, canonicalEvents(res)
			if len(res.Events) == 0 {
				t.Fatal("no events")
			}
		}
		if got := canonicalEvents(res); got != want {
			t.Fatalf("workers=%d: Run checksum %s, want %s", workers, got, want)
		}
		if res.WindowStart != first.WindowStart || res.WindowEnd != first.WindowEnd {
			t.Fatalf("window = [%v,%v), want [%v,%v)", res.WindowStart, res.WindowEnd, first.WindowStart, first.WindowEnd)
		}
		if res.Metrics.EventsClosed != uint64(len(res.Events)) {
			t.Fatalf("metrics.EventsClosed=%d, events=%d", res.Metrics.EventsClosed, len(res.Events))
		}
	}
}

// TestRunCancellation checks cancellation hygiene: a Run aborted
// mid-window returns promptly with ctx.Err(), reports the partial
// Metrics accumulated so far, and leaks no materialization workers.
func TestRunCancellation(t *testing.T) {
	p := smallPipeline(t)
	full := replay(t, p, 700, 850)
	if len(full.Events) < 10 {
		t.Fatalf("reference window too quiet: %d events", len(full.Events))
	}
	before := faultfs.SnapshotGoroutines()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	det := p.NewDetector()
	sub := det.Subscribe()
	go func() {
		// Cancel as soon as the first event closes — mid-window, with
		// materialization workers still running ahead of the consumer.
		if _, ok := <-sub; ok {
			cancel()
		}
		for range sub {
		}
	}()

	start := time.Now()
	res, err := det.Run(ctx, p.Replay(700, 850))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if res == nil {
		t.Fatal("canceled Run returned nil result")
	}
	if res.Metrics.UpdatesProcessed == 0 || len(res.Events) == 0 {
		t.Fatalf("partial result empty: %d updates, %d events", res.Metrics.UpdatesProcessed, len(res.Events))
	}
	// Canceling right after the first closed event must leave most of
	// the window unprocessed — and must not fabricate flush ends for
	// events that were still open.
	if len(res.Events) >= len(full.Events) {
		t.Fatalf("canceled Run closed %d events, full window closes %d", len(res.Events), len(full.Events))
	}
	if res.Metrics.UpdatesProcessed >= full.Metrics.UpdatesProcessed {
		t.Fatalf("canceled Run processed %d updates, full window processes %d",
			res.Metrics.UpdatesProcessed, full.Metrics.UpdatesProcessed)
	}

	// Leak check: every worker and watcher goroutine must exit.
	faultfs.CheckGoroutines(t, before)
}

// TestSubscribeDeliversIncrementally checks that subscribers receive
// events while the run is still in flight — not only after the final
// flush — and that the subscription sees exactly the events of the
// final result, in closing order, before the channel closes.
func TestSubscribeDeliversIncrementally(t *testing.T) {
	p := smallPipeline(t)
	det := p.NewDetector()
	sub := det.Subscribe()

	var running atomic.Bool
	running.Store(true)
	type rcv struct {
		ev    *Event
		inRun bool
	}
	collected := make(chan []rcv, 1)
	received := make(chan struct{}) // closed at the subscriber's first event
	go func() {
		var got []rcv
		for ev := range sub {
			if got = append(got, rcv{ev, running.Load()}); len(got) == 1 {
				close(received)
			}
		}
		collected <- got
	}()

	// Once the engine has closed an event, the source's next element
	// waits for the subscriber to receive one, so the run is still in
	// flight when it does however the goroutines are scheduled.
	waited := false
	src := MapSource(p.Replay(845, 850), func(e *Elem) *Elem {
		if !waited && det.Metrics().EventsClosed > 0 {
			waited = true
			select {
			case <-received:
			case <-time.After(10 * time.Second):
				t.Error("the subscriber received no event within 10s of the first close")
			}
		}
		return e
	})
	res, err := det.Run(context.Background(), src)
	running.Store(false)
	if err != nil {
		t.Fatal(err)
	}
	got := <-collected

	if len(got) != len(res.Events) {
		t.Fatalf("subscriber saw %d events, result has %d", len(got), len(res.Events))
	}
	inFlight := 0
	for i, g := range got {
		if g.ev != res.Events[i] {
			t.Fatalf("subscriber order mismatch at %d", i)
		}
		if g.inRun {
			inFlight++
		}
	}
	if inFlight == 0 {
		t.Fatal("no event was delivered while the run was in flight")
	}
}

// TestStreamEarlyBreak ensures breaking out of the iterator view cancels
// the subscription without stalling the run or leaking the pump.
func TestStreamEarlyBreak(t *testing.T) {
	p := smallPipeline(t)
	det := p.NewDetector()
	seq := det.Stream()

	done := make(chan *RunResult, 1)
	go func() {
		res, err := det.Run(context.Background(), p.Replay(845, 850))
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()

	n := 0
	for range seq {
		if n++; n >= 3 {
			break
		}
	}
	select {
	case res := <-done:
		if len(res.Events) < n {
			t.Fatalf("run saw %d events, subscriber consumed %d", len(res.Events), n)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run stalled after subscriber break")
	}
}

// TestLiveSourceEOFAfterDrain checks the LiveSource adapter contract:
// after Close, buffered elements still drain, then Next reports io.EOF
// — and a Run over the source terminates cleanly on it.
func TestLiveSourceEOFAfterDrain(t *testing.T) {
	p := smallPipeline(t)
	live := NewLiveSource()
	obs := p.Deploy.OrdinaryUpdates(TimelineStart, 40)
	for _, o := range obs {
		live.Publish(&Elem{Collector: o.Collector.Name, Platform: o.Collector.Platform, Update: o.Update})
	}
	live.Close()
	live.Publish(&Elem{Update: &Update{}}) // dropped: already closed

	for i := 0; i < len(obs); i++ {
		if _, err := live.Next(); err != nil {
			t.Fatalf("element %d: %v", i, err)
		}
	}
	if _, err := live.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("after drain: %v, want io.EOF", err)
	}

	// And through Run: a fresh closed-after-publish source terminates.
	live2 := NewLiveSource()
	for _, o := range obs {
		live2.PublishUpdate(o.Update, o.Collector.Name, o.Collector.Platform)
	}
	live2.Close()
	res, err := p.NewDetector().Run(context.Background(), live2, WithFlushAt(TimelineStart.AddDate(0, 0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.UpdatesProcessed+res.Metrics.UpdatesCleaned == 0 {
		t.Fatal("run consumed nothing")
	}
}

// TestInferStatsAreTheReplayRunsOwn: the Figure 2 statistics belong to
// a replay run. A live run has none, and a detector that has run before
// returns for each replay the statistics a fresh detector would.
func TestInferStatsAreTheReplayRunsOwn(t *testing.T) {
	p := smallPipeline(t)
	det := p.NewDetector()
	live := NewLiveSource()
	for _, o := range p.Deploy.OrdinaryUpdates(TimelineStart, 40) {
		live.PublishUpdate(o.Update, o.Collector.Name, o.Collector.Platform)
	}
	live.Close()
	res, err := det.Run(context.Background(), live, WithFlushAt(TimelineStart.AddDate(0, 0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.InferStats != nil {
		t.Fatalf("a live run returned Figure 2 statistics over %d communities", len(res.InferStats.Stats))
	}
	for _, days := range [][2]int{{845, 847}, {847, 850}} {
		res, err := det.Run(context.Background(), p.Replay(days[0], days[1]))
		if err != nil {
			t.Fatal(err)
		}
		want := replay(t, p, days[0], days[1]).InferStats
		if len(want.Stats) == 0 {
			t.Fatalf("days %v: a fresh detector profiled no community", days)
		}
		if !reflect.DeepEqual(res.InferStats, want) {
			t.Fatalf("days %v: the detector's %d profiled and %d inferred communities, a fresh one's %d and %d",
				days, len(res.InferStats.Stats), len(res.InferStats.Inferred), len(want.Stats), len(want.Inferred))
		}
	}
}

// TestWithoutFlushHandover checks the feed handover: a Run with
// WithoutFlush leaves still-active events open, and a second Run on the
// same Detector ends them with the event spanning both feeds.
func TestWithoutFlushHandover(t *testing.T) {
	p := smallPipeline(t)
	provider := p.Topo.BlackholingProviders()[0]
	bh := provider.Blackholing.Communities[0]
	b := provider.Prefixes[0].Addr().As4()
	victim := netip.PrefixFrom(netip.AddrFrom4([4]byte{b[0], b[1], 9, 9}), 32)
	peerIP := netip.MustParseAddr("22.7.7.7")
	at := TimelineStart.AddDate(0, 0, 100)

	det := p.NewDetector()

	// Leg 1: the announcement arrives, the feed ends without a flush.
	feed1 := NewLiveSource()
	feed1.PublishUpdate(&Update{
		Time: at, PeerIP: peerIP, PeerAS: provider.ASN,
		Announced:   []netip.Prefix{victim},
		Path:        NewPath(provider.ASN, 1200),
		Communities: []Community{bh},
	}, "rrc00", PlatformRIS)
	feed1.Close()
	res1, err := det.Run(context.Background(), feed1, WithoutFlush())
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Events) != 0 || det.ActiveCount() != 1 {
		t.Fatalf("after leg 1: %d closed, %d active; want 0 closed, 1 active",
			len(res1.Events), det.ActiveCount())
	}

	// Leg 2: a later feed carries the withdrawal; the event closes with
	// a duration spanning both legs.
	feed2 := NewLiveSource()
	feed2.PublishUpdate(&Update{
		Time: at.Add(90 * time.Minute), PeerIP: peerIP, PeerAS: provider.ASN,
		Withdrawn: []netip.Prefix{victim},
	}, "rrc00", PlatformRIS)
	feed2.Close()
	res2, err := det.Run(context.Background(), feed2, WithFlushAt(at.Add(2*time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Events) != 1 || det.ActiveCount() != 0 {
		t.Fatalf("after leg 2: %d closed, %d active; want 1 closed, 0 active",
			len(res2.Events), det.ActiveCount())
	}
	if d := res2.Events[0].Duration(); d != 90*time.Minute {
		t.Fatalf("event duration = %v, want 90m spanning both feeds", d)
	}
}

// sliceSource feeds a fixed list of elements, then io.EOF.
type sliceSource []*Elem

func (s *sliceSource) Next() (*Elem, error) {
	if len(*s) == 0 {
		return nil, io.EOF
	}
	el := (*s)[0]
	*s = (*s)[1:]
	return el, nil
}

// TestFlushedDetectorClosesEventsAgain is the catch-up-then-live
// regression through the facade: a Run that flushed forgets the peers it
// flushed, so an event another peer opens in the next Run on the same
// Detector closes — for a subscriber, as it happens — at that peer's
// withdrawal, not at the second Run's flush.
func TestFlushedDetectorClosesEventsAgain(t *testing.T) {
	p := smallPipeline(t)
	provider := p.Topo.BlackholingProviders()[0]
	bh := provider.Blackholing.Communities[0]
	b := provider.Prefixes[0].Addr().As4()
	victim := netip.PrefixFrom(netip.AddrFrom4([4]byte{b[0], b[1], 9, 9}), 32)
	at := TimelineStart.AddDate(0, 0, 100)
	blackhole := func(peer string, when time.Time) *Elem {
		return &Elem{Collector: "rrc00", Platform: PlatformRIS, Update: &Update{
			Time: when, PeerIP: netip.MustParseAddr(peer), PeerAS: provider.ASN,
			Announced:   []netip.Prefix{victim},
			Path:        NewPath(provider.ASN, 1200),
			Communities: []Community{bh},
		}}
	}

	det := p.NewDetector()
	res1, err := det.Run(context.Background(), &sliceSource{blackhole("22.7.7.7", at)}, WithFlushAt(at.Add(time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Events) != 1 || det.ActiveCount() != 0 {
		t.Fatalf("after the catch-up run: %d closed, %d active; want 1, 0", len(res1.Events), det.ActiveCount())
	}

	withdrawal := at.Add(3 * time.Hour)
	sub := det.Subscribe()
	res2, err := det.Run(context.Background(), &sliceSource{
		blackhole("22.8.8.8", at.Add(2*time.Hour)),
		{Collector: "rrc00", Platform: PlatformRIS, Update: &Update{
			Time: withdrawal, PeerIP: netip.MustParseAddr("22.8.8.8"), PeerAS: provider.ASN,
			Withdrawn: []netip.Prefix{victim},
		}},
	}, WithFlushAt(at.Add(24*time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Events) != 2 || det.ActiveCount() != 0 {
		t.Fatalf("after the second run: %d closed, %d active; want 2, 0", len(res2.Events), det.ActiveCount())
	}
	var seen []*Event
	for ev := range sub {
		seen = append(seen, ev)
	}
	if len(seen) != 1 {
		t.Fatalf("subscriber saw %d events, want the second run's one", len(seen))
	}
	if !seen[0].End.Equal(withdrawal) {
		t.Fatalf("subscriber saw the event end at %v, want the withdrawal at %v", seen[0].End, withdrawal)
	}
}

// TestWrappedReplayKeepsWindow is the combinator regression: a
// ReplaySource behind FilterSource/MapSource must still populate the
// window metadata, default the flush to the window end (not wall-clock
// now), and hand over the retained last-week propagation results.
func TestWrappedReplayKeepsWindow(t *testing.T) {
	p := smallPipeline(t)
	src := FilterSource(MapSource(p.Replay(848, 850), func(e *Elem) *Elem { return e }),
		func(*Elem) bool { return true })
	res, err := p.NewDetector().Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := p.NewDetector().Run(context.Background(), p.Replay(848, 850))
	if err != nil {
		t.Fatal(err)
	}
	if res.WindowStart != bare.WindowStart || res.WindowEnd != bare.WindowEnd {
		t.Fatalf("wrapped window = [%v,%v), bare = [%v,%v)", res.WindowStart, res.WindowEnd, bare.WindowStart, bare.WindowEnd)
	}
	if canonicalEvents(res) != canonicalEvents(bare) {
		t.Fatal("wrapped replay diverged from bare replay")
	}
	if len(res.LastDayResults) == 0 || len(res.LastDayResults) != len(bare.LastDayResults) {
		t.Fatalf("wrapped LastDayResults = %d, bare = %d", len(res.LastDayResults), len(bare.LastDayResults))
	}
	// Flush defaulted to the window end, not time.Now: intents may
	// withdraw days after the window, but nothing can reach the present.
	// (The checksum equality above already pins the exact times.)
	horizon := TimelineStart.AddDate(1, 0, 850)
	for _, ev := range res.Events {
		if ev.End.After(horizon) {
			t.Fatalf("event %s ends %v — flushed at wall clock instead of the window end", ev.Prefix, ev.End)
		}
	}
}

// TestLiveSourceCancelThenResume is the canceled-campaign regression:
// a Run aborted by ctx must not poison the LiveSource — a later Run on
// the same feed resumes it and sees the elements published since.
func TestLiveSourceCancelThenResume(t *testing.T) {
	p := smallPipeline(t)
	live := NewLiveSource()
	det := p.NewDetector()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := det.Run(ctx, live, WithoutFlush())
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond) // park the consumer in Next
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("first Run = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled Run did not return with the consumer parked in Next")
	}

	// The feed is still alive: publish, close, and run to completion.
	obs := p.Deploy.OrdinaryUpdates(TimelineStart, 20)
	for _, o := range obs {
		live.PublishUpdate(o.Update, o.Collector.Name, o.Collector.Platform)
	}
	live.Close()
	res, err := det.Run(context.Background(), live, WithFlushAt(TimelineStart.AddDate(0, 0, 1)))
	if err != nil {
		t.Fatalf("resumed Run = %v (stale interrupt leaked through)", err)
	}
	if res.Metrics.UpdatesProcessed+res.Metrics.UpdatesCleaned == 0 {
		t.Fatal("resumed Run consumed nothing")
	}
}

// TestMergeSourcesCancellation checks that cancellation wiring passes
// through MergeSources to the child sources: a Run over merged live
// feeds parked in Next must unblock when the context is canceled.
func TestMergeSourcesCancellation(t *testing.T) {
	p := smallPipeline(t)
	a, b := NewLiveSource(), NewLiveSource()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := p.NewDetector().Run(ctx, MergeSources(a, b))
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond) // park the merge priming in Next
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run over MergeSources did not unblock on cancellation")
	}
}

// TestRunBusy pins the single-active-run guard.
func TestRunBusy(t *testing.T) {
	p := smallPipeline(t)
	det := p.NewDetector()
	live := NewLiveSource()
	started := make(chan struct{})
	finished := make(chan error, 1)
	go func() {
		close(started)
		_, err := det.Run(context.Background(), live, WithFlushAt(TimelineStart))
		finished <- err
	}()
	<-started
	time.Sleep(10 * time.Millisecond)
	if _, err := det.Run(context.Background(), NewLiveSource()); !errors.Is(err, ErrDetectorBusy) {
		t.Fatalf("second Run = %v, want ErrDetectorBusy", err)
	}
	live.Close()
	if err := <-finished; err != nil {
		t.Fatal(err)
	}
}

// A seed drives the same single-goroutine engine as Run, so it takes
// Run's guard: against a Run parked on a live feed it must return
// ErrDetectorBusy without reading the dump or touching the engine.
func TestSeedFromRIBDumpBusy(t *testing.T) {
	if testing.Short() {
		t.Skip("archives a window for its table dumps")
	}
	p := smallPipeline(t)
	dir := t.TempDir()
	if _, err := p.WriteMRTArchives(dir, 840, 850); err != nil {
		t.Fatal(err)
	}
	dumps, err := filepath.Glob(filepath.Join(dir, "*.dump.mrt"))
	if err != nil || len(dumps) == 0 {
		t.Fatalf("no table dumps (%v)", err)
	}
	var dump []byte
	var name string
	for _, path := range dumps {
		if data, err := os.ReadFile(path); err == nil && len(data) > len(dump) {
			dump, name = data, strings.TrimSuffix(filepath.Base(path), ".dump.mrt")
		}
	}
	// The dump does seed an idle detector.
	idle := p.NewDetector()
	if err := idle.SeedFromRIBDump(bytes.NewReader(dump), name, PlatformRIS); err != nil || idle.ActiveCount() == 0 {
		t.Fatalf("seeding an idle detector: err %v, %d active", err, idle.ActiveCount())
	}

	det := p.NewDetector()
	live := NewLiveSource()
	finished := make(chan *RunResult, 1)
	go func() {
		res, err := det.Run(context.Background(), live, WithFlushAt(TimelineStart.AddDate(0, 0, 851)))
		if err != nil {
			t.Error(err)
		}
		finished <- res
	}()
	// Run is active once it has processed an update.
	live.PublishUpdate(&Update{Time: TimelineStart, PeerIP: netip.MustParseAddr("22.0.1.1"), PeerAS: 65001,
		Announced: []netip.Prefix{netip.MustParsePrefix("31.0.0.0/24")}}, name, PlatformRIS)
	for det.Metrics().UpdatesProcessed == 0 {
		time.Sleep(time.Millisecond)
	}
	r := bytes.NewReader(dump)
	if err := det.SeedFromRIBDump(r, name, PlatformRIS); !errors.Is(err, ErrDetectorBusy) {
		t.Fatalf("seed during a Run = %v, want ErrDetectorBusy", err)
	}
	if r.Len() != len(dump) {
		t.Fatalf("the refused seed read %d bytes of the dump", len(dump)-r.Len())
	}
	live.Close()
	if res := <-finished; res == nil || len(res.Events) != 0 || det.ActiveCount() != 0 {
		t.Fatalf("the refused seed reached the engine: %+v, %d active", res, det.ActiveCount())
	}
}

// TestMRTSourceRoundTrip archives a window with WriteMRTArchives and
// re-infers it through MRTSource + MergeSources: the facade-only path
// every external consumer of bhgen/bhdetect uses.
func TestMRTSourceRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("archive round trip")
	}
	p := smallPipeline(t)
	dir := t.TempDir()
	sum, err := p.WriteMRTArchives(dir, 848, 850)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Collectors == 0 || sum.Updates == 0 {
		t.Fatalf("empty archive summary: %+v", sum)
	}

	matches, err := archiveGlob(dir)
	if err != nil {
		t.Fatal(err)
	}
	var srcs []Source
	for _, m := range matches {
		src, err := OpenMRTSource(m.path, m.name, PlatformRIS)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		srcs = append(srcs, src)
	}
	res, err := p.NewDetector().Run(context.Background(), MergeSources(srcs...),
		WithFlushAt(TimelineStart.AddDate(0, 0, 852)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("no events re-inferred from the archives")
	}
	if res.Metrics.UpdatesProcessed == 0 {
		t.Fatal("no updates consumed from the archives")
	}
}

// TestHeldElementsDoNotPinTheirDay: the elements a replay holds for a
// later day are copies, so once the replay has moved past a day, that
// day's batch is garbage even while its later withdrawals and
// re-announcements are still held.
func TestHeldElementsDoNotPinTheirDay(t *testing.T) {
	src := smallPipeline(t).Replay(800, 810)
	defer src.Close()
	var first weak.Pointer[Elem]
	func() {
		// Every strong reference this test takes lives in this frame.
		dayAfterNext := src.windowStart.Add(48 * time.Hour)
		for n := 0; ; n++ {
			el, err := src.Next()
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				first = weak.Make(el)
			}
			if !el.Update.Time.Before(dayAfterNext) {
				return
			}
		}
	}()
	if len(src.next) == 0 {
		t.Fatal("the replay holds nothing for a later day")
	}
	for deadline := time.Now().Add(2 * time.Second); first.Value() != nil && time.Now().Before(deadline); {
		runtime.GC()
	}
	if first.Value() != nil {
		t.Errorf("day 800's batch is still reachable with %d elements held", len(src.next))
	}
}

// TestReplayOrderDoesNotChangeInference is the law every pull Source
// keeps: time never steps back. A replay's day batch carries its
// intents' later withdrawals and re-announcements, which the replay
// merges into the days they fall on, for every worker count; an
// archive, a merge of a window's archives (table dumps included) and
// the combinators over it keep that order. A LiveSource yields what is
// pushed, so it is outside the law.
func TestReplayOrderDoesNotChangeInference(t *testing.T) {
	drain := func(name string, src Source) (held int) {
		t.Helper()
		n := 0
		var last time.Time
		for ; ; n++ {
			el, err := src.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if el.Update.Time.Before(last) {
				t.Fatalf("%s: element %d at %v steps back from %v", name, n, el.Update.Time, last)
			}
			last = el.Update.Time
			if rs, ok := src.(*ReplaySource); ok {
				held = max(held, len(rs.next))
			}
		}
		if n == 0 {
			t.Fatalf("%s: no elements", name)
		}
		return held
	}
	for _, workers := range []int{1, 4} {
		opts := SmallOptions()
		opts.Workers = workers
		p, err := NewPipeline(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range [][2]int{{800, 810}, {640, 850}} {
			name := fmt.Sprintf("Replay(%d, %d), %d workers", w[0], w[1], workers)
			src := p.Replay(w[0], w[1])
			t.Logf("%s: at most %d elements held across a day boundary", name, drain(name, src))
			src.Close()
		}
	}

	dir := t.TempDir()
	if _, err := smallPipeline(t).WriteMRTArchives(dir, 800, 810); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.mrt"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("archives %v: %v", paths, err)
	}
	archives := func() []Source {
		srcs := make([]Source, len(paths))
		for i, path := range paths {
			src, err := OpenMRTSource(path, strings.TrimSuffix(filepath.Base(path), ".mrt"), PlatformRIS)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { src.Close() })
			srcs[i] = src
		}
		return srcs
	}
	for i, src := range archives() {
		drain(filepath.Base(paths[i]), src)
	}
	drain("MergeSources", MergeSources(archives()...))
	drain("MapSource", MapSource(MergeSources(archives()...), func(e *Elem) *Elem { return e }))
	drain("FilterSource", FilterSource(MergeSources(archives()...), func(e *Elem) bool { return e.Update.IsWithdrawal() }))
}
