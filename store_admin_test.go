package bgpblackholing

// Facade-level tests for the tiered-compaction and retention surface:
// Store.Compact(policy), Store.DeletePrefix, and the policy spec parser
// the CLIs (bhserve -compact-policy, bhquery -compact) share.

import (
	"bytes"
	"context"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"
	"weak"

	"bgpblackholing/internal/store"
)

// Events is every stored event in append (closing) order, collected
// from the store's read walk: the tests' view of what a store holds.
func (st *Store) Events() []*Event { return slices.Collect(st.s.All()) }

func populatedStore(t *testing.T, dir string, opts StoreOptions) (*Store, []*Event) {
	t.Helper()
	p, err := NewPipeline(SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStoreWith(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	det := p.NewDetector()
	wait := det.SinkToStore(st)
	res, err := det.Run(context.Background(), p.Replay(800, 806))
	if err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("window produced no events")
	}
	return st, res.Events
}

// TestFacadeCompactAndDeletePrefix drives the whole retention story
// through the public facade on real detector output: tiered compaction
// keeps query answers byte-identical, DeletePrefix hides a prefix at
// once, and the erasure sticks across reopen.
func TestFacadeCompactAndDeletePrefix(t *testing.T) {
	dir := t.TempDir()
	opts := StoreOptions{
		MaxSegmentBytes: 16 << 10,
		Policy:          CompactionPolicy{Partition: 30 * 24 * time.Hour, SizeRatio: 4, MinRun: 2},
	}
	st, events := populatedStore(t, dir, opts)

	before := st.Query(Query{})
	stats, err := st.Compact(opts.Policy)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EventsAfter > stats.EventsBefore {
		t.Fatalf("compaction grew the store: %+v", stats)
	}
	after := st.Query(Query{})
	if after.Total != before.Total-stats.Dropped {
		t.Fatalf("post-compact total %d, want %d - %d dropped", after.Total, before.Total, stats.Dropped)
	}

	victim := events[0].Prefix
	covered := st.Query(Query{Prefix: victim, Mode: PrefixCovered})
	if covered.Total == 0 {
		t.Fatal("no events under the victim prefix")
	}
	n, err := st.DeletePrefix(victim, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if n != covered.Total {
		t.Fatalf("DeletePrefix erased %d, want %d", n, covered.Total)
	}
	if res := st.Query(Query{Prefix: victim, Mode: PrefixCovered}); res.Total != 0 {
		t.Fatalf("victim prefix still visible: %d events", res.Total)
	}
	wantTotal := after.Total - n
	if res := st.Query(Query{}); res.Total != wantTotal {
		t.Fatalf("full scan after delete: %d, want %d", res.Total, wantTotal)
	}
	remaining := st.Events()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenStoreWith(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if res := r.Query(Query{Prefix: victim, Mode: PrefixCovered}); res.Total != 0 {
		t.Fatalf("reopen resurrected the deleted prefix: %d events", res.Total)
	}
	got := r.Events()
	if len(got) != len(remaining) {
		t.Fatalf("reopen has %d events, want %d", len(got), len(remaining))
	}
	for i := range got {
		if !bytes.Equal(store.EncodeEvent(nil, got[i]), store.EncodeEvent(nil, remaining[i])) {
			t.Fatalf("event %d not byte-identical across delete+reopen", i)
		}
	}
	if s := r.Stats(); s.Tombstones != 1 {
		t.Fatalf("tombstone not durable: %+v", s)
	}
}

// TestCompactZeroPolicyMergesAll: the zero policy means one pass
// wherever it is read — the background compactor's and an explicit
// Compact's — and that pass is merge-all: it seals the active segment
// and drops a flush duplicate a later, longer close superseded.
func TestCompactZeroPolicyMergesAll(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	flushed, longer := stallEvent(7), stallEvent(7)
	longer.End = longer.End.Add(3 * time.Hour)
	if err := st.Append(flushed, stallEvent(8), longer); err != nil {
		t.Fatal(err)
	}
	stats, err := st.Compact(CompactionPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped != 1 || stats.EventsAfter != 2 {
		t.Fatalf("Compact(CompactionPolicy{}) = %+v, want the flush duplicate dropped and 2 events kept", stats)
	}
	if got := st.Events(); len(got) != 2 || !got[0].End.Equal(longer.End) {
		t.Fatalf("after the pass the store holds %v; want the longer close first, of 2", got)
	}
}

func TestParseCompactionPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want CompactionPolicy
		ok   bool
	}{
		{"", CompactionPolicy{MergeAll: true}, true},
		{"all", CompactionPolicy{MergeAll: true}, true},
		{"merge-all", CompactionPolicy{MergeAll: true}, true},
		{"tiered", CompactionPolicy{Partition: 30 * 24 * time.Hour, SizeRatio: 4, MinRun: 4}, true},
		{"tiered,partition=60d,ratio=3,min-run=2", CompactionPolicy{Partition: 60 * 24 * time.Hour, SizeRatio: 3, MinRun: 2}, true},
		{"tiered,partition=720h", CompactionPolicy{Partition: 720 * time.Hour, SizeRatio: 4, MinRun: 4}, true},
		{"tiered,partition=0d", CompactionPolicy{Partition: 0, SizeRatio: 4, MinRun: 4}, true},
		{"tiered,ratio=0.5", CompactionPolicy{}, false},
		{"tiered,min-run=1", CompactionPolicy{}, false},
		{"tiered,nope=1", CompactionPolicy{}, false},
		{"merge-all,ratio=2", CompactionPolicy{}, false},
		{"bogus", CompactionPolicy{}, false},
	}
	for _, c := range cases {
		got, err := ParseCompactionPolicy(c.in)
		if c.ok != (err == nil) {
			t.Fatalf("ParseCompactionPolicy(%q): err = %v, want ok=%v", c.in, err, c.ok)
		}
		if c.ok && got != c.want {
			t.Fatalf("ParseCompactionPolicy(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"", SyncPolicy{}, true},
		{"close", SyncPolicy{}, true},
		{"always", SyncPolicy{EveryN: 1}, true}, // one fsync per append batch
		{"group", SyncPolicy{EveryN: 1000, Interval: 200 * time.Millisecond}, true},
		{"group,every=64", SyncPolicy{EveryN: 64, Interval: 200 * time.Millisecond}, true},
		{"group,every=64,interval=1s", SyncPolicy{EveryN: 64, Interval: time.Second}, true},
		{"group,interval=0s", SyncPolicy{EveryN: 1000}, true},
		{"group,every=0,interval=0s", SyncPolicy{}, false}, // both triggers off
		{"group,every=-1", SyncPolicy{}, false},
		{"group,nope=1", SyncPolicy{}, false},
		{"close,every=1", SyncPolicy{}, false},
		{"bogus", SyncPolicy{}, false},
	}
	for _, c := range cases {
		got, err := ParseSyncPolicy(c.in)
		if c.ok != (err == nil) {
			t.Fatalf("ParseSyncPolicy(%q): err = %v, want ok=%v", c.in, err, c.ok)
		}
		if c.ok && got != c.want {
			t.Fatalf("ParseSyncPolicy(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// TestDeletePrefixHostAddress: erasing by host address (the bhquery
// -delete-prefix 10.1.2.3 shape) kills exactly the events whose prefix
// covers nothing beyond that host — i.e. only exact /32 records — while
// broader prefixes stay (use the covering prefix to erase those).
func TestDeletePrefixHostAddress(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mk := func(prefix string, minutes int) *Event {
		start := time.Date(2015, 3, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(minutes) * time.Minute)
		return &Event{
			Prefix: netip.MustParsePrefix(prefix),
			Start:  start,
			End:    start.Add(30 * time.Minute),
		}
	}
	if err := st.Append(mk("192.0.2.7/32", 0), mk("192.0.2.0/24", 10)); err != nil {
		t.Fatal(err)
	}
	host := netip.MustParsePrefix("192.0.2.7/32")
	n, err := st.DeletePrefix(host, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("host delete erased %d events, want 1 (/32 only)", n)
	}
	if res := st.Query(Query{Prefix: netip.MustParsePrefix("192.0.2.0/24"), Mode: PrefixExact}); res.Total != 1 {
		t.Fatalf("covering /24 should survive a host delete, got %d", res.Total)
	}
}

// TestErasedEventsAreCollectable: erasure means the process lets go. An
// event that was queried plain and enriched and alerted on, then erased
// with DeletePrefix and compacted away, is garbage once the caller drops
// it — nothing on the read path or in the annotator holds an event after
// answering about it. (A per-event projection memo and a per-event
// annotation cache, each entered on first use and never left, used to.)
func TestErasedEventsAreCollectable(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ann := fixtureAnnotator()
	be := NewStoreBackend(st, nil)
	st.SetAnnotator(ann)
	hub, err := NewAlertHub([]AlertRule{{Name: "all"}}, AlertHubConfig{Annotator: ann})
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	var erased [n]weak.Pointer[Event]
	func() {
		// Every strong reference this test holds lives in this frame.
		events := make([]*Event, n)
		for i := range events {
			events[i] = stallEvent(i)
			events[i].Users = []ASN{65001}
			events[i].Communities = []Community{MakeCommunity(3356, 9999)}
			erased[i] = weak.Make(events[i])
		}
		if err := st.Append(events...); err != nil {
			t.Fatal(err)
		}
		for _, q := range []Query{{}, {Enrich: true}} {
			rs, err := be.Records(context.Background(), q)
			if err != nil || len(rs.Records) != n {
				t.Fatalf("Records(enrich=%v): %d records, %v; want %d", q.Enrich, len(rs.Records), err, n)
			}
		}
		for _, ev := range events {
			hub.Publish(ev)
		}
		if got := hub.Stats().Alerts; got != n {
			t.Fatalf("hub raised %d alerts, want %d", got, n)
		}
	}()
	// The hub's replay ring keeps its last RingSize alerts, events
	// included, for Last-Event-ID resume: bounded, and gone with the hub.
	hub.Close()
	hub = nil

	if got, err := st.DeletePrefix(netip.MustParsePrefix("10.0.0.0/8"), time.Time{}); err != nil || got != n {
		t.Fatalf("DeletePrefix erased %d events, %v; want %d", got, err, n)
	}
	if _, err := st.Compact(CompactionPolicy{MergeAll: true}); err != nil {
		t.Fatal(err)
	}

	held := n
	for deadline := time.Now().Add(2 * time.Second); held > 0 && time.Now().Before(deadline); {
		runtime.GC()
		held = 0
		for _, wp := range erased {
			if wp.Value() != nil {
				held++
			}
		}
	}
	if held > 0 {
		t.Errorf("%d of %d erased events are still reachable", held, n)
	}
	// The backend, the annotator and the store outlive the events.
	runtime.KeepAlive(be)
	runtime.KeepAlive(ann)
}

// sidecarlessCopy copies the closed store directory dir and deletes the
// copy's sidecars: opening the copy decodes every segment, the
// reference a cold open is held to.
func sidecarlessCopy(tb testing.TB, dir string) string {
	tb.Helper()
	cp := tb.TempDir()
	if err := os.CopyFS(cp, os.DirFS(dir)); err != nil {
		tb.Fatal(err)
	}
	sums, err := filepath.Glob(filepath.Join(cp, "*.sum"))
	if err != nil || len(sums) == 0 {
		tb.Fatalf("%s holds no sidecars to delete (%v)", dir, err)
	}
	for _, p := range sums {
		if err := os.Remove(p); err != nil {
			tb.Fatal(err)
		}
	}
	return cp
}

// TestDefaultOpenIsCold: the plain read-only open of a store of several
// sealed segments with fresh sidecars decodes none of them — the
// sidecar decides, not an option — and answers as a decode of every
// segment does.
func TestDefaultOpenIsCold(t *testing.T) {
	dir := t.TempDir()
	st, _ := populatedStore(t, dir, StoreOptions{MaxSegmentBytes: 16 << 10})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := OpenStoreReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if s := ro.Stats(); s.OpenDecodedEvents != 0 || s.SegmentsCold == 0 {
		t.Fatalf("a default read-only open of %d segments decoded %d events and left %d cold; want none decoded, some cold",
			s.Segments, s.OpenDecodedEvents, s.SegmentsCold)
	}
	ref, err := OpenStoreReadOnly(sidecarlessCopy(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	got, want := ro.Events(), ref.Events()
	if len(got) != len(want) {
		t.Fatalf("cold open holds %d events, the sidecar-less decode %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(store.EncodeEvent(nil, got[i]), store.EncodeEvent(nil, want[i])) {
			t.Fatalf("event %d differs between the cold open and the sidecar-less decode", i)
		}
	}
}

// TestReadWriteOpenHealsStaleSidecar: a DeletePrefix stales the sidecar
// of each sealed segment its tombstone may reach. The next read-write
// open, with zero options, rewrites them, so the open after it falls
// back to decoding no segment. (An option-chosen eager open used to
// decode every segment, and neither counted nor healed a stale one.)
func TestReadWriteOpenHealsStaleSidecar(t *testing.T) {
	dir := t.TempDir()
	st, _ := populatedStore(t, dir, StoreOptions{MaxSegmentBytes: 16 << 10})
	if _, err := st.DeletePrefix(st.Events()[0].Prefix, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	sidecars := func() map[string]string {
		sums, _ := filepath.Glob(filepath.Join(dir, "*.sum"))
		out := map[string]string{}
		for _, p := range sums {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			out[p] = string(data)
		}
		return out
	}
	before := sidecars()
	rw, err := OpenStoreWith(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	rewritten := 0
	for p, data := range sidecars() {
		if before[p] != data {
			rewritten++
		}
	}
	if rewritten == 0 {
		t.Errorf("the read-write open rewrote none of %d sidecars", len(before))
	}
	ins := NewTelemetry().StoreInstruments()
	ro, err := OpenStoreWith(dir, StoreOptions{ReadOnly: true, Instruments: ins})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if n, s := ins.SidecarFallbacks.Value(), ro.Stats(); n != 0 || s.OpenDecodedEvents != 0 {
		t.Errorf("the next read-only open fell back on %d sidecars and decoded %d events; want none", n, s.OpenDecodedEvents)
	}
}
