package store

// Chaos suite: simulated power loss and injected I/O errors at every
// write point of the append path — record writes, group-commit fsyncs,
// and segment creation during seals — driven through the
// Options.OpenSegment seam by internal/faultfs. The invariant under
// test is the group-commit durability contract: after a crash the
// store reopens cleanly and the surviving events are a prefix of the
// acknowledged appends, missing at most the last unsynced batch.
//
// All tests here are named TestChaos* so CI can select the suite with
// `go test -run Chaos -race`.

import (
	"errors"
	"testing"
	"time"

	"bgpblackholing/internal/core"
	"bgpblackholing/internal/faultfs"
)

// openFaulted opens a store whose active-segment file ops run through
// the given fault-injecting filesystem.
func openFaulted(t *testing.T, dir string, fs *faultfs.FS, opts Options) *Store {
	t.Helper()
	opts.OpenSegment = func(path string, create bool) (SegmentFile, error) {
		return fs.Open(path, create)
	}
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open faulted store: %v", err)
	}
	return st
}

// crashAppendRun appends events one at a time until the scheduled
// fault fires, tracking per-append group-commit lag, then releases the
// writer lock and reopens the directory with a plain store. It returns
// the recovered store and the durability floor: every event before
// lastDurable (indices into makeEvent order) was covered by a
// successful fsync before the crash, so recovery below that floor is
// data loss.
func crashAppendRun(t *testing.T, dir string, st *Store, total int) (recovered *Store, okCount, lastDurable int) {
	t.Helper()
	unsyncedAfterOK := 0
	for i := 0; i < total; i++ {
		if err := st.Append(makeEvent(i)); err != nil {
			break
		}
		okCount++
		unsyncedAfterOK = st.Stats().Unsynced
	}
	if okCount == total {
		t.Fatal("scheduled fault never fired")
	}
	st.Close() // errors after a crash, but releases the writer lock
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	t.Cleanup(func() { re.Close() })
	return re, okCount, okCount - unsyncedAfterOK
}

// checkPrefixRecovery asserts the recovered events are exactly the
// first Len() appended events, in order, and that the count respects
// the durability floor.
func checkPrefixRecovery(t *testing.T, re *Store, okCount, lastDurable int) {
	t.Helper()
	got := collectAll(re)
	if len(got) < lastDurable {
		t.Fatalf("lost fsynced data: recovered %d events, %d were covered by a group commit", len(got), lastDurable)
	}
	if len(got) > okCount {
		t.Fatalf("recovered %d events but only %d appends were acknowledged", len(got), okCount)
	}
	for i, ev := range got {
		want := makeEvent(i)
		if !ev.Start.Equal(want.Start) || ev.Prefix != want.Prefix {
			t.Fatalf("recovered event %d is not the %d-th appended event: got (%s %s), want (%s %s)",
				i, i, ev.Prefix, ev.Start, want.Prefix, want.Start)
		}
	}
}

// TestChaosCrashMatrix kills the process (simulated power loss) at
// three distinct write points — the n-th record write, the n-th
// group-commit fsync, and the n-th segment creation during a seal —
// and asserts the reopen invariant for each.
func TestChaosCrashMatrix(t *testing.T) {
	const total = 400
	cases := []struct {
		name string
		op   faultfs.Op
		at   int
	}{
		{"write-first", faultfs.OpWrite, 1},
		{"write-early", faultfs.OpWrite, 7},
		{"write-mid", faultfs.OpWrite, 61},
		{"sync-first", faultfs.OpSync, 1},
		{"sync-later", faultfs.OpSync, 5},
		{"create-first-seal", faultfs.OpCreate, 1},
		{"create-later-seal", faultfs.OpCreate, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := faultfs.New()
			st := openFaulted(t, dir, fs, Options{
				MaxSegmentBytes: 4 << 10,
				Sync:            SyncPolicy{EveryN: 4},
			})
			// Scheduled after Open so counts target the append path,
			// not the initial segment's creation.
			fs.CrashAt(tc.op, tc.at)
			re, ok, durable := crashAppendRun(t, dir, st, total)
			if !fs.Crashed() {
				t.Fatal("append run ended without the crash firing")
			}
			checkPrefixRecovery(t, re, ok, durable)
			// The reopened store must be fully writable again.
			if err := re.Append(makeEvent(total)); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			if err := re.Sync(); err != nil {
				t.Fatalf("sync after recovery: %v", err)
			}
		})
	}
}

// TestChaosTornTail crashes mid-write with half the unsynced bytes
// flushed, leaving a torn record on disk; recovery must truncate the
// tail and keep every fsynced record.
func TestChaosTornTail(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New()
	fs.PartialTailOnCrash(true)
	st := openFaulted(t, dir, fs, Options{Sync: SyncPolicy{EveryN: 8}})
	fs.CrashAt(faultfs.OpWrite, 45)
	re, ok, durable := crashAppendRun(t, dir, st, 200)
	checkPrefixRecovery(t, re, ok, durable)
	if durable == 0 {
		t.Fatal("degenerate case: crash fired before any group commit")
	}
	if got := re.Stats().RecoveredTails; got == 0 {
		t.Error("torn tail left on disk but RecoveredTails == 0")
	}
}

// TestChaosTransientWriteError injects a one-shot write error (no
// crash, no data at risk beyond the failed record): the failed Append
// must report it, the store must fail over to a fresh segment, and a
// retry of the same event must succeed with nothing else lost.
func TestChaosTransientWriteError(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New()
	st := openFaulted(t, dir, fs, Options{Sync: SyncPolicy{EveryN: 4}})
	// Segment magic is write 1; records are writes 2..; fail the 8th
	// record mid-stream.
	fs.FailAt(faultfs.OpWrite, 9, nil)
	const total = 20
	retried := false
	for i := 0; i < total; i++ {
		err := st.Append(makeEvent(i))
		if err == nil {
			continue
		}
		if !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("append %d: unexpected error %v", i, err)
		}
		if retried {
			t.Fatalf("append %d failed twice: %v", i, err)
		}
		retried = true
		if err := st.Append(makeEvent(i)); err != nil {
			t.Fatalf("retry of append %d after failover: %v", i, err)
		}
	}
	if !retried {
		t.Fatal("injected write error never fired")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := re.Len(); got != total {
		t.Fatalf("after transient error + retry: %d events, want %d", got, total)
	}
	if re.Stats().Segments < 2 {
		t.Error("write failure did not fail over to a fresh segment")
	}
}

// TestChaosTransientSyncError injects a one-shot fsync failure: the
// group commit must report it, and the store must recover by sealing
// the wounded segment. A failed commit is ambiguous — the record was
// written, only its durability is in doubt — so no retry: the event
// must still be present after failover and a clean close.
func TestChaosTransientSyncError(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New()
	st := openFaulted(t, dir, fs, Options{Sync: SyncPolicy{EveryN: 4}})
	fs.FailAt(faultfs.OpSync, 2, nil)
	const total = 32
	sawErr := false
	for i := 0; i < total; i++ {
		err := st.Append(makeEvent(i))
		if err == nil {
			continue
		}
		if !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("append %d: unexpected error %v", i, err)
		}
		if sawErr {
			t.Fatalf("append %d failed twice: %v", i, err)
		}
		sawErr = true
	}
	if !sawErr {
		t.Fatal("injected sync error never fired")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := re.Len(); got != total {
		t.Fatalf("after transient sync error: %d events, want %d", got, total)
	}
}

// TestChaosGroupCommitBatching proves the fsync schedule each policy
// promises: EveryN batches (EveryN 1 syncs per append), and the zero
// policy defers everything to Close.
func TestChaosGroupCommitBatching(t *testing.T) {
	const n = 64
	cases := []struct {
		name      string
		pol       SyncPolicy
		wantSyncs int
	}{
		{"every-8", SyncPolicy{EveryN: 8}, n / 8},
		{"always", SyncPolicy{EveryN: 1}, n},
		{"on-close-only", SyncPolicy{}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := faultfs.New()
			st := openFaulted(t, t.TempDir(), fs, Options{Sync: tc.pol})
			for i := 0; i < n; i++ {
				if err := st.Append(makeEvent(i)); err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
			}
			if got := fs.Ops(faultfs.OpSync); got != tc.wantSyncs {
				t.Errorf("%d appends under %+v: %d fsyncs, want %d", n, tc.pol, got, tc.wantSyncs)
			}
			if err := st.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if got := fs.Ops(faultfs.OpSync); got != tc.wantSyncs+1 {
				t.Errorf("close did not add exactly one fsync: %d total, want %d", got, tc.wantSyncs+1)
			}
		})
	}
}

// TestChaosIntervalDeadline proves the T-ms half of "every N events or
// T ms": a batch smaller than EveryN becomes durable once the interval
// elapses, and survives a crash after the deadline.
func TestChaosIntervalDeadline(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New()
	st := openFaulted(t, dir, fs, Options{
		Sync: SyncPolicy{EveryN: 100, Interval: 20 * time.Millisecond},
	})
	const n = 5 // far below EveryN: only the timer can sync these
	for i := 0; i < n; i++ {
		if err := st.Append(makeEvent(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().Unsynced != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("interval sync never fired: %d records still unsynced", st.Stats().Unsynced)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := fs.Ops(faultfs.OpSync); got == 0 {
		t.Fatal("unsynced count dropped without an fsync")
	}
	fs.Crash()
	st.Close()
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer re.Close()
	if got := re.Len(); got != n {
		t.Fatalf("crash after interval deadline lost data: %d events, want %d", got, n)
	}
}

// TestChaosSlowDiskBackpressure exercises the latency injector: a slow
// disk must not corrupt anything, only slow the writer down.
func TestChaosSlowDiskBackpressure(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New()
	fs.SetLatency(time.Millisecond)
	st := openFaulted(t, dir, fs, Options{Sync: SyncPolicy{EveryN: 4}})
	const n = 24
	for i := 0; i < n; i++ {
		if err := st.Append(makeEvent(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := re.Len(); got != n {
		t.Fatalf("slow disk run: %d events, want %d", got, n)
	}
}

var _ = core.Event{} // makeEvent's package is used via store_test helpers
