package store

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"bgpblackholing/internal/core"
	"bgpblackholing/internal/faultfs"
	"bgpblackholing/internal/obs"
)

// TestStoreWritePathAccounting runs one scripted sequence through every
// step of the write path — appends, DeletePrefix, a size seal, a
// partition roll, a failed write and the failover it forces, an Interval
// deadline, Sync and Close — under each SyncPolicy, and pins what each
// step leaves in every ledger that counts it: the file's fsyncs, the
// fsync and group-commit instruments, seals and failovers, the unsynced
// lag, the tombstones and the records awaiting erasure.
func TestStoreWritePathAccounting(t *testing.T) {
	// Eight events, one record each: e0–e4 in one partition, e5–e7 in the
	// next; e0 and e6 are alone under the two deleted prefixes.
	evs := make([]*core.Event, 8)
	for i := range evs {
		evs[i] = makeEventOn(i, i+30*(i/5))
	}
	doomed, doomedLater := netip.MustParsePrefix("10.0.0.0/24"), netip.MustParsePrefix("10.1.6.0/24")
	// The first segment fills exactly with e3: e0, e1, the tombstone, e2, e3.
	full := int64(len(segMagic))
	for _, payload := range [][]byte{
		EncodeEvent(nil, evs[0]), EncodeEvent(nil, evs[1]), encodeTombstone(nil, Tombstone{Prefix: doomed}),
		EncodeEvent(nil, evs[2]), EncodeEvent(nil, evs[3]),
	} {
		full += recordHeaderBytes + int64(len(payload))
	}

	steps := []string{
		"append e0 e1", "delete", "append e2 e3 e4 (size seal after e3)", "append e5 (partition roll)",
		"append e6 e7 (e7's write fails)", "append e7 (failover)", "interval deadline", "delete, sync", "close",
	}
	for _, tc := range []struct {
		name string
		pol  SyncPolicy
		want []string // one row per step
	}{
		{"close", SyncPolicy{}, []string{
			"fsyncs=0/0 batches=0/0 seals=0 failovers=0 unsynced=2 tombstones=0 pending=0",
			"fsyncs=0/0 batches=0/0 seals=0 failovers=0 unsynced=3 tombstones=1 pending=1",
			"fsyncs=1/1 batches=0/0 seals=1 failovers=0 unsynced=1 tombstones=1 pending=1",
			"fsyncs=2/2 batches=0/0 seals=2 failovers=0 unsynced=1 tombstones=1 pending=1",
			"fsyncs=2/2 batches=0/0 seals=2 failovers=0 unsynced=2 tombstones=1 pending=1",
			"fsyncs=3/3 batches=0/0 seals=3 failovers=1 unsynced=1 tombstones=1 pending=1",
			"fsyncs=3/3 batches=0/0 seals=3 failovers=1 unsynced=1 tombstones=1 pending=1",
			"fsyncs=4/4 batches=1/2 seals=3 failovers=1 unsynced=0 tombstones=2 pending=2",
			"fsyncs=5/5 batches=1/2 seals=3 failovers=1",
		}},
		{"always", SyncPolicy{EveryN: 1}, []string{
			"fsyncs=1/1 batches=1/2 seals=0 failovers=0 unsynced=0 tombstones=0 pending=0",
			"fsyncs=2/2 batches=2/3 seals=0 failovers=0 unsynced=0 tombstones=1 pending=1",
			"fsyncs=4/4 batches=3/4 seals=1 failovers=0 unsynced=0 tombstones=1 pending=1",
			"fsyncs=6/6 batches=4/5 seals=2 failovers=0 unsynced=0 tombstones=1 pending=1",
			"fsyncs=6/6 batches=4/5 seals=2 failovers=0 unsynced=1 tombstones=1 pending=1",
			"fsyncs=8/8 batches=5/6 seals=3 failovers=1 unsynced=0 tombstones=1 pending=1",
			"fsyncs=8/8 batches=5/6 seals=3 failovers=1 unsynced=0 tombstones=1 pending=1",
			"fsyncs=10/10 batches=6/7 seals=3 failovers=1 unsynced=0 tombstones=2 pending=2",
			"fsyncs=11/11 batches=6/7 seals=3 failovers=1",
		}},
		{"every-3", SyncPolicy{EveryN: 3}, []string{
			"fsyncs=0/0 batches=0/0 seals=0 failovers=0 unsynced=2 tombstones=0 pending=0",
			"fsyncs=1/1 batches=1/3 seals=0 failovers=0 unsynced=0 tombstones=1 pending=1",
			"fsyncs=2/2 batches=1/3 seals=1 failovers=0 unsynced=1 tombstones=1 pending=1",
			"fsyncs=3/3 batches=1/3 seals=2 failovers=0 unsynced=1 tombstones=1 pending=1",
			"fsyncs=3/3 batches=1/3 seals=2 failovers=0 unsynced=2 tombstones=1 pending=1",
			"fsyncs=4/4 batches=1/3 seals=3 failovers=1 unsynced=1 tombstones=1 pending=1",
			"fsyncs=4/4 batches=1/3 seals=3 failovers=1 unsynced=1 tombstones=1 pending=1",
			"fsyncs=5/5 batches=2/5 seals=3 failovers=1 unsynced=0 tombstones=2 pending=2",
			"fsyncs=6/6 batches=2/5 seals=3 failovers=1",
		}},
		// An hour never passes here: the script fires the armed deadline.
		{"interval", SyncPolicy{Interval: time.Hour}, []string{
			"fsyncs=0/0 batches=0/0 seals=0 failovers=0 unsynced=2 tombstones=0 pending=0",
			"fsyncs=0/0 batches=0/0 seals=0 failovers=0 unsynced=3 tombstones=1 pending=1",
			"fsyncs=1/1 batches=0/0 seals=1 failovers=0 unsynced=1 tombstones=1 pending=1",
			"fsyncs=2/2 batches=0/0 seals=2 failovers=0 unsynced=1 tombstones=1 pending=1",
			"fsyncs=2/2 batches=0/0 seals=2 failovers=0 unsynced=2 tombstones=1 pending=1",
			"fsyncs=3/3 batches=0/0 seals=3 failovers=1 unsynced=1 tombstones=1 pending=1",
			"fsyncs=4/4 batches=1/1 seals=3 failovers=1 unsynced=0 tombstones=1 pending=1",
			"fsyncs=5/5 batches=2/2 seals=3 failovers=1 unsynced=0 tombstones=2 pending=2",
			"fsyncs=6/6 batches=2/2 seals=3 failovers=1",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := faultfs.New()
			inst := &Instruments{
				FsyncTotal:  &obs.Counter{},
				CommitBatch: obs.NewRegistry().Histogram("commit_batch", "", []float64{1, 4, 16}),
				Seals:       &obs.Counter{},
				Failovers:   &obs.Counter{},
			}
			s := openFaulted(t, t.TempDir(), fs, Options{
				MaxSegmentBytes: full,
				Policy:          Policy{Partition: testPartition},
				Sync:            tc.pol,
				Instruments:     inst,
			})
			defer s.Close()
			ok := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			var got []string
			record := func(withStats bool) {
				row := fmt.Sprintf("fsyncs=%d/%d batches=%d/%g seals=%d failovers=%d",
					fs.Ops(faultfs.OpSync), inst.FsyncTotal.Value(), inst.CommitBatch.Count(), inst.CommitBatch.Sum(),
					inst.Seals.Value(), inst.Failovers.Value())
				if withStats {
					st := s.Stats()
					row += fmt.Sprintf(" unsynced=%d tombstones=%d pending=%d", st.Unsynced, st.Tombstones, st.PendingErasure)
				}
				got = append(got, row)
			}

			ok(s.Append(evs[0], evs[1]))
			record(true)
			if n, err := s.DeletePrefix(doomed, time.Time{}); err != nil || n != 1 {
				t.Fatalf("DeletePrefix erased %d events: %v; want e0 alone", n, err)
			}
			record(true)
			ok(s.Append(evs[2], evs[3], evs[4]))
			record(true)
			ok(s.Append(evs[5]))
			record(true)
			fs.FailAt(faultfs.OpWrite, 2, nil)
			if err := s.Append(evs[6], evs[7]); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("append over the failed write returned %v", err)
			}
			if !s.Health().WoundedSegment {
				t.Fatal("a failed write left the active segment unwounded")
			}
			record(true)
			ok(s.Append(evs[7]))
			record(true)
			s.mu.Lock()
			deadline := s.syncTimer
			s.mu.Unlock()
			if deadline != nil {
				deadline.Reset(0)
				for give := time.Now().Add(5 * time.Second); s.Stats().Unsynced != 0; time.Sleep(time.Millisecond) {
					if time.Now().After(give) {
						t.Fatal("the fired deadline never synced")
					}
				}
			}
			record(true)
			if n, err := s.DeletePrefix(doomedLater, time.Time{}); err != nil || n != 1 {
				t.Fatalf("DeletePrefix erased %d events: %v; want e6 alone", n, err)
			}
			ok(s.Sync())
			record(true)
			ok(s.Close())
			record(false)

			if !slices.Equal(got, tc.want) {
				// The rows are the policy's arithmetic worked by hand; a
				// move in any of them is a change to what the write path
				// promises, not a new baseline to paste in.
				var b strings.Builder
				for i := range steps {
					fmt.Fprintf(&b, "\n  %-40s got  %s\n  %-40s want %s", steps[i], got[i], "", tc.want[i])
				}
				t.Errorf("under %+v the ledgers moved:%s", tc.pol, b.String())
			}
		})
	}
}

// TestFailoverSegmentTakesItsPartition: the fresh segment a failover
// starts is filed under the partition of the first event it takes, like
// any other — so the next event of that partition joins it instead of
// sealing it after one record. (The failover used to leave the segment's
// partition unset, and every event after it rolled the segment again.)
func TestFailoverSegmentTakesItsPartition(t *testing.T) {
	fs := faultfs.New()
	s := openFaulted(t, t.TempDir(), fs, Options{Policy: Policy{Partition: testPartition}})
	defer s.Close()
	if err := s.Append(makeEventOn(0, 0)); err != nil {
		t.Fatal(err)
	}
	fs.FailAt(faultfs.OpWrite, 1, nil)
	if err := s.Append(makeEventOn(1, 1)); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("append over the failed write returned %v", err)
	}
	for i := 1; i < 4; i++ {
		if err := s.Append(makeEventOn(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Segments != 2 {
		t.Errorf("one partition across a failover: %d segments, want 2 (the wounded one and its successor)", st.Segments)
	}
}
