package store

// The segment ledger's law: what a live store holds about a segment —
// its description (size, earliest start, event records, dead records)
// and the Stats fields that are sums over descriptions — is what any
// reopen of the same directory derives from the files. The law is stated
// once, in ledgerOf, and checked three ways: on the one script that
// used to break it (a merge whose survivors a racing DeletePrefix
// erased), on that script's black-box consequence (the next tiered pass
// plans differently), and over seeded op sequences.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"bgpblackholing/internal/core"
	"bgpblackholing/internal/faultfs"
)

// ledgerOf renders the store's segment ledger: one line per segment,
// oldest first (the active one last, as a reopen lists it), then the
// segment-shaped Stats fields.
func ledgerOf(s *Store) []string {
	s.mu.RLock()
	segs := slices.Clone(s.sealed)
	if s.active != nil {
		segs = append(segs, s.active.segFile)
	}
	s.mu.RUnlock()
	var out []string
	for _, sf := range segs {
		out = append(out, fmt.Sprintf("seg %d: %+v", sf.seq, sf.segDesc))
	}
	st := s.Stats()
	return append(out, fmt.Sprintf("stats: events=%d segments=%d bytes=%d tombstones=%d pending=%d",
		st.Events, st.Segments, st.Bytes, st.Tombstones, st.PendingErasure))
}

// reopenModes are the read-only opens the law quantifies over: a
// sidecar-less copy decodes every segment, the others open cold.
var reopenModes = []struct {
	name string
	bare bool
	opts Options
}{
	{"sidecar-less", true, Options{ReadOnly: true}},
	{"cold", false, Options{ReadOnly: true}},
	{"cold+mmap", false, Options{ReadOnly: true, Mmap: true}},
}

// checkLedger syncs the live store and requires every reopen mode to
// derive its ledger.
func checkLedger(t *testing.T, what string, s *Store, dir string) {
	t.Helper()
	if err := s.Sync(); err != nil {
		t.Fatalf("%s: sync: %v", what, err)
	}
	want := ledgerOf(s)
	for _, mode := range reopenModes {
		d := dir
		if mode.bare {
			d = sidecarless(t, dir)
		}
		ro, err := Open(d, mode.opts)
		if err != nil {
			t.Fatalf("%s: %s reopen: %v", what, mode.name, err)
		}
		got := ledgerOf(ro)
		ro.Close()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: the live store and its %s reopen disagree\nlive:\n  %s\nreopened:\n  %s",
				what, mode.name, strings.Join(want, "\n  "), strings.Join(got, "\n  "))
		}
	}
}

var everythingV4 = netip.MustParsePrefix("0.0.0.0/0")

// mergeUnderErasure runs the script that split the ledger: two sealed
// segments of one partition, then a MergeAll whose survivors a
// DeletePrefix erases between the merge's commit and its swap.
func mergeUnderErasure(t *testing.T, dir string) (*Store, Options) {
	t.Helper()
	opts := Options{MaxSegmentBytes: 1024, Policy: Policy{Partition: testPartition, SizeRatio: 1e9, MinRun: 2}}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; len(s.sealed) < 2; i++ {
		if err := s.Append(makeEventOn(i, 3)); err != nil {
			t.Fatal(err)
		}
	}
	compactStageHook = func(stage string, _ uint64) {
		if stage != "post-commit" {
			return
		}
		if n, err := s.DeletePrefix(everythingV4, time.Time{}); err != nil || n == 0 {
			t.Errorf("racing DeletePrefix erased %d events: %v", n, err)
		}
	}
	defer func() { compactStageHook = nil }()
	if _, err := s.Compact(Policy{Partition: testPartition, MergeAll: true}); err != nil {
		t.Fatal(err)
	}
	return s, opts
}

// TestMergedSegmentDescribedAlike: the merged segment's survivors were
// all erased before the swap, so it holds event records and none is
// live. Its earliest start is still theirs — on the live store as on a
// reopen, which reads it from the records or from the sidecar.
func TestMergedSegmentDescribedAlike(t *testing.T) {
	dir := t.TempDir()
	s, _ := mergeUnderErasure(t, dir)
	defer s.Close()
	merged := s.sealed[0]
	if merged.events == 0 || merged.live() != 0 {
		t.Fatalf("setup: merged segment holds %d event records, %d live; want some, none live", merged.events, merged.live())
	}
	if want := makeEventOn(0, 3).Start.UnixNano(); merged.minStartNano != want {
		t.Errorf("merged segment's earliest start is %d, want its first record's %d", merged.minStartNano, want)
	}
	checkLedger(t, "after the merge", s, dir)
}

// TestCompactionPlanSurvivesReopen is the same divergence seen from
// outside: after the script, more events of the same partition seal
// into a further segment, and a tiered pass must plan the same merge
// whether or not the store was closed and reopened in between. (The
// live store used to file the merged segment in partition MaxInt64 /
// width and count two partitions.)
func TestCompactionPlanSurvivesReopen(t *testing.T) {
	plan := func(reopen bool) string {
		dir := t.TempDir()
		s, opts := mergeUnderErasure(t, dir)
		defer func() { s.Close() }()
		if reopen {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			var err error
			if s, err = Open(dir, opts); err != nil {
				t.Fatal(err)
			}
		}
		// IPv6 events: the tombstone in force covers every IPv4 prefix.
		for i, sealed := 0, len(s.sealed); len(s.sealed) == sealed; i++ {
			ev := makeEventOn(i, 4)
			ev.Prefix = netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0xd, 0xb8, byte(i)}), 48)
			if err := s.Append(ev); err != nil {
				t.Fatal(err)
			}
		}
		st, err := s.Compact(opts.Policy)
		if err != nil {
			t.Fatal(err)
		}
		if st.Partitions != 1 {
			t.Errorf("reopen=%v: the pass saw %d partitions; every event starts in one", reopen, st.Partitions)
		}
		return fmt.Sprintf("partitions=%d merged=%v skipped=%v", st.Partitions, st.Merged, st.Skipped)
	}
	if live, reopened := plan(false), plan(true); live != reopened {
		t.Errorf("a tiered pass plans differently on the live store and on its reopen:\n  live:     %s\n  reopened: %s", live, reopened)
	}
}

// TestSegmentLedgerLiveEqualsReopened drives seeded op sequences —
// batched appends across three partitions over tiny segments (with
// duplicates and dead-on-arrival records), DeletePrefix with and
// without a bound, sometimes racing a merge from the post-commit hook,
// tiered and MergeAll compaction, a close and read-write reopen, and
// one injected write failure that forces a failover seal — and checks
// the law after every step.
func TestSegmentLedgerLiveEqualsReopened(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	var wounded, raced int
	for seed := 0; seed < seeds; seed++ {
		w, r := ledgerSequence(t, int64(seed))
		if t.Failed() {
			t.Fatalf("seed %d failed", seed)
		}
		wounded, raced = wounded+w, raced+r
	}
	// The generator must keep reaching the rare paths.
	if wounded < seeds/4 || raced < seeds/4 {
		t.Errorf("%d sequences: only %d wounded an active segment, only %d merges raced a DeletePrefix", seeds, wounded, raced)
	}
}

// ledgerSequence runs one seeded sequence and reports how many appends
// left the active segment wounded and how many merges raced a
// DeletePrefix.
func ledgerSequence(t *testing.T, seed int64) (wounded, raced int) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	pol := Policy{Partition: testPartition, SizeRatio: 1e9, MinRun: 2}
	opts := Options{MaxSegmentBytes: 512, Policy: pol}
	fs := faultfs.New()
	s := openFaulted(t, dir, fs, opts)
	defer func() { s.Close() }()

	next := 0 // makeEventOn index of the next fresh event
	randomDelete := func() {
		// makeEvent spreads prefixes over 10.{0..4}.x.0/24.
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(rng.Intn(5)), 0, 0}), 16)
		if rng.Intn(8) == 0 {
			p = everythingV4
		}
		var upTo time.Time
		if rng.Intn(2) == 0 {
			upTo = partitionedEpoch.Add(time.Duration(rng.Intn(90)) * 24 * time.Hour)
		}
		if _, err := s.DeletePrefix(p, upTo); err != nil {
			t.Errorf("seed %d: DeletePrefix(%v, %v): %v", seed, p, upTo, err)
		}
	}
	failAt := 2 + rng.Intn(8) // the step whose append meets the write failure
	for step := 0; step < 12 && !t.Failed(); step++ {
		what := fmt.Sprintf("seed %d step %d", seed, step)
		op := rng.Intn(10)
		if step == failAt {
			op = 0
			fs.FailAt(faultfs.OpWrite, 1+rng.Intn(3), nil)
		}
		switch {
		case op < 5: // a batch, one partition per event, now and then a duplicate
			n := 1 + rng.Intn(6)
			if step == failAt {
				n = 6 // enough writes for the armed failure to land in this batch
			}
			var batch []*core.Event
			for ; n > 0; n-- {
				i, dup := next, next > 0 && rng.Intn(5) == 0
				if dup {
					i = rng.Intn(next)
				} else {
					next++
				}
				ev := makeEventOn(i, 30*(i%3)+i%5)
				if dup {
					ev.End = ev.End.Add(time.Hour) // the longer close supersedes
				}
				batch = append(batch, ev)
			}
			what += fmt.Sprintf(" (append %d)", len(batch))
			err := s.Append(batch...)
			if step == failAt {
				if !errors.Is(err, faultfs.ErrInjected) {
					t.Errorf("%s: append over the injected failure returned %v", what, err)
				}
				if s.Health().WoundedSegment {
					wounded++
				}
			} else if err != nil {
				t.Errorf("%s: %v", what, err)
			}
		case op < 7:
			what += " (delete)"
			randomDelete()
		case op < 9:
			cp := pol
			cp.MergeAll = op == 8
			if rng.Intn(2) == 0 {
				compactStageHook = func(stage string, _ uint64) {
					if stage == "post-commit" {
						raced++
						randomDelete()
					}
				}
			}
			what += fmt.Sprintf(" (compact mergeAll=%v racing=%v)", cp.MergeAll, compactStageHook != nil)
			_, err := s.Compact(cp)
			compactStageHook = nil
			if err != nil {
				t.Errorf("%s: %v", what, err)
			}
		default:
			what += " (reopen)"
			if err := s.Close(); err != nil {
				t.Errorf("%s: close: %v", what, err)
			}
			ro := opts
			ro.Mmap = rng.Intn(2) == 0
			s = openFaulted(t, dir, fs, ro)
		}
		checkLedger(t, what, s, dir)
	}
	return wounded, raced
}

// storeDirectoryGolden is the SHA-256 of every file goldenScript leaves,
// recorded when events started to be written as the 0x03 layout, once
// the directory the 0x01 writer left and this one had decoded to the
// same records, file by file, every event field equal but the dropped
// distance list.
var storeDirectoryGolden = map[string]string{
	"seg-00000002.log": "c4fd94fad55759957c72d8153f189d8b0060b754e67be5874d7627bcd6fce826",
	"seg-00000002.sum": "628f9ddf7aa3c88bf3c95406729b619a8d36beb3d7424fd745e66ec641a06663",
	"seg-00000004.log": "ed014ccbbe9e19302005fef41504c6d7b4cce3167d92800c309adf44675d35df",
	"seg-00000004.sum": "39c21be8c22c55f96a638282df7ac9118d43b2079bcbe8a307594f9cc4034f11",
	"seg-00000008.log": "cfe7fd3f10afc14445a0bb232ddb33aa96561f0e0a3867e2ac78ff86c6af85de",
	"seg-00000008.sum": "252b2e97727d043a54cbf56538bcff99c7b5e7481f4b2bff5e6e20cc74d8108b",
	"seg-00000009.log": "e642427258c2224e04dbd4ad2d849779f89af83fbebd0a9e9764d89136482a6f",
	"seg-00000009.sum": "591f2319e5278e30c5cad75dc20622f9c4c5708c38e84ee9a6d9ae7c3cd92a0c",
	"seg-00000010.log": "eb1641405c40a4174c86b86fd0925047b269cbf6339d040fcb9ae3ee5ca1c43f",
}

// goldenScript exercises every writer of a segment or sidecar byte:
// appends over three partitions, both shapes of DeletePrefix (with
// dead-on-arrival records after them), seals, a tiered pass, a MergeAll
// pass, and a read-write reopen that heals a deleted sidecar.
func goldenScript(t *testing.T, dir string) {
	t.Helper()
	pol := Policy{Partition: testPartition, SizeRatio: 1e9, MinRun: 2}
	opts := Options{MaxSegmentBytes: 1024, Policy: pol}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	appendOn := func(from, to, day int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := s.Append(makeEventOn(i, day+i%5)); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendOn(0, 14, 2)
	if _, err := s.DeletePrefix(netip.MustParsePrefix("10.2.0.0/16"), partitionedEpoch.Add(40*24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	appendOn(14, 33, 31)
	if _, err := s.DeletePrefix(netip.MustParsePrefix("10.3.0.0/16"), time.Time{}); err != nil {
		t.Fatal(err)
	}
	appendOn(33, 45, 62)
	if _, err := s.Compact(pol); err != nil {
		t.Fatal(err)
	}
	appendOn(45, 58, 63)
	appendOn(58, 61, 33) // a late arrival: one more partition-1 block after partition 2's
	if _, err := s.Compact(Policy{Partition: testPartition, MergeAll: true}); err != nil {
		t.Fatal(err)
	}
	appendOn(61, 70, 64)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sums := sidecarFiles(t, dir)
	if len(sums) < 3 {
		t.Fatalf("script left only %d sidecars", len(sums))
	}
	sort.Strings(sums)
	if err := os.Remove(sums[1]); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if healed := sidecarFiles(t, dir); len(healed) != len(sums) {
		t.Fatalf("the read-write reopen left %d sidecars, want the %d before the deletion", len(healed), len(sums))
	}
}

// TestStoreDirectoryGolden is "on-disk bytes unchanged" in executable
// form: file names and contents, segments and sidecars. Sidecar bytes
// are deterministic — bloom adds commute, others and applied are
// ordered — so a digest pins them.
func TestStoreDirectoryGolden(t *testing.T) {
	dir := t.TempDir()
	goldenScript(t, dir)
	got := map[string]string{}
	for name, data := range dirFiles(t, dir) {
		got[name] = fmt.Sprintf("%x", sha256.Sum256(data))
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	bad := len(got) != len(storeDirectoryGolden)
	for _, name := range names {
		if got[name] != storeDirectoryGolden[name] {
			bad = true
		}
	}
	if bad {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "\t%q: %q,\n", name, got[name])
		}
		t.Fatalf("the directory's bytes moved (want %d files); the script now leaves:\n%s", len(storeDirectoryGolden), b.String())
	}
}

// TestSidecarWritersAgree: a segment summarized at each of the three
// moments a sidecar is written — its seal, a heal after the sidecar is
// deleted, a MergeAll of that segment alone — gets the same summary.
// The merge prepends a marker record, so its sizes grow by exactly that
// record and its others gain exactly that payload; nothing else moves.
func TestSidecarWritersAgree(t *testing.T) {
	dir := t.TempDir()
	opts := Options{MaxSegmentBytes: 2048}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Two tombstones that kill nothing here: a non-empty applied set and
	// two non-event records in the segment, and no dead record for the
	// merge to drop.
	for _, p := range []string{"192.168.0.0/16", "2001:db8::/32"} {
		if _, err := s.DeletePrefix(netip.MustParsePrefix(p), time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; len(s.sealed) == 0; i++ {
		if err := s.Append(makeEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	load := func(when string) *segSummary {
		t.Helper()
		m, err := loadSidecar(sumPath(dir, 1))
		if err != nil {
			t.Fatalf("sidecar after %s: %v", when, err)
		}
		sort.Slice(m.applied, func(i, j int) bool { return string(m.applied[i]) < string(m.applied[j]) })
		return m
	}
	sealed := load("seal")
	if sealed.events == 0 || len(sealed.others) != 2 || len(sealed.applied) != 2 {
		t.Fatalf("setup: sealed summary holds %d events, %d others, %d applied", sealed.events, len(sealed.others), len(sealed.applied))
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(sumPath(dir, 1)); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	healed := load("heal")
	if !sameSummary(healed, sealed) {
		t.Errorf("heal and seal summarize segment 1 differently:\n  seal: %+v\n  heal: %+v", sealed, healed)
	}

	if st, err := s.Compact(Policy{MergeAll: true}); err != nil || !slices.Equal(st.Merged, []uint64{1}) {
		t.Fatalf("MergeAll of the single sealed segment: %+v, %v", st, err)
	}
	merged := load("merge")
	marker := appendMarkerV2(nil, nil)
	grown := int64(len(appendRecord(nil, marker)))
	if len(merged.others) != 3 || string(merged.others[0]) != string(marker) ||
		merged.size != sealed.size+grown || merged.fileSize != sealed.fileSize+grown {
		t.Fatalf("the merge's summary is not the seal's plus one marker record: others %d, size %d → %d, file size %d → %d",
			len(merged.others), sealed.size, merged.size, sealed.fileSize, merged.fileSize)
	}
	merged.others = merged.others[1:]
	merged.size, merged.fileSize = sealed.size, sealed.fileSize
	if !sameSummary(merged, sealed) {
		t.Errorf("merge and seal summarize segment 1 differently:\n  seal:  %+v\n  merge: %+v", sealed, merged)
	}
}

// sameSummary compares two summaries through their encoding (callers
// have put the applied sets in one order).
func sameSummary(a, b *segSummary) bool {
	return string(encodeSummary(a)) == string(encodeSummary(b))
}
