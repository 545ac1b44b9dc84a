package store

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// dirFiles reads every regular file in dir but the writer lock.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		if e.IsDir() || e.Name() == lockName {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// inFlightFiles lists the in-flight names in dir, sorted.
func inFlightFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if inFlight(e.Name()) {
			out = append(out, e.Name())
		}
	}
	return out
}

// appendEvents appends makeEvent(from..to) to s.
func appendEvents(t *testing.T, s *Store, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := s.Append(makeEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// buildSealedDir writes a closed store of n events in several sealed,
// sidecar-backed segments.
func buildSealedDir(t *testing.T, dir string, n int) {
	t.Helper()
	s, err := Open(dir, Options{MaxSegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	appendEvents(t, s, 0, n)
	if st := s.Stats(); st.Segments < 4 {
		t.Fatalf("builder produced only %d segments", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicateRetiresInFlightFiles: a replica is only ever opened
// read-only, so the pass that ships to it is also the one that sweeps
// what a crashed pass left in flight — under today's name or the
// "SHARD.tmp-*" older builds wrote.
func TestReplicateRetiresInFlightFiles(t *testing.T) {
	src, replica := t.TempDir(), filepath.Join(t.TempDir(), "replica")
	buildSealedDir(t, src, 60)
	if _, err := Replicate(src, replica); err != nil {
		t.Fatal(err)
	}
	clean := dirFiles(t, replica)
	planted := []string{"SHARD.tmp-123", "seg-00000001.log.tmp-9", "seg-00000001.sum.tmp-7"}
	for _, name := range planted {
		if err := os.WriteFile(filepath.Join(replica, name), []byte("half a copy"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Replicate(src, replica)
	if err != nil {
		t.Fatal(err)
	}
	deleted := slices.Clone(rep.Deleted)
	slices.Sort(deleted)
	if !slices.Equal(deleted, planted) || len(rep.Copied) != 0 {
		t.Errorf("pass over planted in-flight files: deleted %v, copied %v; want %v deleted and nothing copied", rep.Deleted, rep.Copied, planted)
	}
	after := dirFiles(t, replica)
	if len(after) != len(clean) {
		t.Errorf("replica holds %d files after the pass, %d before the planting", len(after), len(clean))
	}
	for name, data := range clean {
		if !bytes.Equal(after[name], data) {
			t.Errorf("%s changed under the sweep", name)
		}
	}
}

// TestOpenSweepsStrayIdentityTemp: a store directory that was once a
// replica target may hold the pre-CommitFile "SHARD.tmp-*"; it is
// in-flight like any other — ignored read-only, removed read-write.
func TestOpenSweepsStrayIdentityTemp(t *testing.T) {
	dir := t.TempDir()
	buildSealedDir(t, dir, 60)
	stray := filepath.Join(dir, "SHARD.tmp-123")
	if err := os.WriteFile(stray, []byte("prefix:8:3 1\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{ReadOnly: true}, {ReadOnly: true, Mmap: true}} {
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("open %+v: %v", opts, err)
		}
		if s.Len() != 60 || s.Identity() != "" {
			t.Errorf("open %+v: %d events, identity %q; want 60 and none", opts, s.Len(), s.Identity())
		}
		s.Close()
		if _, err := os.Stat(stray); err != nil {
			t.Fatalf("a read-only open touched %s: %v", stray, err)
		}
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 60 || s.Identity() != "" {
		t.Errorf("read-write open: %d events, identity %q; want 60 and none", s.Len(), s.Identity())
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Errorf("read-write open left %s: %v", stray, err)
	}
}

// commitCase is one publisher, arranged and about to publish.
type commitCase struct {
	publish func() error
	// final is the name publish commits first; want is what a reader of
	// the directory must see while that commit is in flight.
	final string
	want  []string
	// src is set when the directory is a replica of src: it is recovered
	// by the next Replicate pass, never by a read-write open.
	src string
}

// commitPublishers arranges each publisher of a store or replica
// directory over dir. (The fifth, the MRT archive writer, lives in the
// root package; its row is TestWriteMRTArchivesCrashBeforeCommit
// there.)
var commitPublishers = []struct {
	name    string
	arrange func(t *testing.T, dir string) commitCase
}{
	{"compaction segment", func(t *testing.T, dir string) commitCase {
		buildSealedDir(t, dir, 60)
		s, err := Open(dir, Options{MaxSegmentBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		sealed := s.sealed
		pol := Policy{SizeRatio: 1e9, MinRun: 2}
		return commitCase{
			publish: func() error { _, err := s.Compact(pol); return err },
			final:   segName(sealed[len(sealed)-1].seq),
			want:    encodedSet(s),
		}
	}},
	{"seal sidecar", func(t *testing.T, dir string) commitCase {
		s, err := Open(dir, Options{MaxSegmentBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		// Fill the first segment to one record short of its seal.
		i := 0
		for ; s.active.size+int64(len(appendRecord(nil, EncodeEvent(nil, makeEvent(i))))) < s.opts.MaxSegmentBytes; i++ {
			appendEvents(t, s, i, i+1)
		}
		want := append(encodedSet(s), string(EncodeEvent(nil, makeEvent(i))))
		slices.Sort(want)
		return commitCase{
			publish: func() error { return s.Append(makeEvent(i)) },
			final:   sumName(1),
			want:    want,
		}
	}},
	{"heal sidecar", func(t *testing.T, dir string) commitCase {
		buildSealedDir(t, dir, 60)
		for _, p := range sidecarFiles(t, dir) {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
		}
		ro, err := Open(dir, Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		defer ro.Close()
		return commitCase{
			publish: func() error {
				s, err := Open(dir, Options{})
				if err != nil {
					return err
				}
				return s.Close()
			},
			final: sumName(1),
			want:  encodedSet(ro),
		}
	}},
	{"identity stamp", func(t *testing.T, dir string) commitCase {
		buildSealedDir(t, dir, 60)
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return commitCase{
			publish: func() error { return s.SetIdentity("prefix:8:3 1") },
			final:   identityName,
			want:    encodedSet(s),
		}
	}},
	{"replica copy", func(t *testing.T, dir string) commitCase {
		// The replica holds a first pass; the source's active segment
		// has grown and rolled since, so the next pass starts by
		// re-shipping that segment over the replica's shorter copy.
		src := t.TempDir()
		s, err := Open(src, Options{MaxSegmentBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		appendEvents(t, s, 0, 40)
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		want, active := encodedSet(s), segName(s.active.seq)
		if _, err := Replicate(src, dir); err != nil {
			t.Fatal(err)
		}
		appendEvents(t, s, 40, 90)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return commitCase{
			publish: func() error { _, err := Replicate(src, dir); return err },
			final:   active,
			want:    want,
			src:     src,
		}
	}},
}

// TestCommitCrashMatrix crashes every publisher at CommitFile's one
// pre-commit point — the in-flight file complete, the rename not done —
// and checks the same three things of each: the directory holds exactly
// one in-flight file, under the normative name, and the final name is
// untouched; a read-only open sees the old state bit for bit and
// changes nothing; the next writer's pass (a read-write open, or
// Replicate over a replica) leaves no in-flight file and loses nothing.
func TestCommitCrashMatrix(t *testing.T) {
	for _, pub := range commitPublishers {
		t.Run(pub.name, func(t *testing.T) {
			dir := t.TempDir()
			c := pub.arrange(t, dir)
			before, hadFinal := dirFiles(t, dir)[c.final]

			var snap string
			CommitHook = func() {
				if snap == "" {
					snap = copySnapshot(t, dir)
				}
			}
			defer func() { CommitHook = nil }()
			if err := c.publish(); err != nil {
				t.Fatalf("publish: %v", err)
			}
			if snap == "" {
				t.Fatal("publish never reached CommitFile's hook")
			}
			if left := inFlightFiles(t, dir); len(left) != 0 {
				t.Errorf("a completed publish left %v", left)
			}

			crashed := dirFiles(t, snap)
			flying := inFlightFiles(t, snap)
			if len(flying) != 1 {
				t.Fatalf("crash point holds in-flight files %v, want exactly one", flying)
			}
			if ok, _ := filepath.Match("seg-*.tmp-*", flying[0]); !ok {
				t.Errorf("in-flight file %s is not FORMAT.md's seg-*.tmp-*", flying[0])
			}
			if ok, _ := filepath.Match(inFlightPattern(c.final), flying[0]); !ok {
				t.Fatalf("in-flight file %s is not %s's", flying[0], c.final)
			}
			if after, ok := crashed[c.final]; ok != hadFinal || !bytes.Equal(after, before) {
				t.Errorf("%s changed before its commit (present %v → %v, %d → %d bytes)", c.final, hadFinal, ok, len(before), len(after))
			}

			for _, opts := range []Options{{ReadOnly: true}, {ReadOnly: true, Mmap: true}} {
				ro, err := Open(snap, opts)
				if err != nil {
					t.Fatalf("open %+v at the crash point: %v", opts, err)
				}
				if got := encodedSet(ro); !slices.Equal(got, c.want) {
					t.Errorf("open %+v at the crash point sees %d events, want the %d before the publish", opts, len(got), len(c.want))
				}
				if ro.Identity() != "" {
					t.Errorf("open %+v at the crash point reads identity %q from an uncommitted stamp", opts, ro.Identity())
				}
				ro.Close()
			}
			for name, data := range dirFiles(t, snap) {
				if !bytes.Equal(data, crashed[name]) {
					t.Errorf("a read-only open changed %s", name)
				}
			}
			if left := inFlightFiles(t, snap); !slices.Equal(left, flying) {
				t.Errorf("a read-only open swept %v down to %v", flying, left)
			}

			if c.src != "" {
				rep, err := Replicate(c.src, snap)
				if err != nil {
					t.Fatalf("Replicate over the crashed replica: %v", err)
				}
				if !slices.Contains(rep.Deleted, flying[0]) {
					t.Errorf("the next pass deleted %v, not the in-flight %s", rep.Deleted, flying[0])
				}
				src, got := dirFiles(t, c.src), dirFiles(t, snap)
				if len(got) != len(src) {
					t.Errorf("recovered replica holds %d files, its source %d", len(got), len(src))
				}
				for name, data := range src {
					if !bytes.Equal(got[name], data) {
						t.Errorf("recovered replica's %s differs from its source's", name)
					}
				}
			} else {
				rw, err := Open(snap, Options{MaxSegmentBytes: 1024})
				if err != nil {
					t.Fatalf("read-write open at the crash point: %v", err)
				}
				if got := encodedSet(rw); !slices.Equal(got, c.want) {
					t.Errorf("read-write open at the crash point sees %d events, want %d", len(got), len(c.want))
				}
				if err := rw.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if left := inFlightFiles(t, snap); len(left) != 0 {
				t.Errorf("recovery left %v in flight", left)
			}
		})
	}
}

// TestCommitFileFailureLeavesNoTemp: whatever fails — the write, the
// flush behind it, the rename — the in-flight file is gone and the
// final name is what it was. Every publisher is a CommitFile call, so
// this is the one place the rule lives; writeSidecar, which used to
// keep its temp after a failed rename, is driven directly too.
func TestCommitFileFailureLeavesNoTemp(t *testing.T) {
	boom := errors.New("boom")
	for _, d := range []bool{false, true} {
		dir := t.TempDir()
		if err := CommitFile(dir, "SHARD", d, func(w *bufio.Writer) error {
			_, err := w.WriteString("old\n")
			return err
		}); err != nil {
			t.Fatal(err)
		}
		// A write that fails after filling more than the buffer.
		err := CommitFile(dir, "SHARD", d, func(w *bufio.Writer) error {
			w.Write(make([]byte, 200<<10))
			return boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("durable=%v: failed write returned %v", d, err)
		}
		// A rename that fails: the callback puts a directory in the way.
		err = CommitFile(dir, "seg-00000001.sum", d, func(w *bufio.Writer) error {
			return os.Mkdir(filepath.Join(dir, "seg-00000001.sum"), 0o755)
		})
		if err == nil {
			t.Errorf("durable=%v: rename onto a directory succeeded", d)
		}
		if err := writeSidecar(dir, &segSummary{seq: 1}); err == nil {
			t.Errorf("durable=%v: writeSidecar onto a directory succeeded", d)
		}
		files := dirFiles(t, dir)
		if len(files) != 1 || string(files["SHARD"]) != "old\n" {
			t.Errorf("durable=%v: failures left %d files, SHARD = %q; want only the old SHARD", d, len(files), files["SHARD"])
		}
	}
}
