package bgpblackholing

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/mrt"
	"bgpblackholing/internal/store"
)

// An MRTSource over a pipe delivers each record as soon as its bytes are
// written: the reader's window is read-ahead, never a quantum it waits
// to fill. RedialSource.reseed and any live tail depend on it.
func TestMRTSourceTailsAPipe(t *testing.T) {
	pr, pw := io.Pipe()
	src := NewMRTSource(pr, "rrc00", PlatformRIS)
	w := mrt.NewWriter(pw)
	written := make(chan error, 1)
	next := make(chan *Elem)
	go func() {
		for {
			el, err := src.Next()
			if err != nil {
				if !errors.Is(err, io.EOF) {
					t.Errorf("Next: %v", err)
				}
				close(next)
				return
			}
			next <- el
		}
	}()
	for i := 0; i < 3; i++ {
		u := &bgp.Update{
			Time:      TimelineStart.Add(time.Duration(i) * time.Minute),
			PeerIP:    netip.MustParseAddr("22.0.1.1"),
			PeerAS:    65001,
			Announced: []netip.Prefix{netip.PrefixFrom(netip.AddrFrom4([4]byte{31, 0, 0, byte(i)}), 32)},
			Path:      bgp.NewPath(65001, 65002),
			NextHop:   netip.MustParseAddr("22.0.1.2"),
		}
		go func() { written <- w.WriteUpdate(u, netip.MustParseAddr("22.0.0.1"), 64900) }()
		// The pipe stays open and nothing else is written until the
		// record has come out the other end.
		select {
		case el := <-next:
			if el == nil || !el.Update.Time.Equal(u.Time) || el.Update.Announced[0] != u.Announced[0] {
				t.Fatalf("record %d: got %+v", i, el)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("record %d was written but Next is still waiting for more bytes", i)
		}
		if err := <-written; err != nil {
			t.Fatal(err)
		}
	}
	pw.Close()
	if el, ok := <-next; ok {
		t.Fatalf("element after close: %+v", el)
	}
}

// WriteMRTArchives output is pinned byte for byte: the digest below was
// taken before archives went through a buffered writer and a reused
// record scratch, and covers every file name and every byte written.
// The window comes from the replay's day-sharded workers, so the digest
// holds for every worker count (0 is one per CPU).
func TestWriteMRTArchivesDigestPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("archives a ten-day window")
	}
	const want = "4bd52a5cdcbc147e9b2782a736087bea508690ad31d85ecc16de213a09b121c4"
	p := smallPipeline(t)
	for _, workers := range []int{0, 1, 4} {
		p.Opts.Workers = workers
		dir := t.TempDir()
		if _, err := p.WriteMRTArchives(dir, 800, 810); err != nil {
			t.Fatal(err)
		}
		names, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(names)
		h := sha256.New()
		for _, name := range names {
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s %d\n", filepath.Base(name), len(data))
			h.Write(data)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Fatalf("workers %d: archive digest %s, want %s (%d files)", workers, got, want, len(names))
		}
	}
}

// readArchiveDir reads every file in an archive directory.
func readArchiveDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(name)] = data
	}
	return out
}

// TestWriteMRTArchivesCrashBeforeCommit is the archive writer's row of
// internal/store's TestCommitCrashMatrix: a second run over a directory
// that holds a first, "crashed" at every file's pre-commit point. Each
// crash point holds exactly one in-flight file, under a name no reader
// globs; the file being committed still has the first run's bytes, and
// every other file is whole — the first run's or the second's. A write
// that fails leaves nothing in flight.
func TestWriteMRTArchivesCrashBeforeCommit(t *testing.T) {
	p := smallPipeline(t)
	dir := t.TempDir()
	if _, err := p.WriteMRTArchives(dir, 800, 802); err != nil {
		t.Fatal(err)
	}
	old := readArchiveDir(t, dir)

	var crashes []map[string][]byte
	store.CommitHook = func() { crashes = append(crashes, readArchiveDir(t, dir)) }
	defer func() { store.CommitHook = nil }()
	if _, err := p.WriteMRTArchives(dir, 802, 804); err != nil {
		t.Fatal(err)
	}
	store.CommitHook = nil
	fresh := readArchiveDir(t, dir)
	if len(crashes) != len(fresh) {
		t.Fatalf("%d commits for %d files", len(crashes), len(fresh))
	}
	for name := range fresh {
		if ok, _ := filepath.Match("*.tmp-*", name); ok {
			t.Errorf("a completed run left %s", name)
		}
	}
	changed := 0
	for i, crash := range crashes {
		var flying []string
		for name, data := range crash {
			if ok, _ := filepath.Match("seg-*.tmp-*", name); ok {
				flying = append(flying, name)
				if ok, _ := filepath.Match("*.mrt", name); ok {
					t.Errorf("crash %d: bhdetect's *.mrt glob would open %s", i, name)
				}
				continue
			}
			if o, f := old[name], fresh[name]; !bytes.Equal(data, o) && !bytes.Equal(data, f) {
				t.Errorf("crash %d: %s (%d bytes) is neither the first run's (%d) nor the second's (%d)", i, name, len(data), len(o), len(f))
			}
		}
		if len(flying) != 1 {
			t.Fatalf("crash %d holds in-flight files %v, want exactly one", i, flying)
		}
		final, _, _ := strings.Cut(strings.TrimPrefix(flying[0], "seg-"), ".tmp-")
		if !bytes.Equal(crash[final], old[final]) {
			t.Errorf("crash %d: %s changed before its commit", i, final)
		}
		if !bytes.Equal(crash[flying[0]], fresh[final]) {
			t.Errorf("crash %d: the in-flight %s is not the complete new %s", i, flying[0], final)
		}
		if !bytes.Equal(old[final], fresh[final]) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("the second window rewrote no file with new bytes; the matrix checked nothing")
	}

	// A failed commit: world.txt cannot be renamed onto a directory.
	blocked := t.TempDir()
	if err := os.Mkdir(filepath.Join(blocked, "world.txt"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := p.WriteMRTArchives(blocked, 800, 802); err == nil {
		t.Fatal("WriteMRTArchives over a blocked world.txt succeeded")
	}
	if left, _ := filepath.Glob(filepath.Join(blocked, "*.tmp-*")); len(left) != 0 {
		t.Errorf("a failed commit left %v", left)
	}
}
