package bgpblackholing

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/mrt"
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
func TestWriteMRTArchivesDigestPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("archives a ten-day window")
	}
	const want = "4bd52a5cdcbc147e9b2782a736087bea508690ad31d85ecc16de213a09b121c4"
	p := smallPipeline(t)
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
		t.Fatalf("archive digest %s, want %s (%d files)", got, want, len(names))
	}
}
