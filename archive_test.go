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
	"bgpblackholing/internal/dictionary"
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

// WriteMRTArchives output is pinned byte for byte, covering every file
// name and every byte written. The 28 files other than ixps.json still
// hash to 4bd52a5c…, the digest taken before archives went through a
// buffered writer and a reused record scratch; ixps.json joined them
// later. The window comes from the replay's day-sharded workers, so the
// digest holds for every worker count (0 is one per CPU).
func TestWriteMRTArchivesDigestPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("archives a ten-day window")
	}
	const want = "f6dc8e80e41cb0799b34d71db1b8d203fcb6a5779d5e05a499329a031ffb11f6"
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

// LoadArchiveWorld gives back what WriteMRTArchives wrote: the pipeline's
// dictionary, and its IXP table with the three facts the engine reads.
func TestLoadArchiveWorldReadsTheWriter(t *testing.T) {
	p := smallPipeline(t)
	dir := t.TempDir()
	if _, err := p.WriteMRTArchives(dir, 800, 801); err != nil {
		t.Fatal(err)
	}
	dict, topo, err := LoadArchiveWorld(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := p.Dict.Save(&want); err != nil {
		t.Fatal(err)
	}
	if err := dict.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("the loaded dictionary saves different bytes")
	}
	if len(topo.IXPs) != len(p.Topo.IXPs) || len(topo.IXPs) == 0 {
		t.Fatalf("%d IXPs, want %d", len(topo.IXPs), len(p.Topo.IXPs))
	}
	for i, x := range topo.IXPs {
		w := p.Topo.IXPs[i]
		if x.ID != w.ID || x.RouteServerASN != w.RouteServerASN || x.PeeringLAN != w.PeeringLAN {
			t.Errorf("IXP %d: %+v, want id %d, route server %v, LAN %v", i, x, w.ID, w.RouteServerASN, w.PeeringLAN)
		}
	}
}

// archiveWorldDict is a dictionary.json that names IXP 2.
const archiveWorldDict = `{"version":1,"entries":[{"community":"59002:666","ixps":[2],"doc":"Web"}]}`

// ixpRows joins IXP records into an ixps.json array.
func ixpRows(rows ...string) string { return "[" + strings.Join(rows, ",") + "]" }

func ixpRow(id int, lan string) string {
	return fmt.Sprintf(`{"id":%d,"route_server_asn":%d,"peering_lan":%q}`, id, 59000+id, lan)
}

// writeArchiveWorld writes dictionary.json and ixps.json into a fresh
// directory; an empty text leaves its file out.
func writeArchiveWorld(t testing.TB, dict, ixps string) string {
	t.Helper()
	dir := t.TempDir()
	for name, text := range map[string]string{"dictionary.json": dict, "ixps.json": ixps} {
		if text == "" {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// Each refusal is an error that names its file, never a table the engine
// would index past or dereference.
func TestLoadArchiveWorldRefuses(t *testing.T) {
	good := []string{ixpRow(0, "23.0.0.0/22"), ixpRow(1, "23.1.0.0/22"), ixpRow(2, "23.2.0.0/22")}
	if _, topo, err := LoadArchiveWorld(writeArchiveWorld(t, archiveWorldDict, ixpRows(good...))); err != nil || len(topo.IXPs) != 3 {
		t.Fatalf("the well-formed table: %v", err)
	}
	for _, tc := range []struct {
		name, dict, ixps, file string
	}{
		{"no dictionary.json", "", ixpRows(good...), "dictionary.json"},
		{"no ixps.json", archiveWorldDict, "", "ixps.json"},
		{"broken dictionary", `{"version":1,`, ixpRows(good...), "dictionary.json"},
		{"broken table", archiveWorldDict, `[{"id":0,`, "ixps.json"},
		{"ids out of order", archiveWorldDict, ixpRows(good[1], good[0], good[2]), "ixps.json"},
		{"ids from 1", archiveWorldDict, ixpRows(ixpRow(1, "23.1.0.0/22"), ixpRow(2, "23.2.0.0/22"), ixpRow(3, "23.3.0.0/22")), "ixps.json"},
		{"null entry", archiveWorldDict, ixpRows(good[0], "null", good[2]), "ixps.json"},
		{"no LAN", archiveWorldDict, ixpRows(good[0], ixpRow(1, ""), good[2]), "ixps.json"},
		{"bad LAN", archiveWorldDict, ixpRows(good[0], ixpRow(1, "23.1.0.0/99"), good[2]), "ixps.json"},
		{"dictionary names a missing IXP", archiveWorldDict, ixpRows(good[:2]...), "ixps.json"},
		{"dictionary names a negative IXP", `{"version":1,"entries":[{"community":"1:666","ixps":[-1]}]}`, ixpRows(good...), "ixps.json"},
	} {
		_, _, err := LoadArchiveWorld(writeArchiveWorld(t, tc.dict, tc.ixps))
		if err == nil || !strings.Contains(err.Error(), tc.file) {
			t.Errorf("%s: err = %v, want an error naming %s", tc.name, err, tc.file)
		}
	}
}

// FuzzLoadArchiveWorld: over any ixps.json beside a dictionary that names
// IXP 2, LoadArchiveWorld never panics, refuses with an error naming
// ixps.json, and accepts only a table indexed by id that holds IXP 2 and
// valid LANs; what it accepts, saveIXPs writes back as a fixed point.
func FuzzLoadArchiveWorld(f *testing.F) {
	if _, err := dictionary.Load(strings.NewReader(archiveWorldDict)); err != nil {
		f.Fatal(err)
	}
	good := []string{ixpRow(0, "23.0.0.0/22"), ixpRow(1, "23.1.0.0/22"), ixpRow(2, "23.2.0.0/22")}
	f.Add(ixpRows(good...))
	f.Add(ixpRows(good[1], good[0], good[2]))
	f.Add(ixpRows(good[0], "null", good[2]))
	f.Add(ixpRows(good[0], ixpRow(1, ""), good[2]))
	f.Add(ixpRows(good[:2]...))
	f.Add(ixpRows(good[0], good[1], ixpRow(2, "23.2.0.1/22"), ixpRow(3, "2001:db8::/32")))
	f.Add(`null`)
	f.Add(`{broken`)
	load := func(t *testing.T, ixps string) (*Topology, error) {
		_, topo, err := LoadArchiveWorld(writeArchiveWorld(t, archiveWorldDict, ixps))
		return topo, err
	}
	save := func(t *testing.T, topo *Topology) string {
		var b bytes.Buffer
		if err := saveIXPs(&b, topo.IXPs); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	f.Fuzz(func(t *testing.T, in string) {
		topo, err := load(t, in)
		if err != nil {
			if !strings.Contains(err.Error(), "ixps.json") {
				t.Fatalf("refusal does not name ixps.json: %v", err)
			}
			return
		}
		if len(topo.IXPs) < 3 {
			t.Fatalf("accepted %d IXPs beside a dictionary that names IXP 2", len(topo.IXPs))
		}
		for i, x := range topo.IXPs {
			if x == nil || x.ID != i || !x.PeeringLAN.IsValid() {
				t.Fatalf("accepted entry %d as %+v", i, x)
			}
		}
		a := save(t, topo)
		again, err := load(t, a)
		if err != nil {
			t.Fatalf("refuses what saveIXPs wrote: %v\n%s", err, a)
		}
		if b := save(t, again); a != b {
			t.Fatalf("saveIXPs(load(saveIXPs(load(x)))) differs:\n%s\nvs\n%s", a, b)
		}
	})
}
