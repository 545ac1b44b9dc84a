package bgpblackholing

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
)

// Detector.Run hands each archive element back to the stream it came
// from, which decodes a later record into it. A run whose elements are
// recycled must infer byte for byte what a run infers whose elements are
// all copies, so that none goes back, and it must allocate far less per
// update: a pass-through FilterSource hands elements back too, a copying
// MapSource does not. Filtered children of MergeSources keep their
// elements, and recycling a table dump's entries, each an element of its
// own, changes nothing either.
func TestRunRecyclesArchiveElements(t *testing.T) {
	if testing.Short() {
		t.Skip("archives a twenty-day window and replays it six times")
	}
	p := smallPipeline(t)
	dir := t.TempDir()
	if _, err := p.WriteMRTArchives(dir, 800, 820); err != nil {
		t.Fatal(err)
	}
	matches, err := archiveGlob(dir)
	if err != nil {
		t.Fatal(err)
	}
	dumps, err := filepath.Glob(filepath.Join(dir, "*.dump.mrt"))
	if err != nil || len(dumps) == 0 {
		t.Fatalf("no table dumps (%v)", err)
	}
	open := func(withDumps bool) []Source {
		t.Helper()
		paths := dumps[:0:0]
		if withDumps {
			paths = append(paths, dumps...)
		}
		for _, m := range matches {
			paths = append(paths, m.path)
		}
		var srcs []Source
		for _, path := range paths {
			src, err := OpenMRTSource(path, strings.TrimSuffix(strings.TrimSuffix(filepath.Base(path), ".mrt"), ".dump"), PlatformRIS)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { src.Close() })
			srcs = append(srcs, src)
		}
		return srcs
	}
	run := func(src Source) (lines []byte, bytesPerUpdate float64) {
		t.Helper()
		det := p.NewDetector()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := det.Run(context.Background(), src, WithFlushAt(TimelineStart.AddDate(0, 0, 821)))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Events) == 0 || res.Metrics.UpdatesProcessed == 0 {
			t.Fatalf("%d events from %d updates", len(res.Events), res.Metrics.UpdatesProcessed)
		}
		for _, ev := range res.Events {
			line, err := json.Marshal(NewEventRecord(ev))
			if err != nil {
				t.Fatal(err)
			}
			lines = append(append(lines, line...), '\n')
		}
		return lines, float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Metrics.UpdatesProcessed)
	}
	copying := func(src Source) Source {
		return MapSource(src, func(e *Elem) *Elem {
			c, u := *e, *e.Update
			c.Update = &u
			return &c
		})
	}
	passAll := func(src Source) Source { return FilterSource(src, func(*Elem) bool { return true }) }

	copied, copiedBytes := run(copying(MergeSources(open(false)...)))
	recycled, recycledBytes := run(MergeSources(open(false)...))
	filtered, filteredBytes := run(passAll(MergeSources(open(false)...)))
	children := open(false)
	for i, src := range children {
		children[i] = passAll(src)
	}
	childFiltered, _ := run(MergeSources(children...))
	t.Logf("bytes allocated per update: %.0f copied, %.0f recycled, %.0f through a filter", copiedBytes, recycledBytes, filteredBytes)
	for name, got := range map[string][]byte{"recycled": recycled, "filtered": filtered, "filtered children": childFiltered} {
		if !bytes.Equal(got, copied) {
			t.Fatalf("recycling elements changed the events:\n%s\n%s\ncopied\n%s", name, got, copied)
		}
	}
	dumpCopied, _ := run(copying(MergeSources(open(true)...)))
	if dumpRecycled, _ := run(MergeSources(open(true)...)); !bytes.Equal(dumpRecycled, dumpCopied) {
		t.Fatalf("recycling table-dump entries changed the events:\nrecycled\n%s\ncopied\n%s", dumpRecycled, dumpCopied)
	}
	if bytes.Equal(dumpCopied, copied) {
		t.Fatal("the table dumps changed no event")
	}

	if raceEnabled() {
		return // the race detector's shadow allocations swamp the bound
	}
	// Measured on the window above: ≈ 740 bytes per update copied, ≈ 470
	// where nothing goes back (each update then gets a fresh element and
	// fresh lists) and ≈ 100 recycled.
	const bound = 250
	if recycledBytes > bound || filteredBytes > bound {
		t.Fatalf("a run that hands its elements back allocates %.0f bytes per update (%.0f through a filter), want <= %d",
			recycledBytes, filteredBytes, bound)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}
