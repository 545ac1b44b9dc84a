package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bgpblackholing"
)

// archives writes bhgen's archives for days 830–850 of the seed's world
// at scale 0.1 — what `bhgen -scale 0.1 -from 830 -to 850` writes.
func archives(t *testing.T, seed int64) string {
	t.Helper()
	p, err := bgpblackholing.NewPipeline(bgpblackholing.Options{
		Seed: seed, TopoScale: 0.1, CollectorScale: 0.1, EventScale: 0.2, Days: 850,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := p.WriteMRTArchives(dir, 830, 850); err != nil {
		t.Fatal(err)
	}
	return dir
}

// The CSV is pinned byte for byte at two seeds; testdata holds what the
// binary printed before its JSON form changed.
func TestDetectGolden(t *testing.T) {
	for _, seed := range []int64{11, 42} {
		var out bytes.Buffer
		if err := run(&out, archives(t, seed), "csv"); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(fmt.Sprintf("testdata/detect.seed%d.golden", seed))
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Bytes(); !bytes.Equal(got, want) {
			gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := range min(len(gl), len(wl)) {
				if gl[i] != wl[i] {
					t.Fatalf("seed %d: line %d is\n%s\nwant\n%s", seed, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("seed %d: %d lines, want %d", seed, len(gl), len(wl))
		}
	}
}

// The archive directory's name is a name, not a pattern: a copy of the
// archives under a name glob reads as a character class gives the same
// CSV.
func TestDetectReadsADirectoryNamedLikeAPattern(t *testing.T) {
	dir := archives(t, 11)
	copied := filepath.Join(t.TempDir(), "gl[1]")
	if err := os.CopyFS(copied, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := run(&want, dir, "csv"); err != nil {
		t.Fatal(err)
	}
	if err := run(&got, copied, "csv"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) || want.Len() == 0 {
		t.Fatalf("%s: %d CSV bytes, the original directory %d", copied, got.Len(), want.Len())
	}
}

// An unknown -format is refused before anything is opened: run reports
// the format, not the missing archive directory it would replay first.
func TestRunRefusesFormatBeforeReplay(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, filepath.Join(t.TempDir(), "missing"), "xml")
	if err == nil || !strings.Contains(err.Error(), `unknown format "xml"`) {
		t.Fatalf("run with format xml: err = %v, want the unknown-format error", err)
	}
	if out.Len() != 0 {
		t.Fatalf("run wrote %q before refusing the format", out.String())
	}
}

// The archive directory is the whole input: without its IXP table, or
// with a dictionary that names an IXP the table lacks, run fails with an
// error naming the file instead of inferring fewer events.
func TestRunRefusesAnIncompleteWorld(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(dir string) error
	}{
		{"no ixps.json", func(dir string) error { return os.Remove(filepath.Join(dir, "ixps.json")) }},
		{"the table keeps only IXP 0", func(dir string) error {
			b, err := os.ReadFile(filepath.Join(dir, "ixps.json"))
			if err != nil {
				return err
			}
			var ixps []json.RawMessage
			if err := json.Unmarshal(b, &ixps); err != nil {
				return err
			}
			b, err = json.Marshal(ixps[:1])
			if err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(dir, "ixps.json"), b, 0o644)
		}},
	} {
		dir := archives(t, 42)
		if err := tc.damage(dir); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err := run(&out, dir, "csv")
		if err == nil || !strings.Contains(err.Error(), "ixps.json") {
			t.Errorf("%s: err = %v, want an error naming ixps.json", tc.name, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s: run wrote %d bytes", tc.name, out.Len())
		}
	}
}

// -format json writes the read path's record lines: a store holding the
// run's events serves the same bytes on /events?format=ndjson.
func TestJSONIsTheStoresRecordLines(t *testing.T) {
	dir := archives(t, 11)
	events, err := detect(dir)
	if err != nil {
		t.Fatal(err)
	}
	var lines bytes.Buffer
	if err := writeEvents(&lines, "json", events); err != nil {
		t.Fatal(err)
	}
	st, err := bgpblackholing.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(events...); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	bgpblackholing.NewStoreHandler(st, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/events?format=ndjson", nil))
	if rec.Code != 200 {
		t.Fatalf("/events: %d %s", rec.Code, rec.Body)
	}
	got, want := strings.Split(lines.String(), "\n"), strings.Split(rec.Body.String(), "\n")
	if len(got) != len(want) || len(got) < 100 {
		t.Fatalf("bhdetect wrote %d lines, the store served %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("line %d:\nbhdetect %s\nstore    %s", i+1, got[i], want[i])
		}
	}
}

var errSink = errors.New("sink full")

// failAfter accepts n bytes, then fails every write — a closed pipe or
// a full disk behind stdout.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errSink
	}
	f.n -= len(p)
	return len(p), nil
}

func testEvents(n int) []*bgpblackholing.Event {
	start := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
	events := make([]*bgpblackholing.Event, n)
	for i := range events {
		events[i] = &bgpblackholing.Event{
			Prefix:     netip.PrefixFrom(netip.AddrFrom4([4]byte{31, byte(i >> 16), byte(i >> 8), byte(i)}), 32),
			Start:      start,
			End:        start.Add(time.Duration(i) * time.Second),
			Users:      []bgpblackholing.ASN{65001},
			Detections: i,
		}
	}
	return events
}

// A report that cannot be written in full is an error, whether the sink
// fails on the final flush (a short report fits the buffer) or in the
// middle of a long one.
func TestWriteEventsReturnsSinkErrors(t *testing.T) {
	for _, format := range []string{"csv", "json"} {
		for _, tc := range []struct {
			name           string
			events, accept int
		}{
			{"flush", 3, 0},
			{"mid-report", 5000, 100 << 10},
		} {
			err := writeEvents(&failAfter{n: tc.accept}, format, testEvents(tc.events))
			if !errors.Is(err, errSink) {
				t.Errorf("%s/%s: err = %v, want the sink's error", format, tc.name, err)
			}
		}
	}
	if err := writeEvents(&failAfter{n: 1 << 30}, "xml", nil); err == nil {
		t.Error("unknown format accepted")
	}
}

// Buffering changes how the report reaches stdout, not its bytes: in
// every format the report is the header and each event's row, appended
// on its own.
func TestWriteEventsMatchesUnbufferedOutput(t *testing.T) {
	events := testEvents(2000)
	for format, f := range formats {
		direct := []byte(f.header)
		for _, ev := range events {
			line, err := f.row(nil, ev)
			if err != nil {
				t.Fatal(err)
			}
			direct = append(direct, line...)
		}
		var buffered bytes.Buffer
		if err := writeEvents(&buffered, format, events); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(direct, buffered.Bytes()) {
			t.Fatalf("%s: buffered report differs from its rows", format)
		}
		if got, want := strings.Count(buffered.String(), "\n"), len(events)+strings.Count(f.header, "\n"); got != want {
			t.Fatalf("%s: %d lines, want %d (header + %d events)", format, got, want, len(events))
		}
	}
}
