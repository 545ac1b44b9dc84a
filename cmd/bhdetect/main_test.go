package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"net/netip"
	"os"
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
		if err := run(&out, archives(t, seed), 0.1, seed, "csv"); err != nil {
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

// -format json writes the read path's record lines: a store holding the
// run's events serves the same bytes on /events?format=ndjson.
func TestJSONIsTheStoresRecordLines(t *testing.T) {
	dir := archives(t, 11)
	events, err := detect(dir, 0.1, 11)
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

// Buffering changes how the report reaches stdout, not its bytes.
func TestWriteEventsMatchesUnbufferedOutput(t *testing.T) {
	events := testEvents(2000)
	var direct, buffered bytes.Buffer
	if err := writeCSV(&direct, events); err != nil {
		t.Fatal(err)
	}
	if err := writeEvents(&buffered, "csv", events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), buffered.Bytes()) {
		t.Fatal("buffered CSV differs from direct CSV")
	}
	if got := strings.Count(buffered.String(), "\n"); got != len(events)+1 {
		t.Fatalf("%d lines, want header + %d events", got, len(events))
	}
}
