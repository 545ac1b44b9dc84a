package main

import (
	"bytes"
	"errors"
	"net/netip"
	"strings"
	"testing"
	"time"

	"bgpblackholing"
)

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
