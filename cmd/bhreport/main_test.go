package main

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestReportGolden pins the science: every table and figure of a small
// fixed world must come out byte for byte as recorded, at two seeds,
// whatever the worker count (Options.Workers defaults to GOMAXPROCS) and
// however many sections render at once. Regenerate
// testdata/report.seed*.golden only for a deliberate change of results:
//
//	go run ./cmd/bhreport -scale 0.05 -events 0.1 -full -seed 42
func TestReportGolden(t *testing.T) {
	for _, seed := range []int64{42, 11} {
		want, err := os.ReadFile(fmt.Sprintf("testdata/report.seed%d.golden", seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			var got bytes.Buffer
			err := run(&got, 0.05, 0.1, seed, true, "")
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("seed %d, GOMAXPROCS=%d: %v", seed, procs, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("seed %d, GOMAXPROCS=%d: report differs from golden at line %d", seed, procs, firstDiffLine(got.Bytes(), want))
			}
		}
	}
}

func firstDiffLine(a, b []byte) int {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := range la {
		if i >= len(lb) || !bytes.Equal(la[i], lb[i]) {
			return i + 1
		}
	}
	return len(la) + 1
}

type failingWriter struct{ err error }

func (f failingWriter) Write([]byte) (int, error) { return 0, f.err }

// TestReportWriteError is the `bhreport > /dev/full` case: a report that
// cannot be written must fail the run.
func TestReportWriteError(t *testing.T) {
	boom := errors.New("disk full")
	if err := run(failingWriter{boom}, 0.05, 0.1, 42, false, ""); !errors.Is(err, boom) {
		t.Fatalf("run returned %v, want the writer's error", err)
	}
}

// TestReportCSV: -csv writes the five figure series files, each under its
// header, and events.csv holds one row per event the report inferred.
func TestReportCSV(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "csv")
	var out bytes.Buffer
	if err := run(&out, 0.05, 0.1, 42, true, dir); err != nil {
		t.Fatal(err)
	}
	var events int
	_, inferred, _ := strings.Cut(out.String(), "inferred ")
	if _, err := fmt.Sscanf(inferred, "%d blackholing events", &events); err != nil || events == 0 {
		t.Fatalf("the report names no event count: %v", err)
	}
	for name, header := range map[string]string{
		"figure4_daily.csv":                "day,providers,users,prefixes",
		"figure8_durations.csv":            "kind,seconds",
		"figure7b_providers_per_event.csv": "providers,count,fraction",
		"figure7c_as_distance.csv":         "distance,count,fraction",
		"events.csv":                       "prefix,start,end,duration_sec,n_providers,n_users,detections,start_unknown",
	} {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Error(err)
			continue
		}
		rows, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil || len(rows) < 2 || strings.Join(rows[0], ",") != header {
			t.Errorf("%s: %d rows, %v; want the header %q and data", name, len(rows), err, header)
			continue
		}
		if name == "events.csv" && len(rows)-1 != events {
			t.Errorf("events.csv holds %d rows, the report inferred %d events", len(rows)-1, events)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 5 {
		t.Errorf("-csv wrote %d files (%v), want 5", len(entries), err)
	}
}
