package main

import (
	"bytes"
	"errors"
	"os"
	"runtime"
	"testing"
)

// TestReportGolden pins the science: every table and figure of a small
// fixed world must come out byte for byte as recorded, whatever the
// worker count (Options.Workers defaults to GOMAXPROCS). Regenerate
// testdata/report.seed42.golden only for a deliberate change of results:
//
//	go run ./cmd/bhreport -scale 0.05 -events 0.1 -full -seed 42
func TestReportGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/report.seed42.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		var got bytes.Buffer
		err := run(&got, 0.05, 0.1, 42, true, "")
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("GOMAXPROCS=%d: report differs from golden at line %d", procs, firstDiffLine(got.Bytes(), want))
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
