package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
)

// MRT archives in → events out, with no world materialisation in the
// timed part: mrt read, stream merge and the §4.2 engine do the work.
const (
	detectScale = 0.2
	detectFrom  = 800
	detectTo    = 850
)

var (
	genUpdatesRE   = regexp.MustCompile(`wrote \d+ archives \((\d+) updates\)`)
	detectEventsRE = regexp.MustCompile(`bhdetect: (\d+) events`)
)

func runDetect(ctx context.Context, e *env) (*outcome, error) {
	out := newOutcome()
	seed := strconv.FormatInt(e.fixture, 10)
	scale := strconv.FormatFloat(detectScale, 'g', -1, 64)
	var (
		archives string
		updates  int
		ref      []byte
		reported int // the event count bhdetect logs
	)
	detectArgs := func(dir string) []string {
		return []string{"-in", dir, "-scale", scale, "-seed", seed, "-format", "csv"}
	}
	setupS, teardown, err := e.repeatSetup(ctx, "detect", func(ctx context.Context, dir string) (func(), error) {
		archives = filepath.Join(dir, "archives")
		gen, err := e.procs.runToExit(ctx, e.bin("bhgen"),
			"-out", archives, "-scale", scale, "-from", strconv.Itoa(detectFrom), "-to", strconv.Itoa(detectTo), "-seed", seed)
		if err != nil {
			return nil, err
		}
		m := genUpdatesRE.FindSubmatch(gen.stdout)
		if m == nil {
			return nil, fmt.Errorf("bhgen printed no update count: %s", gen.stdout)
		}
		updates, _ = strconv.Atoi(string(m[1]))
		// One warm run: pages the archives in and yields the reference CSV.
		warm, err := e.procs.runToExit(ctx, e.bin("bhdetect"), detectArgs(archives)...)
		if err != nil {
			return nil, err
		}
		ref, reported = warm.stdout, -1
		if m := detectEventsRE.FindStringSubmatch(warm.stderr); m != nil {
			reported, _ = strconv.Atoi(m[1])
		}
		return func() {}, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()

	events := bytes.Count(ref, []byte{'\n'}) - 1 // minus the header line
	if events <= 0 || events != reported {
		out.problemf("bhdetect wrote %d CSV rows but reported %d events", events, reported)
	}
	if updates == 0 {
		return nil, fmt.Errorf("bhgen wrote 0 updates")
	}
	e.checkGolden(out, "detect", ref)

	runs, err := runBatchLoop(ctx, e, out, 1, e.bin("bhdetect"), detectArgs(archives), ref)
	if err != nil {
		return nil, err
	}
	batchMetrics(out, runs, setupS, updates, events, len(ref))
	out.row("detect_updates_per_s", out.e2e["throughput_per_s"], "1/s")
	out.row("detect.updates_count", float64(updates), "count")
	out.row("detect.events_count", float64(events), "count")
	return out, nil
}
