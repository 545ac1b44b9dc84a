package main

import (
	"bytes"
	"context"
	"fmt"
	"regexp"
	"runtime"
	"strconv"
	"time"
)

// The researcher's command: the whole Dec 2014 – Mar 2017 timeline
// replayed into every table and figure, exec→exit. Sized so one exec
// takes about two seconds on a 2-core box and a run fits several.
func reportArgs(seed int64) []string {
	return []string{"-scale", "0.1", "-events", "0.2", "-full", "-seed", strconv.FormatInt(seed, 10)}
}

var inferredRE = regexp.MustCompile(`(?m)^inferred (\d+) blackholing events$`)

// batchRun is one exec of the timed phase and the reference reading
// beside it: the mean of the one taken before and the one taken after.
type batchRun struct {
	*batchResult
	reading time.Duration
}

// runBatchLoop execs the command again and again until the timed
// phase is over (at least eight times, so that their median means
// something), checking each stdout against the reference bytes. lanes
// is how many CPUs the command keeps busy: the readings are taken on
// that many connections at once.
func runBatchLoop(ctx context.Context, e *env, out *outcome, lanes int, bin string, args []string, ref []byte) ([]batchRun, error) {
	var runs []batchRun
	before, err := e.ref.readingOn(ctx, lanes, referenceTrips)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for len(runs) < 8 || time.Since(start) < e.timed() {
		r, err := e.procs.runToExit(ctx, bin, args...)
		out.attempted++
		if err != nil {
			return nil, err
		}
		after, err := e.ref.readingOn(ctx, lanes, referenceTrips)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(r.stdout, ref) {
			out.failed++
			out.problemf("%s: output of run %d differs from the first run's", bin, len(runs)+1)
		}
		runs = append(runs, batchRun{r, (before + after) / 2})
		before = after
	}
	return runs, nil
}

// batchMetrics fills the generic metrics for an exec→exit workload
// whose one op processes units of work (events, updates) into results
// (events).
func batchMetrics(out *outcome, runs []batchRun, setupS float64, units, results, outputBytes int) {
	var walls, cpus, rawWalls, rss, readings []float64
	var cpu, busy time.Duration
	for _, r := range runs {
		walls = append(walls, atReference(ms(r.wall), r.reading))
		cpus = append(cpus, atReference(ms(r.usage.cpu), r.reading))
		rawWalls = append(rawWalls, ms(r.wall))
		rss = append(rss, r.usage.maxRSSMB)
		readings = append(readings, float64(r.reading))
		cpu += r.usage.cpu
		busy += r.wall
	}
	wall := median(walls)
	out.e2e["setup_s"] = atReference(setupS, time.Duration(median(readings)))
	out.e2e["op_ms"] = wall
	out.e2e["throughput_per_s"] = float64(units) / (wall / 1000)
	out.e2e["cpu_ms_per_op"] = median(cpus)
	out.e2e["peak_rss_mb"] = median(rss)
	out.observed(rawWalls, float64(outputBytes), cpu, busy, results)
	out.row("raw.op_ms", median(rawWalls), "ms")
	out.row("raw.throughput_per_s", float64(units)/(median(rawWalls)/1000), "1/s")
	out.row("reference.slowdown", median(readings)/float64(referenceNominal), "ratio")
	out.row("reference.slices", float64(len(runs)), "count")
}

func runReport(ctx context.Context, e *env) (*outcome, error) {
	out := newOutcome()
	bin, args := e.bin("bhreport"), reportArgs(e.fixture)
	var ref []byte
	setupS, teardown, err := e.repeatSetup(ctx, "report", func(ctx context.Context, dir string) (func(), error) {
		// Nothing to generate: set-up is the warm-up exec that pages the
		// binary in and yields the reference output.
		r, err := e.procs.runToExit(ctx, bin, args...)
		if err != nil {
			return nil, err
		}
		ref = r.stdout
		return func() {}, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()

	m := inferredRE.FindSubmatch(ref)
	if m == nil {
		return nil, fmt.Errorf("bhreport printed no event count:\n%.400s", ref)
	}
	events, _ := strconv.Atoi(string(m[1]))
	if events == 0 {
		out.problemf("bhreport inferred 0 events")
	}
	e.checkGolden(out, "report", ref)

	runs, err := runBatchLoop(ctx, e, out, runtime.NumCPU(), bin, args, ref)
	if err != nil {
		return nil, err
	}
	batchMetrics(out, runs, setupS, events, events, len(ref))
	out.row("report_wall_s", out.e2e["op_ms"]/1000, "s")
	out.row("report.cpu_s", out.e2e["cpu_ms_per_op"]/1000, "s")
	out.row("report.events_count", float64(events), "count")
	return out, nil
}
