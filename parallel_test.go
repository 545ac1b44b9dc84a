package bgpblackholing

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"
)

// canonicalEvents serializes a run's events (and inference summary) into
// a canonical byte string, so runs can be compared for exact equality.
func canonicalEvents(res *RunResult) string {
	h := sha256.New()
	for _, ev := range res.Events {
		var provs []string
		for _, p := range ev.Providers {
			provs = append(provs, p.String())
		}
		sort.Strings(provs)
		var users []string
		for _, u := range ev.Users {
			users = append(users, u.String())
		}
		sort.Strings(users)
		var peers []string
		for _, p := range ev.Peers {
			peers = append(peers, p.String())
		}
		sort.Strings(peers)
		fmt.Fprintf(h, "%s|%d|%d|%d|%v|%v|%v|%v\n",
			ev.Prefix, ev.Start.UnixNano(), ev.End.UnixNano(), ev.Detections,
			ev.SawNoExport, provs, users, peers)
	}
	fmt.Fprintf(h, "stats=%d inferred=%d\n", len(res.InferStats.Stats), len(res.InferStats.Inferred))
	fmt.Fprintf(h, "lastday=%d intents=%d\n", len(res.LastDayResults), len(res.LastDayIntents))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestRunWindowDeterministicAcrossWorkers is the parallel-replay
// determinism contract: the same Seed and SmallOptions must yield
// byte-identical events (count, prefixes, start/end times, providers,
// users, peers) regardless of the worker count.
func TestRunWindowDeterministicAcrossWorkers(t *testing.T) {
	const fromDay, toDay = 800, 850

	type run struct {
		workers int
		events  int
		sum     string
	}
	var runs []run
	for _, workers := range []int{1, 2, 8} {
		opts := SmallOptions()
		opts.Workers = workers
		p, err := NewPipeline(opts)
		if err != nil {
			t.Fatal(err)
		}
		res := replay(t, p, fromDay, toDay)
		if len(res.Events) == 0 {
			t.Fatalf("workers=%d: no events", workers)
		}
		runs = append(runs, run{workers, len(res.Events), canonicalEvents(res)})
	}
	base := runs[0]
	for _, r := range runs[1:] {
		if r.events != base.events {
			t.Errorf("workers=%d: %d events, want %d (workers=%d)", r.workers, r.events, base.events, base.workers)
		}
		if r.sum != base.sum {
			t.Errorf("workers=%d: event checksum %s differs from workers=%d checksum %s",
				r.workers, r.sum, base.workers, base.sum)
		}
	}
}

// TestRunWindowWorkersSharedPipeline re-runs the same Pipeline value with
// different worker counts: a replay must not leave behind state that
// changes a later run.
func TestRunWindowWorkersSharedPipeline(t *testing.T) {
	p := smallPipeline(t)
	sums := map[int]string{}
	for _, workers := range []int{2, 1, 4} {
		p.Opts.Workers = workers
		sums[workers] = canonicalEvents(replay(t, p, 840, 848))
	}
	if sums[1] != sums[2] || sums[1] != sums[4] {
		t.Fatalf("shared-pipeline runs diverge: %v", sums)
	}
}
