package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	bh "bgpblackholing"
)

// The traced run. First the workload itself, shorter, observed only
// from outside (it fills the e2e.* rows). Then three chains run in
// process on a tenth of the same seeded inputs, each stage-at-a-time
// over a whole batch with a span around every call into a layer's
// public functions:
//
//	replay  intents → materialise → sort → engine → analysis
//	write   MRT read → merge → engine → codec/append/sync → annotate → match/publish
//	read    store query → projection → JSON → backend → handler → socket → federation → remote
//
// Each chain runs in pairs of passes: one with only its outer span,
// which gives the base for the sum and overhead ratios, one with every
// span recorded.
// Probes that are not a stage of a chain (world build, wire codecs,
// open modes, compaction) run once under their own outer span.

// probeInputs is what the chains share, built once per traced run.
type probeInputs struct {
	seed     int64        // the fixture world's seed
	traffic  int64        // the seed of the probes' query keys
	dir      string       // scratch for stores the probes create
	p        *bh.Pipeline // the query corpus's world
	corp     *corpus      // populated single + sharded stores on disk
	gen      *bh.Pipeline // bhgen's and bhdetect's world, for the archives
	archives string       // MRT archives of the write chain's window
	updates  int          // updates in those archives
}

// A tenth of the end-to-end inputs: report replays 850 days; detect
// reads days 800–850, and the write chain half of that, since it is
// the closed events, a fortieth of the updates, that the store and
// alert stages time, and a chain of a few dozen milliseconds has no
// stable sum ratio on a shared box.
const (
	probeReplayFrom = 765
	probeReplayTo   = 850
	probeMRTFrom    = 825
	probeMRTTo      = 850
	probePoints     = 1000 // point queries per read-chain stage
	tracePairs      = 3    // base + traced passes per chain
)

// layers accumulates per-layer metric values by BENCHMARK.json name.
type layers map[string]float64

// per divides a span name's self time by its op count, in unit.
func per(totals map[string]layerTotal, name string, unit time.Duration) float64 {
	lt := totals[name]
	if lt.Ops == 0 {
		return 0
	}
	return float64(lt.Self) / float64(unit) / float64(lt.Ops)
}

// whole is a span name's self time in unit, not divided.
func whole(totals map[string]layerTotal, name string, unit time.Duration) float64 {
	return float64(totals[name].Self) / float64(unit)
}

// chain is one stage-at-a-time chain: run executes it under the given
// tracer; name is its outer span.
type chain struct {
	name string
	run  func(tr *tracer, in *probeInputs) error
}

func runTraced(ctx context.Context, e *env, name string) (*outcome, error) {
	// The observed end-to-end phase: same workload, same seed, half as
	// long, nothing traced.
	obs := *e
	obs.seconds = max(e.seconds/2, 2)
	out, err := workloads[name].run(ctx, &obs)
	if err != nil {
		return nil, err
	}

	dir, err := e.tempDir("probe")
	if err != nil {
		return nil, err
	}
	in, err := buildProbeInputs(ctx, e.fixture, e.seed, dir)
	if err != nil {
		return nil, fmt.Errorf("probe inputs: %w", err)
	}

	m := layers(out.layer)
	var all []span
	var overheads []float64
	for _, c := range []chain{
		{"replay.chain", replayChain},
		{"write.chain", writeChain},
		{"read.chain", readChain},
	} {
		pass := func(inner bool) (*tracer, error) {
			tr := newTracer(inner)
			runtime.GC()
			if err := c.run(tr, in); err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
			return tr, nil
		}
		// One discarded pass first, so that every measured pass runs on
		// warm caches and a settled heap. Then base and traced passes
		// in alternation; the ratios are the median pair's, and the
		// spans kept are the median traced pass's, so one pass that met
		// a busy neighbour does not set a row.
		if _, err := pass(false); err != nil {
			return nil, err
		}
		var sums, overs []float64
		var traced []*tracer
		for i := 0; i < tracePairs; i++ {
			base, err := pass(false)
			if err != nil {
				return nil, err
			}
			tr, err := pass(true)
			if err != nil {
				return nil, err
			}
			var sum time.Duration
			for n, lt := range selfTimes(tr.spans) {
				if n != c.name {
					sum += lt.Self
				}
			}
			bw := wall(base.spans, c.name)
			sums = append(sums, float64(sum)/float64(bw))
			overs = append(overs, float64(wall(tr.spans, c.name))/float64(bw))
			traced = append(traced, tr)
		}
		sort.Slice(traced, func(i, j int) bool { return wall(traced[i].spans, c.name) < wall(traced[j].spans, c.name) })
		m["trace."+strings.TrimSuffix(c.name, ".chain")+"_sum_ratio"] = median(sums)
		overheads = append(overheads, median(overs))
		all = appendSpans(all, traced[len(traced)/2].spans)
	}
	m["trace.overhead_ratio"] = median(overheads)

	// Stand-alone probes: one outer span each, children inside.
	tr := newTracer(true)
	for _, probe := range []func(*tracer, *probeInputs) error{
		probeWorld, probeWire, probeStoreWrite, probeStoreOpen, probeFederation,
	} {
		if err := probe(tr, in); err != nil {
			return nil, err
		}
	}
	all = appendSpans(all, tr.spans)
	deriveLayers(m, in, all)

	spanDir := filepath.Join(e.buildDir, "spans")
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s.seed%d.json", name, e.seed))
	if err := writeSpans(path, all); err != nil {
		return nil, err
	}
	e.logf("%d spans written to %s", len(all), path)
	out.row("trace.spans", float64(len(all)), "count")
	out.row("trace.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")
	return out, nil
}

// appendSpans adds one tracer's spans to the run's list, renumbering
// so that ids stay unique and parents keep pointing at their span.
func appendSpans(all, spans []span) []span {
	offset := len(all)
	for _, s := range spans {
		s.ID += offset
		if s.Parent >= 0 {
			s.Parent += offset
		}
		all = append(all, s)
	}
	return all
}

func buildProbeInputs(ctx context.Context, seed, traffic int64, dir string) (*probeInputs, error) {
	in := &probeInputs{seed: seed, traffic: traffic, dir: dir}
	var err error
	if in.corp, err = buildStores(ctx, seed, filepath.Join(dir, "stores"), true); err != nil {
		return nil, err
	}
	if in.p, err = bh.NewPipeline(bh.Options{Seed: seed, TopoScale: queryScale, CollectorScale: queryScale,
		EventScale: queryEventScale, Days: 850}); err != nil {
		return nil, err
	}
	// The write chain reads what bhgen would have written for the last
	// tenth of the detect window.
	if in.gen, err = bh.NewPipeline(bh.Options{Seed: seed, TopoScale: detectScale, CollectorScale: detectScale,
		EventScale: 2 * detectScale, Days: 850}); err != nil {
		return nil, err
	}
	in.archives = filepath.Join(dir, "archives")
	sum, err := in.gen.WriteMRTArchives(in.archives, probeMRTFrom, probeMRTTo)
	if err != nil {
		return nil, err
	}
	in.updates = sum.Updates
	return in, nil
}

// freshDir makes a new empty directory under the probe scratch.
func (in *probeInputs) freshDir(prefix string) (string, error) {
	return os.MkdirTemp(in.dir, prefix+"-")
}
