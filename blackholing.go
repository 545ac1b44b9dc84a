// Package bgpblackholing reproduces "Inferring BGP Blackholing Activity
// in the Internet" (Giotsas et al., IMC 2017) end to end: it builds a
// synthetic AS-level Internet, documents and extracts a blackhole
// communities dictionary, replays a December 2014 – March 2017 timeline
// of blackholing activity through simulated route collectors (RIPE RIS,
// Route Views, PCH, a large CDN), runs the paper's inference engine
// over the observed BGP updates, and regenerates every table and figure
// of the paper's evaluation.
//
// # The streaming detection API
//
// The batch longitudinal replay (§6) and the near-real-time measurement
// campaign (§10) are the same inference process over different update
// feeds, and the API treats them that way. A Source produces
// timestamped observations; a Detector drains one through the inference
// engine with context cancellation and incremental event delivery:
//
//	p, err := bgpblackholing.NewPipeline(bgpblackholing.SmallOptions())
//	if err != nil { ... }
//	det := p.NewDetector()
//	events := det.Stream() // or det.Subscribe(); register before Run
//	go func() {
//		for ev := range events {
//			fmt.Println(ev.Prefix, ev.Duration()) // events as they close
//		}
//	}()
//	res, err := det.Run(ctx, p.Replay(800, 810))
//	fmt.Println(len(res.Events), "blackholing events inferred")
//
// Three sources cover the paper's feeds — swap them freely under the
// same Run call:
//
//   - Pipeline.Replay   — the day-sharded parallel batch replay (§6)
//   - LiveSource        — near-real-time feeds, including real TCP BGP
//     sessions via ServeBGP (§10)
//   - MRTSource         — RFC 6396 archives, merged with MergeSources
//
// Closed events persist in a Store (Detector.SinkToStore): a crash-safe
// segmented log with indexes answering the paper's longitudinal queries
// — prefix LPM/covered, time range, origin ASN, duration, community —
// without replaying raw data, served over HTTP by NewStoreHandler /
// cmd/bhserve and queried by cmd/bhquery.
//
// The package is a facade over the internal building blocks, and
// re-exports the stable types (Event, Detection, Update, Elem, Metrics,
// ...) so downstream code never imports them directly:
//
//   - internal/bgp        — BGP model + RFC 4271 wire format
//   - internal/mrt        — RFC 6396 MRT archives
//   - internal/topology   — synthetic Internet (ASes, IXPs, routing)
//   - internal/irr        — IRR/web documentation corpus
//   - internal/dictionary — blackhole communities dictionary (§4.1)
//   - internal/collector  — route collectors + announcement propagation
//   - internal/stream     — BGPStream-like merged update streams
//   - internal/core       — the inference engine (§4.2)
//   - internal/store      — the persistent, indexed event store
//   - internal/rpki       — ROA registry, indexed RFC 6811 validation
//   - internal/enrich     — query-time legitimacy annotation
//   - internal/workload   — the longitudinal activity scenario (§6)
//   - internal/dataplane  — traceroute + IXP IPFIX simulation (§10)
//   - internal/scans      — scans.io-like host profiling (§8)
//   - internal/analysis   — every table and figure
package bgpblackholing

import (
	"fmt"
	"sync"
	"time"

	"bgpblackholing/internal/analysis"
	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/core"
	"bgpblackholing/internal/dictionary"
	"bgpblackholing/internal/irr"
	"bgpblackholing/internal/rpki"
	"bgpblackholing/internal/topology"
	"bgpblackholing/internal/workload"
)

// Options sizes an end-to-end pipeline.
type Options struct {
	// Seed drives all randomness; identical options yield identical
	// results.
	Seed int64
	// TopoScale scales the AS population (1.0 = paper scale: ~1700
	// ASes, 111 IXPs, 307 blackholing providers).
	TopoScale float64
	// CollectorScale scales collector session counts (1.0 = Table 1
	// scale: 425 RIS + 269 RV + PCH at every IXP + 3349 CDN sessions).
	CollectorScale float64
	// EventScale scales the daily blackholing event volume.
	EventScale float64
	// Days is the timeline length (850 ≈ Dec 2014 – Mar 2017).
	Days int
	// Workload selects a scenario preset: "" or "default" for the
	// paper-scale timeline, "flash-crowd" for interleaved DDoS waves of
	// short-lived episodes (the alerting-hub stress shape). EventScale,
	// Seed and Days still apply on top; a zero Days keeps the preset's
	// own timeline length.
	Workload string
	// Workers sizes the replay materialization pool: each worker
	// generates and propagates whole days independently, and the per-day
	// observation batches are then merged in day order into a single
	// deterministic inference pass. Results are identical for every
	// worker count and every Seed. Zero (the default) means
	// runtime.GOMAXPROCS(0); 1 forces the serial path.
	Workers int
}

// DefaultOptions is the paper-scale configuration.
func DefaultOptions() Options {
	return Options{Seed: 42, TopoScale: 1, CollectorScale: 1, EventScale: 1, Days: 850}
}

// SmallOptions is a laptop-friendly configuration for tests, examples
// and quick experiments: the same shapes at a fraction of the volume.
func SmallOptions() Options {
	return Options{Seed: 42, TopoScale: 0.15, CollectorScale: 0.15, EventScale: 0.3, Days: 850}
}

// Pipeline wires the full system together.
type Pipeline struct {
	Opts     Options
	Topo     *topology.Topology
	Deploy   *collector.Deployment
	Corpus   []irr.Document
	Dict     *dictionary.Dictionary
	Scenario *workload.Scenario

	// annOnce/ann build Annotator once: every surface (HTTP handler,
	// store, examples) shares one annotator.
	annOnce sync.Once
	ann     *Annotator
}

// NewPipeline builds the world: topology, collector deployment,
// documentation corpus, extracted dictionary (documented communities
// plus private-communication additions) and the longitudinal scenario.
func NewPipeline(opts Options) (*Pipeline, error) {
	topoCfg := topology.DefaultConfig().Scaled(opts.TopoScale)
	topoCfg.Seed = opts.Seed
	topo, err := topology.Generate(topoCfg)
	if err != nil {
		return nil, fmt.Errorf("generate topology: %w", err)
	}
	colCfg := collector.DefaultConfig().Scaled(opts.CollectorScale)
	colCfg.Seed = opts.Seed
	deploy := collector.Deploy(topo, colCfg)
	rpkiCfg := rpki.DefaultBuildConfig()
	rpkiCfg.Seed = opts.Seed
	deploy.RPKI = rpki.Build(topo, rpkiCfg)

	corpus := irr.GenerateCorpus(topo, opts.Seed)
	dict := dictionary.FromCorpus(corpus)
	dict.AddPrivateFromTopology(topo)

	wlCfg, err := workload.PresetConfig(opts.Workload)
	if err != nil {
		return nil, err
	}
	wlCfg = wlCfg.Scaled(opts.EventScale)
	wlCfg.Seed = opts.Seed
	if opts.Days > 0 {
		wlCfg.Days = opts.Days
	}
	scenario := workload.NewScenario(topo, wlCfg)

	return &Pipeline{
		Opts:     opts,
		Topo:     topo,
		Deploy:   deploy,
		Corpus:   corpus,
		Dict:     dict,
		Scenario: scenario,
	}, nil
}

// RunResult is the outcome of draining a Source through the inference
// engine.
type RunResult struct {
	// Events are the closed prefix-level blackholing events.
	Events []*core.Event
	// InferStats carries a replay run's per-community prefix-length
	// statistics (Figure 2 raw material) and the inferred undocumented
	// communities; nil for any other source.
	InferStats *dictionary.InferenceResult
	// Metrics snapshots the engine counters at the end of the run.
	Metrics Metrics
	// LastDayResults holds the propagation results of a replayed
	// window's last week, for data-plane experiments (nil for live and
	// MRT sources). There is one entry per ON phase, and an intent's
	// phases share one *Result: the same pointer repeated.
	LastDayResults []*collector.Result
	// LastDayIntents are the intents behind LastDayResults
	// (index-aligned is not guaranteed; use prefixes to match).
	LastDayIntents []workload.Intent
	// WindowStart and WindowEnd delimit the replayed wall-clock window
	// (zero for non-replay sources).
	WindowStart, WindowEnd time.Time
}

// RPKIRegistry returns the deployment's ROA registry, or nil when the
// deployment's validation hook is not registry-backed.
func (p *Pipeline) RPKIRegistry() *RPKIRegistry {
	if p.Deploy == nil {
		return nil
	}
	reg, _ := p.Deploy.RPKI.(*RPKIRegistry)
	return reg
}

// Annotator returns the pipeline's legitimacy annotator, built once
// from the world: the deployment's ROA registry and the extracted
// IRR/web dictionary. Attach it to a store (Store.SetAnnotator) to
// enable Query.Enrich, or annotate events directly with
// Annotator.Annotate. Every call returns the same instance.
func (p *Pipeline) Annotator() *Annotator {
	p.annOnce.Do(func() { p.ann = NewAnnotator(p.RPKIRegistry(), p.Dict) })
	return p.ann
}

// Re-exported result helpers so downstream users rarely need to import
// the internal packages directly.

// Table1 computes the dataset overview (Table 1).
func (p *Pipeline) Table1() []analysis.Table1Row { return analysis.Table1(p.Deploy) }

// Table2 computes the communities-dictionary distribution (Table 2).
func (p *Pipeline) Table2(inferred *dictionary.InferenceResult) []analysis.Table2Row {
	return analysis.Table2(p.Dict, inferred, p.Topo)
}

// Table3 computes the blackhole visibility overview (Table 3).
func (p *Pipeline) Table3(events []*core.Event) []analysis.Table3Row {
	return analysis.Table3(events, p.Deploy)
}

// Table4 computes visibility by provider type (Table 4).
func (p *Pipeline) Table4(events []*core.Event) []analysis.Table4Row {
	return analysis.Table4(events, p.Topo, p.Deploy)
}
