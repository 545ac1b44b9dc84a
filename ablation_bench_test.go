package bgpblackholing

// Ablation benchmarks for the design choices of the methodology:
// community bundling (the paper's key visibility lever, §4.2), the
// dictionary construction stages (§4.1), and the event-grouping timeout
// (§9). Each prints a small table comparing the variants.

import (
	"fmt"
	"testing"
	"time"

	"bgpblackholing/internal/core"
	"bgpblackholing/internal/dictionary"
	"bgpblackholing/internal/stream"
	"bgpblackholing/internal/workload"
)

// ablationRun replays a few days with a custom workload config and
// dictionary, returning the closed events.
func ablationRun(p *Pipeline, wlCfg workload.Config, dict *dictionary.Dictionary, from, to int) []*core.Event {
	scenario := workload.NewScenario(p.Topo, wlCfg)
	engine := core.NewEngine(dict, p.Topo)
	for day := from; day < to; day++ {
		obs, _ := workload.Materialize(p.Deploy, p.Topo, scenario.IntentsForDay(day), wlCfg.Seed)
		s := stream.FromObservations(obs)
		for {
			el, err := s.Next()
			if err != nil {
				break
			}
			engine.Process(el)
		}
	}
	engine.Flush(workload.TimelineStart.Add(time.Duration(to+60) * 24 * time.Hour))
	return engine.Events()
}

// BenchmarkAblationBundling quantifies how much of the inference the
// community-bundling behaviour contributes: with bundling disabled, only
// announcements that reach a collector through a provider or route
// server are visible (§4.2 credits bundling with about half of all
// inferences).
func BenchmarkAblationBundling(b *testing.B) {
	p := benchPipeline(b)
	base := workload.DefaultConfig().Scaled(benchOptions().EventScale)
	base.Seed = benchOptions().Seed
	base.Days = benchOptions().Days
	fractions := []float64{0, 0.55, 1.0}
	b.ResetTimer()
	body := ""
	for i := 0; i < b.N; i++ {
		body = ""
		for _, f := range fractions {
			cfg := base
			cfg.FracBundled = f
			events := ablationRun(p, cfg, p.Dict, 845, 848)
			prefixes := map[string]bool{}
			noPath, dists := 0, 0
			for _, ev := range events {
				prefixes[ev.Prefix.String()] = true
				for _, d := range ev.ProviderDistances {
					dists++
					if d.Val == core.NoPath {
						noPath++
					}
				}
			}
			share := 0.0
			if dists > 0 {
				share = float64(noPath) / float64(dists)
			}
			body += fmt.Sprintf("bundled=%.2f  events=%-6d prefixes=%-5d no-path share=%.0f%%\n",
				f, len(events), len(prefixes), 100*share)
		}
	}
	printReport("Ablation: community bundling", body)
}

// BenchmarkAblationDictionary compares detection coverage across the
// dictionary construction stages: corpus-extracted only, plus
// private-communication entries, plus the inferred undocumented
// communities promoted into the dictionary.
func BenchmarkAblationDictionary(b *testing.B) {
	p := benchPipeline(b)
	res := benchWindow(b)

	// Stage 1: corpus only (rebuild without the private pass).
	corpusOnly := dictionary.FromCorpus(p.Corpus)
	// Stage 2: + private communication = p.Dict (as built).
	// Stage 3: + promote inferred undocumented communities.
	extended := dictionary.FromCorpus(p.Corpus)
	extended.AddPrivateFromTopology(p.Topo)
	for _, e := range res.InferStats.Inferred {
		extended.AddPrivate(e.Community, e.Providers[0], 32)
	}

	base := workload.DefaultConfig().Scaled(benchOptions().EventScale)
	base.Seed = benchOptions().Seed
	base.Days = benchOptions().Days

	b.ResetTimer()
	body := ""
	for i := 0; i < b.N; i++ {
		body = ""
		for _, st := range []struct {
			name string
			dict *dictionary.Dictionary
		}{
			{"corpus only", corpusOnly},
			{"+ private communication", p.Dict},
			{"+ inferred (promoted)", extended},
		} {
			events := ablationRun(p, base, st.dict, 845, 848)
			provs := map[string]bool{}
			for _, ev := range events {
				for _, pr := range ev.Providers {
					provs[pr.String()] = true
				}
			}
			body += fmt.Sprintf("%-26s events=%-6d providers=%d\n", st.name, len(events), len(provs))
		}
	}
	printReport("Ablation: dictionary construction stages", body)
}

// BenchmarkAblationGroupingTimeout sweeps the event-grouping timeout:
// the 5-minute choice is what turns ON/OFF probing bursts into
// operator-level periods without merging unrelated events (§9).
func BenchmarkAblationGroupingTimeout(b *testing.B) {
	res := benchWindow(b)
	timeouts := []time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute, time.Hour}
	b.ResetTimer()
	body := ""
	for i := 0; i < b.N; i++ {
		body = ""
		for _, to := range timeouts {
			periods := core.Group(res.Events, to)
			short := 0
			for _, p := range periods {
				if p.Duration() <= time.Minute {
					short++
				}
			}
			body += fmt.Sprintf("timeout=%-5s periods=%-6d <=1min: %.0f%%\n",
				to, len(periods), 100*float64(short)/float64(len(periods)))
		}
	}
	printReport("Ablation: grouping timeout", body)
}
