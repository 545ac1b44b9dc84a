package main

// World & replay layers: topology, collector, dictionary, workload,
// stream sort, the engine and analysis, as the replay composes them.
// These move report's wall time; elsewhere they are set-up only.

import (
	"time"

	bh "bgpblackholing"
	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/core"
	"bgpblackholing/internal/dictionary"
	"bgpblackholing/internal/irr"
	"bgpblackholing/internal/stream"
	"bgpblackholing/internal/topology"
	"bgpblackholing/internal/workload"
)

// probeWorld times the world build the way NewPipeline composes it.
func probeWorld(tr *tracer, in *probeInputs) error {
	tr.chain = "world"
	var err error
	tr.do("world.build", 1, func() {
		cfg := topology.DefaultConfig().Scaled(queryScale)
		cfg.Seed = in.seed
		var topo *topology.Topology
		tr.do("topology.generate", 1, func() { topo, err = topology.Generate(cfg) })
		if err != nil {
			return
		}
		ccfg := collector.DefaultConfig().Scaled(queryScale)
		ccfg.Seed = in.seed
		tr.do("collector.deploy", 1, func() { collector.Deploy(topo, ccfg) })
		tr.do("dictionary.build", 1, func() {
			d := dictionary.FromCorpus(irr.GenerateCorpus(topo, in.seed))
			d.AddPrivateFromTopology(topo)
		})
		propagateProbe(tr, in)
	})
	return err
}

// replayChain is bhreport's replay, a stage at a time over the whole
// window: every day's intents, then every materialisation, then every
// sort, then one engine pass, then the analyses.
func replayChain(tr *tracer, in *probeInputs) error {
	tr.chain = "replay"
	p := in.p
	days := probeReplayTo - probeReplayFrom
	tr.do("replay.chain", days, func() {
		intents := make([][]bh.Intent, days)
		nIntents := 0
		tr.do("workload.intents", days, func() {
			for d := range intents {
				intents[d] = p.Scenario.IntentsForDay(probeReplayFrom + d)
				nIntents += len(intents[d])
			}
		})
		obs := make([][]collector.Observation, days)
		nObs := 0
		tr.do("workload.materialize", nIntents, func() {
			for d := range obs {
				obs[d], _ = workload.Materialize(p.Deploy, p.Topo, intents[d], p.Opts.Seed)
				nObs += len(obs[d])
			}
		})
		elems := make([][]*stream.Elem, days)
		tr.do("stream.sort", nObs, func() {
			for d := range elems {
				elems[d] = stream.SortedElems(obs[d])
			}
		})
		engine := core.NewEngine(p.Dict, p.Topo)
		tr.do("core.process", nObs, func() {
			for _, day := range elems {
				for _, el := range day {
					engine.Process(el)
				}
			}
		})
		open := engine.ActiveCount()
		tr.do("core.flush", open, func() {
			engine.Flush(workload.TimelineStart.Add(time.Duration(probeReplayTo) * 24 * time.Hour))
		})
		events := engine.Events()
		tr.do("analysis.table3", len(events), func() { p.Table3(events) })
		tr.do("analysis.table4", len(events), func() { p.Table4(events) })
		tr.do("analysis.figure4", len(events), func() {
			bh.Figure4(events, workload.TimelineStart.Add(time.Duration(probeReplayFrom)*24*time.Hour), days)
		})
		tr.do("analysis.figure8", len(events), func() { bh.Figure8(events, bh.DefaultGroupTimeout) })
		// Counts recorded on the chain's own span would be lost; keep
		// them on a zero-length one.
		tr.do("replay.intents", nIntents, func() {})
		tr.do("replay.updates", nObs, func() {})
		tr.do("replay.events", len(events), func() {})
	})
	return nil
}

// propagateProbe times collector.Propagate alone, one announcement per
// intent, the way Materialize and the archive writer call it.
func propagateProbe(tr *tracer, in *probeInputs) {
	p := in.p
	var anns []collector.Announcement
	for day := probeReplayTo - 5; day < probeReplayTo; day++ {
		for _, it := range p.Scenario.IntentsForDay(day) {
			if !it.Prefix.IsValid() {
				continue
			}
			anns = append(anns, collector.Announcement{
				Time: it.Start, User: it.User, Prefix: it.Prefix,
				Communities: it.Communities(p.Topo), NoExport: it.NoExport,
				TargetProviders: it.Providers, TargetIXPs: it.IXPs, Bundled: it.Bundled,
			})
		}
	}
	tr.do("collector.propagate", len(anns), func() {
		for _, a := range anns {
			p.Deploy.Propagate(a)
		}
	})
}
