package bgpblackholing

// The alerting cost: live inference over a pre-materialised day of
// updates with a 100-rule alerting hub on the event-close hook
// (BenchmarkRuleMatch) against the bare engine
// (BenchmarkRuleMatchBaseline); the rule set mixes every match
// dimension — prefix modes, origins, communities, durations and verdict
// conditions — so the compiled index, not a lucky subset, is what gets
// measured.

import (
	"fmt"
	"testing"

	"bgpblackholing/internal/core"
	"bgpblackholing/internal/stream"
	"bgpblackholing/internal/workload"
)

// benchAlertRules builds a 100-rule set of realistic shape: watched
// customer blocks (covered), point lookups (exact and lpm), per-origin
// and per-community watches, duration floors and verdict conditions.
func benchRuleSpecs() []string {
	var specs []string
	for i := 0; i < 40; i++ { // customer /16s across two /8s
		specs = append(specs, fmt.Sprintf("name=net%d prefix=%d.%d.0.0/16 mode=covered", i, 10+20*(i%2), i))
	}
	for i := 0; i < 20; i++ { // exact host routes
		specs = append(specs, fmt.Sprintf("name=host%d prefix=10.%d.7.%d/32 mode=exact", i, i, i+1))
	}
	for i := 0; i < 15; i++ { // who blackholes this address
		specs = append(specs, fmt.Sprintf("name=lpm%d prefix=31.0.%d.%d mode=lpm", i, i, i+1))
	}
	for i := 0; i < 10; i++ {
		specs = append(specs, fmt.Sprintf("name=asn%d origin=%d", i, 64500+i))
	}
	for i := 0; i < 5; i++ {
		specs = append(specs, fmt.Sprintf("name=comm%d community=%d:666", i, 64500+i))
	}
	for i := 0; i < 5; i++ {
		specs = append(specs, fmt.Sprintf("name=dur%d min-duration=%dm", i, 10*(i+1)))
	}
	for i := 0; i < 5; i++ {
		specs = append(specs, "name=verdict"+fmt.Sprint(i)+" verdict=illegitimate,questionable")
	}
	return specs
}

func benchAlertRules(b *testing.B) []AlertRule {
	b.Helper()
	specs := benchRuleSpecs()
	rules := make([]AlertRule, len(specs))
	for i, s := range specs {
		r, err := ParseRule(s)
		if err != nil {
			b.Fatal(err)
		}
		rules[i] = r
	}
	if len(rules) != 100 {
		b.Fatalf("rule set has %d rules, want 100", len(rules))
	}
	return rules
}

// benchAlertElems pre-materialises one late day of updates, the same
// workload BenchmarkEngineThroughput replays.
func benchAlertElems(b *testing.B, p *Pipeline) []*stream.Elem {
	b.Helper()
	intents := p.Scenario.IntentsForDay(845)
	obs, _ := workload.Materialize(p.Deploy, p.Topo, intents, p.Opts.Seed)
	elems, err := stream.Collect(stream.FromObservations(obs))
	if err != nil {
		b.Fatal(err)
	}
	if len(elems) == 0 {
		b.Fatal("no updates")
	}
	return elems
}

// BenchmarkRuleMatchBaseline replays the day through the bare engine:
// the no-rules live path.
func BenchmarkRuleMatchBaseline(b *testing.B) {
	p := benchPipeline(b)
	elems := benchAlertElems(b, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine := core.NewEngine(p.Dict, p.Topo)
		for _, el := range elems {
			engine.Process(el)
		}
	}
}

// BenchmarkRuleMatch replays the same day with a 100-rule hub (with
// detection-time enrichment for the verdict rules) publishing on every
// event close. The hub is rebuilt per iteration alongside the engine,
// so its replay ring and counters start empty each time.
func BenchmarkRuleMatch(b *testing.B) {
	p := benchPipeline(b)
	elems := benchAlertElems(b, p)
	rules := benchAlertRules(b)
	reg := p.RPKIRegistry()
	var published uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hub, err := NewAlertHub(rules, AlertHubConfig{
			Annotator: NewAnnotator(reg, p.Dict),
			RingSize:  64,
		})
		if err != nil {
			b.Fatal(err)
		}
		engine := core.NewEngine(p.Dict, p.Topo)
		engine.OnEventClose = hub.Publish
		for _, el := range elems {
			engine.Process(el)
		}
		published = hub.Stats().Published
		hub.Close()
	}
	b.StopTimer()
	if published == 0 {
		b.Fatal("no events reached the hub")
	}
}
