package workload

import (
	"math/rand"
	"reflect"
	"testing"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/topology"
)

// materializePerPhase is the reference Materialize is checked against:
// one full propagation for every ON phase, a fresh coin source per
// intent.
func materializePerPhase(d *collector.Deployment, topo *topology.Topology, intents []Intent, seed int64) ([]collector.Observation, []*collector.Result) {
	var obs []collector.Observation
	var results []*collector.Result
	for idx, in := range intents {
		if !in.Prefix.IsValid() {
			continue
		}
		r := rand.New(rand.NewSource(seed ^ int64(idx)*0x5851F42D4C957F2D))
		comms := in.Communities(topo)
		t := in.Start
		for _, ph := range in.Pattern {
			res := d.Propagate(collector.Announcement{
				Time:            t,
				User:            in.User,
				Prefix:          in.Prefix,
				Communities:     comms,
				NoExport:        in.NoExport,
				TargetProviders: in.Providers,
				TargetIXPs:      in.IXPs,
				Bundled:         in.Bundled,
			})
			results = append(results, res)
			obs = append(obs, res.Observations...)
			endT := t.Add(ph.On)
			if r.Float64() < 0.8 {
				obs = append(obs, d.Withdraw(res, endT)...)
			} else {
				obs = append(obs, d.ReannounceWithout(res, endT)...)
			}
			t = endT.Add(ph.Off)
		}
	}
	return obs, results
}

// TestMaterializeMatchesPerPhasePropagation is the invariant the
// propagate-once replay rests on: stamping an intent's first flood onto
// its later phases yields exactly what re-flooding the topology for every
// phase would, and no observation aliases another's update.
func TestMaterializeMatchesPerPhasePropagation(t *testing.T) {
	topo, err := topology.Generate(topology.DefaultConfig().Scaled(0.15))
	if err != nil {
		t.Fatal(err)
	}
	d := collector.Deploy(topo, collector.DefaultConfig().Scaled(0.15))
	for _, preset := range Presets() {
		cfg, err := PresetConfig(preset)
		if err != nil {
			t.Fatal(err)
		}
		s := NewScenario(topo, cfg.Scaled(0.2))
		nObs, nRepeat := 0, 0
		for i := 0; i < 32; i++ {
			// Spread the sample over the whole timeline, late days (all
			// services adopted, busiest) included.
			day := cfg.Days - 1 - i*(cfg.Days/32)
			intents := s.IntentsForDay(day)
			got, gotRes := Materialize(d, topo, intents, cfg.Seed)
			want, wantRes := materializePerPhase(d, topo, intents, cfg.Seed)
			if len(got) != len(want) || len(gotRes) != len(wantRes) {
				t.Fatalf("%s day %d: %d observations / %d results, want %d / %d",
					preset, day, len(got), len(gotRes), len(want), len(wantRes))
			}
			for j := range gotRes {
				if !sameResult(gotRes[j], wantRes[j]) {
					t.Fatalf("%s day %d: result %d differs", preset, day, j)
				}
				if j > 0 && gotRes[j] == gotRes[j-1] {
					nRepeat++
				}
			}
			seen := make(map[*bgp.Update]bool, len(got))
			for j := range got {
				g, w := got[j], want[j]
				if g.Collector != w.Collector || g.Session != w.Session {
					t.Fatalf("%s day %d: observation %d seen at %s/%v, want %s/%v",
						preset, day, j, g.Collector.Name, g.Session, w.Collector.Name, w.Session)
				}
				if !reflect.DeepEqual(g.Update, w.Update) {
					t.Fatalf("%s day %d: observation %d update\n got %+v\nwant %+v", preset, day, j, g.Update, w.Update)
				}
				if seen[g.Update] {
					t.Fatalf("%s day %d: observation %d shares its *Update with an earlier one", preset, day, j)
				}
				seen[g.Update] = true
			}
			nObs += len(got)
		}
		if nObs == 0 || nRepeat == 0 {
			t.Fatalf("%s: sample too thin to prove anything (%d observations, %d repeated phases)", preset, nObs, nRepeat)
		}
	}
}

// sameResult compares the exported content of two propagation results,
// updates compared by value.
func sameResult(a, b *collector.Result) bool {
	if a.Prefix != b.Prefix || a.User != b.User || len(a.Observations) != len(b.Observations) ||
		!reflect.DeepEqual(a.DroppingASes, b.DroppingASes) ||
		!reflect.DeepEqual(a.DroppingIXPMembers, b.DroppingIXPMembers) ||
		!reflect.DeepEqual(a.AcceptedIXPs, b.AcceptedIXPs) ||
		!reflect.DeepEqual(a.Rejections, b.Rejections) {
		return false
	}
	for i := range a.Observations {
		x, y := a.Observations[i], b.Observations[i]
		if x.Collector != y.Collector || x.Session != y.Session {
			return false
		}
		// A later phase's oracle result carries that phase's time; the
		// shared result keeps the first phase's.
		xu, yu := *x.Update, *y.Update
		xu.Time = yu.Time
		if !reflect.DeepEqual(xu, yu) {
			return false
		}
	}
	return true
}

// benchWorld is the benchmark's `report` world (bhreport -scale 0.1
// -events 0.2 -seed 42) without the RPKI hook.
func benchWorld(tb testing.TB) (*collector.Deployment, *topology.Topology, []Intent) {
	tb.Helper()
	topoCfg := topology.DefaultConfig().Scaled(0.1)
	topoCfg.Seed = 42
	topo, err := topology.Generate(topoCfg)
	if err != nil {
		tb.Fatal(err)
	}
	colCfg := collector.DefaultConfig().Scaled(0.1)
	colCfg.Seed = 42
	cfg := DefaultConfig().Scaled(0.2)
	cfg.Seed = 42
	cfg.Days = 850
	return collector.Deploy(topo, colCfg), topo, NewScenario(topo, cfg).IntentsForDay(800)
}

func BenchmarkMaterializeDay(b *testing.B) {
	d, topo, intents := benchWorld(b)
	b.ReportAllocs()
	for b.Loop() {
		Materialize(d, topo, intents, 42)
	}
}

// TestMaterializeAllocCeiling keeps the propagate-once gain from eroding
// silently: day 800 of the benchmark world cost about 2 700 allocations
// per call when every phase re-flooded the topology, about 760 now.
func TestMaterializeAllocCeiling(t *testing.T) {
	d, topo, intents := benchWorld(t)
	const ceiling = 1300
	if got := testing.AllocsPerRun(5, func() { Materialize(d, topo, intents, 42) }); got > ceiling {
		t.Fatalf("Materialize(day 800) = %.0f allocs, ceiling %d", got, ceiling)
	}
}
