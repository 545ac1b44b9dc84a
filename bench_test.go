package bgpblackholing

// What the ablation, extension, parallel and alert benchmarks share: one
// benchmark-scale world and one replay of the analysis window, built
// once through sync.Once, and a print-once helper for the reports they
// regenerate. The paper's own tables and figures are bhreport's
// sections, pinned by bench/golden/report.seed42.sha256.

import (
	"fmt"
	"sync"
	"testing"
)

// benchOptions scales the world for benchmarking: large enough that the
// paper's shapes emerge, small enough for a laptop run.
func benchOptions() Options {
	return Options{Seed: 42, TopoScale: 0.3, CollectorScale: 0.25, EventScale: 0.4, Days: 850}
}

// Analysis window of Tables 3/4 and Figures 5-8: August 2016 – March
// 2017 = days 640-850 of the timeline.
const (
	windowFrom = 640
	windowTo   = 850
)

var bench struct {
	onceWorld  sync.Once
	p          *Pipeline
	onceWindow sync.Once
	window     *RunResult
}

func benchPipeline(b *testing.B) *Pipeline {
	b.Helper()
	bench.onceWorld.Do(func() {
		p, err := NewPipeline(benchOptions())
		if err != nil {
			panic(err)
		}
		bench.p = p
	})
	return bench.p
}

// benchWindow replays the Aug 2016 – Mar 2017 analysis window once.
func benchWindow(b *testing.B) *RunResult {
	p := benchPipeline(b)
	bench.onceWindow.Do(func() {
		bench.window = replay(b, p, windowFrom, windowTo)
	})
	return bench.window
}

var printOnce sync.Map

func printReport(name, body string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n=== %s ===\n%s\n", name, body)
	}
}
