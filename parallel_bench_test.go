package bgpblackholing

// Benchmarks for the day-sharded parallel replay pipeline. Run with
//
//	go test -run '^$' -bench BenchmarkReplayParallel -benchmem
//
// and compare the workers=1 row (the serial baseline) against the
// multi-worker rows.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

var parallelBench struct {
	once sync.Once
	p    *Pipeline
}

func parallelBenchPipeline(b *testing.B) *Pipeline {
	b.Helper()
	parallelBench.once.Do(func() {
		p, err := NewPipeline(SmallOptions())
		if err != nil {
			panic(err)
		}
		// Warm the lazy caches (customer cones, dense AS index) so every
		// worker-count variant benchmarks the same steady state.
		p.Opts.Workers = 1
		replay(b, p, windowFrom, windowFrom+2)
		parallelBench.p = p
	})
	return parallelBench.p
}

// BenchmarkReplayParallel replays the Aug 2016 – Mar 2017 analysis
// window at SmallOptions across worker counts. Identical Events are
// produced at every worker count; only the wall clock changes.
func BenchmarkReplayParallel(b *testing.B) {
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := parallelBenchPipeline(b)
			p.Opts.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := replay(b, p, windowFrom, windowTo)
				if len(res.Events) == 0 {
					b.Fatal("no events")
				}
			}
		})
	}
}

// BenchmarkRunStreaming replays the same window through the streaming
// API — Detector.Run over a ReplaySource, with the per-event close hook
// live and one subscriber draining the event channel. Comparing against
// the matching BenchmarkReplayParallel row bounds the cost of the
// event-hook indirection and the subscriber fanout (it must be noise:
// the hot path is materialization + inference, not delivery).
func BenchmarkRunStreaming(b *testing.B) {
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := parallelBenchPipeline(b)
			p.Opts.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det := p.NewDetector()
				drained := make(chan int, 1)
				sub := det.Subscribe()
				go func() {
					n := 0
					for range sub {
						n++
					}
					drained <- n
				}()
				res, err := det.Run(context.Background(), p.Replay(windowFrom, windowTo))
				if err != nil {
					b.Fatal(err)
				}
				if n := <-drained; n == 0 || n != len(res.Events) {
					b.Fatalf("subscriber drained %d events, result has %d", n, len(res.Events))
				}
			}
		})
	}
}
