// Quickstart: build a small synthetic Internet, replay five days of BGP
// through the simulated route collectors, and print the blackholing
// events the inference engine detects — streamed as they close, then
// summarised from the final result.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"bgpblackholing"
)

func main() {
	// SmallOptions builds a laptop-sized world: ~260 ASes, ~17 IXPs,
	// ~50 blackholing providers, deterministic under seed 42.
	p, err := bgpblackholing.NewPipeline(bgpblackholing.SmallOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("world: %d ASes, %d IXPs, %d blackholing providers, %d blackholing IXPs\n",
		len(p.Topo.Order), len(p.Topo.IXPs),
		len(p.Topo.BlackholingProviders()), len(p.Topo.BlackholingIXPs()))
	fmt.Printf("dictionary: %d documented blackhole communities covering %d ASes and %d IXPs\n\n",
		len(p.Dict.Entries()), len(p.Dict.Providers()), len(p.Dict.IXPs()))

	// Replay five days near the end of the timeline (high activity).
	// Events stream to subscribers the moment they close — a monitoring
	// loop sees them long before the replay finishes.
	det := p.NewDetector()
	closing := det.Stream() // subscribe before Run so no close is missed
	streamed := make(chan int, 1)
	go func() {
		n := 0
		for range closing {
			n++
		}
		streamed <- n
	}()
	res, err := det.Run(context.Background(), p.Replay(845, 850))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed days 845-849 (%s to %s): %d blackholing events (%d streamed to the subscriber)\n\n",
		res.WindowStart.Format("2006-01-02"), res.WindowEnd.Format("2006-01-02"),
		len(res.Events), <-streamed)

	// Show the five longest events.
	events := append([]*bgpblackholing.Event(nil), res.Events...)
	sort.Slice(events, func(i, j int) bool { return events[i].Duration() > events[j].Duration() })
	fmt.Println("longest events:")
	for i, ev := range events {
		if i >= 5 {
			break
		}
		fmt.Printf("  %-20s %8s  providers=%v  seen by %d peers\n",
			ev.Prefix, ev.Duration().Truncate(1e9), ev.Providers, len(ev.Peers))
	}

	// The ON/OFF probing practice: grouping with the paper's 5-minute
	// timeout collapses probing bursts into operator-level periods.
	periods := bgpblackholing.Group(res.Events, bgpblackholing.DefaultGroupTimeout)
	fmt.Printf("\n%d raw events group into %d blackholing periods (5-minute timeout)\n",
		len(res.Events), len(periods))
}
