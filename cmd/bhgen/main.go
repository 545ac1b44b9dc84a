// Command bhgen generates a synthetic Internet and archives a window of
// its BGP blackholing activity as MRT files (RFC 6396), one archive per
// route collector — the same artefacts RIPE RIS, Route Views and PCH
// publish. The archives can then be analysed with bhdetect, exactly as
// the paper's pipeline consumes public collector archives.
//
// Usage:
//
//	bhgen -out /tmp/archives -scale 0.15 -from 800 -to 805 [-seed 42]
//
// The output directory receives one <collector>.mrt file per collector
// that observed anything in the window, a <collector>.dump.mrt table dump
// per collector that saw a blackholing still active at its start, the
// blackhole communities dictionary (dictionary.json), the IXP table
// (ixps.json), and a world.txt summary: everything bhdetect reads. The
// replay's day-sharded workers, one per CPU, materialise the window, and
// identical flags produce byte-identical archives for any worker count.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"bgpblackholing"
)

func main() {
	var (
		out   = flag.String("out", "archives", "output directory")
		scale = flag.Float64("scale", 0.15, "world scale (1.0 = paper scale)")
		seed  = flag.Int64("seed", 42, "deterministic seed")
		from  = flag.Int("from", 800, "first timeline day (0 = 2014-12-01)")
		to    = flag.Int("to", 805, "one past the last timeline day")
	)
	flag.Parse()
	if err := run(*out, *scale, *seed, *from, *to); err != nil {
		fmt.Fprintln(os.Stderr, "bhgen:", err)
		os.Exit(1)
	}
}

// days is the length of the world's timeline; a window lies inside it.
const days = 850

func run(out string, scale float64, seed int64, from, to int) error {
	switch {
	case !(scale > 0) || math.IsInf(scale, 1):
		return fmt.Errorf("-scale %v: want a finite world scale > 0", scale)
	case from < 0 || from >= days:
		return fmt.Errorf("-from %d: want a day in [0, %d)", from, days)
	case to <= from || to > days:
		return fmt.Errorf("-to %d: want a day in (%d, %d]", to, from, days)
	}
	opts := bgpblackholing.Options{
		Seed: seed, TopoScale: scale, CollectorScale: scale,
		EventScale: scale * 2, Days: days,
	}
	p, err := bgpblackholing.NewPipeline(opts)
	if err != nil {
		return err
	}
	sum, err := p.WriteMRTArchives(out, from, to)
	if err != nil {
		return err
	}
	fmt.Printf("bhgen: wrote %d archives (%d updates) to %s\n", sum.Collectors, sum.Updates, out)
	return nil
}
