package bgpblackholing

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"

	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/mrt"
	"bgpblackholing/internal/store"
	"bgpblackholing/internal/stream"
	"bgpblackholing/internal/workload"
)

// ArchiveSummary describes one WriteMRTArchives run.
type ArchiveSummary struct {
	// Collectors is the number of update archives written (one per
	// collector that observed anything in the window).
	Collectors int
	// Dumps is the number of TABLE_DUMP_V2 seed archives written.
	Dumps int
	// Updates is the total number of archived updates.
	Updates int
}

// WriteMRTArchives archives days [fromDay, toDay) of the scenario's
// blackholing activity as MRT files (RFC 6396) in dir, one
// <collector>.mrt per route collector — the same artefacts RIPE RIS,
// Route Views and PCH publish. Blackholings that started before the
// window and are still active at its start additionally seed
// <collector>.dump.mrt TABLE_DUMP_V2 snapshots (§4.2 initialisation),
// the dictionary is dumped as dictionary.json (LoadDictionary reads it
// back), and world.txt summarises the world for humans. Identical
// pipelines and windows produce byte-identical archives; bhdetect — or
// any MRTSource + Detector combination — can then re-infer the events
// from the archives alone. Every file is committed durably through
// store.CommitFile, so a crash leaves each one as it was or complete,
// never torn.
func (p *Pipeline) WriteMRTArchives(dir string, fromDay, toDay int) (*ArchiveSummary, error) {
	if toDay <= fromDay {
		return nil, fmt.Errorf("empty window [%d,%d)", fromDay, toDay)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sum := &ArchiveSummary{}

	colByName := map[string]*collector.Collector{}
	for _, c := range p.Deploy.Collectors {
		colByName[c.Name] = c
	}

	// Table dumps: blackholings that started before the window and are
	// still active at its start seed the archives as TABLE_DUMP_V2
	// snapshots (§4.2 initialisation).
	windowStart := workload.TimelineStart.Add(time.Duration(fromDay) * 24 * time.Hour)
	dumpObs := map[string][]collector.Observation{}
	for day := fromDay - 45; day < fromDay; day++ {
		if day < 0 {
			continue
		}
		for _, in := range p.Scenario.IntentsForDay(day) {
			if !in.Prefix.IsValid() || len(in.Pattern) != 1 {
				continue
			}
			if !in.Start.Add(in.Pattern[0].On).After(windowStart) {
				continue // ended before the window
			}
			ann := collector.Announcement{
				Time:            in.Start,
				User:            in.User,
				Prefix:          in.Prefix,
				Communities:     in.Communities(p.Topo),
				NoExport:        in.NoExport,
				TargetProviders: in.Providers,
				TargetIXPs:      in.IXPs,
				Bundled:         in.Bundled,
			}
			for _, o := range p.Deploy.Propagate(ann).Observations {
				dumpObs[o.Collector.Name] = append(dumpObs[o.Collector.Name], o)
			}
		}
	}
	var dumpNames []string
	for name := range dumpObs {
		dumpNames = append(dumpNames, name)
	}
	sort.Strings(dumpNames)
	for _, name := range dumpNames {
		err := store.CommitFile(dir, name+".dump.mrt", true, func(w *bufio.Writer) error {
			return collector.WriteTableDump(w, colByName[name], dumpObs[name], windowStart)
		})
		if err != nil {
			return nil, err
		}
		sum.Dumps++
	}

	// Collect observations per collector across the window.
	perCollector := map[string][]collector.Observation{}
	for day := fromDay; day < toDay; day++ {
		intents := p.Scenario.IntentsForDay(day)
		obs, _ := workload.Materialize(p.Deploy, p.Topo, intents, p.Opts.Seed)
		for _, o := range obs {
			perCollector[o.Collector.Name] = append(perCollector[o.Collector.Name], o)
			sum.Updates++
		}
	}

	var names []string
	for name := range perCollector {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		col := colByName[name]
		// Time-order within the archive.
		elems := stream.SortedElems(perCollector[name])
		err := store.CommitFile(dir, name+".mrt", true, func(fw *bufio.Writer) error {
			w := mrt.NewWriter(fw)
			for _, el := range elems {
				if err := w.WriteUpdate(el.Update, col.IP, col.ASN); err != nil {
					return fmt.Errorf("write %s: %w", name, err)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sum.Collectors = len(names)

	// Dictionary dump: bhdetect (and humans) can load this instead of
	// re-deriving the corpus.
	err := store.CommitFile(dir, "dictionary.json", true, func(w *bufio.Writer) error {
		return p.Dict.Save(w)
	})
	if err != nil {
		return nil, err
	}

	// World summary for humans.
	err = store.CommitFile(dir, "world.txt", true, func(w *bufio.Writer) error {
		if _, err := fmt.Fprintf(w, "seed=%d scale=%.3f window=[%d,%d)\n", p.Opts.Seed, p.Opts.TopoScale, fromDay, toDay); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "ASes: %d  IXPs: %d  blackholing providers: %d  blackholing IXPs: %d\n",
			len(p.Topo.Order), len(p.Topo.IXPs),
			len(p.Topo.BlackholingProviders()), len(p.Topo.BlackholingIXPs())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "collectors: %d  archived updates: %d\n", sum.Collectors, sum.Updates)
		return err
	})
	if err != nil {
		return nil, err
	}
	return sum, nil
}
