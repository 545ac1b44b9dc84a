package bgpblackholing

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/mrt"
	"bgpblackholing/internal/store"
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
// back), and world.txt summarises the world for humans. The window
// comes from the replay (Replay), so each archive is in its time order
// and identical pipelines and windows produce byte-identical archives
// for every Options.Workers; bhdetect — or any MRTSource + Detector
// combination — can then re-infer the events from the archives alone.
// Every file is committed durably through store.CommitFile, so a crash
// leaves each one as it was or complete, never torn.
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
	src := p.Replay(fromDay, toDay)
	defer src.Close()

	// Table dumps: blackholings that started before the window and are
	// still active at its start seed the archives as TABLE_DUMP_V2
	// snapshots (§4.2 initialisation).
	dumpObs := map[string][]collector.Observation{}
	for day := max(0, fromDay-45); day < fromDay; day++ {
		for _, in := range p.Scenario.IntentsForDay(day) {
			if !in.Prefix.IsValid() || len(in.Pattern) != 1 {
				continue
			}
			if !in.Start.Add(in.Pattern[0].On).After(src.windowStart) {
				continue // ended before the window
			}
			for _, o := range p.Deploy.Propagate(in.Announcement(p.Topo)).Observations {
				dumpObs[o.Collector.Name] = append(dumpObs[o.Collector.Name], o)
			}
		}
	}
	for _, name := range slices.Sorted(maps.Keys(dumpObs)) {
		err := store.CommitFile(dir, name+".dump.mrt", true, func(w *bufio.Writer) error {
			return collector.WriteTableDump(w, colByName[name], dumpObs[name], src.windowStart)
		})
		if err != nil {
			return nil, err
		}
		sum.Dumps++
	}

	// The window's updates per collector, from the replay's day-sharded
	// workers.
	perCollector := map[string][]*Elem{}
	for {
		el, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		perCollector[el.Collector] = append(perCollector[el.Collector], el)
		sum.Updates++
	}
	for _, name := range slices.Sorted(maps.Keys(perCollector)) {
		col := colByName[name]
		err := store.CommitFile(dir, name+".mrt", true, func(fw *bufio.Writer) error {
			w := mrt.NewWriter(fw)
			for _, el := range perCollector[name] {
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
	sum.Collectors = len(perCollector)

	// Dictionary dump: bhdetect (and humans) can load this instead of
	// re-deriving the corpus.
	err := store.CommitFile(dir, "dictionary.json", true, func(w *bufio.Writer) error {
		return p.Dict.Save(w)
	})
	if err != nil {
		return nil, err
	}

	// World summary for humans. A bufio.Writer's first error sticks, and
	// CommitFile's Flush reports it.
	err = store.CommitFile(dir, "world.txt", true, func(w *bufio.Writer) error {
		fmt.Fprintf(w, "seed=%d scale=%.3f window=[%d,%d)\n", p.Opts.Seed, p.Opts.TopoScale, fromDay, toDay)
		fmt.Fprintf(w, "ASes: %d  IXPs: %d  blackholing providers: %d  blackholing IXPs: %d\n",
			len(p.Topo.Order), len(p.Topo.IXPs), len(p.Topo.BlackholingProviders()), len(p.Topo.BlackholingIXPs()))
		fmt.Fprintf(w, "collectors: %d  archived updates: %d\n", sum.Collectors, sum.Updates)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sum, nil
}
