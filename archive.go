package bgpblackholing

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/mrt"
	"bgpblackholing/internal/stream"
	"bgpblackholing/internal/workload"
)

// writeFileAtomic writes path through a temp file in the same
// directory, fsyncs it, and commits with an atomic rename — the same
// durability discipline as the event store's segments. A crash at any
// point leaves either the old file or the complete new one, never a
// torn archive; flush, fsync and close errors surface instead of being
// dropped. write sees a buffered writer (archives are written a record
// at a time), flushed before the fsync.
func writeFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	bw := bufio.NewWriterSize(f, 64<<10)
	if err = write(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(f.Name(), path); err != nil {
		return err
	}
	// Make the rename itself durable. Some filesystems refuse fsync on
	// directories; the rename there is as durable as it gets.
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	if errors.Is(serr, os.ErrInvalid) {
		serr = nil
	}
	return serr
}

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
// from the archives alone.
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
		err := writeFileAtomic(filepath.Join(dir, name+".dump.mrt"), func(w io.Writer) error {
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
		err := writeFileAtomic(filepath.Join(dir, name+".mrt"), func(fw io.Writer) error {
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
	err := writeFileAtomic(filepath.Join(dir, "dictionary.json"), func(w io.Writer) error {
		return p.Dict.Save(w)
	})
	if err != nil {
		return nil, err
	}

	// World summary for humans.
	err = writeFileAtomic(filepath.Join(dir, "world.txt"), func(w io.Writer) error {
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
