package bgpblackholing

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/netip"
	"os"
	"path/filepath"
	"slices"

	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/dictionary"
	"bgpblackholing/internal/mrt"
	"bgpblackholing/internal/store"
)

// ArchiveSummary describes one WriteMRTArchives run.
type ArchiveSummary struct {
	// Collectors is the number of update archives written (one per
	// collector that observed anything in the window).
	Collectors int
	// Updates is the total number of archived updates.
	Updates int
}

// WriteMRTArchives archives days [fromDay, toDay) of the scenario's
// blackholing activity as MRT files (RFC 6396) in dir, one
// <collector>.mrt per route collector — the same artefacts RIPE RIS,
// Route Views and PCH publish. Blackholings that started before the
// window and are still active at its start additionally seed
// <collector>.dump.mrt TABLE_DUMP_V2 snapshots (§4.2 initialisation),
// dictionary.json and ixps.json hold the dictionary and the IXP table
// (LoadArchiveWorld reads both), and world.txt summarises the world for
// humans. The window comes from the replay (Replay), so each archive is
// in its time order and identical pipelines and windows produce
// byte-identical archives for every Options.Workers; bhdetect — or any
// MRTSource + Detector combination — re-infers the events from dir alone.
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

	// Beside the archives: what their inference reads (LoadArchiveWorld),
	// and a world summary for humans. A bufio.Writer's first error
	// sticks, and CommitFile's Flush reports it.
	for _, f := range []struct {
		name  string
		write func(*bufio.Writer) error
	}{
		{"dictionary.json", func(w *bufio.Writer) error { return p.Dict.Save(w) }},
		{"ixps.json", func(w *bufio.Writer) error { return saveIXPs(w, p.Topo.IXPs) }},
		{"world.txt", func(w *bufio.Writer) error {
			fmt.Fprintf(w, "seed=%d scale=%.3f window=[%d,%d)\n", p.Opts.Seed, p.Opts.TopoScale, fromDay, toDay)
			fmt.Fprintf(w, "ASes: %d  IXPs: %d  blackholing providers: %d  blackholing IXPs: %d\n",
				len(p.Topo.Order), len(p.Topo.IXPs), len(p.Topo.BlackholingProviders()), len(p.Topo.BlackholingIXPs()))
			fmt.Fprintf(w, "collectors: %d  archived updates: %d\n", sum.Collectors, sum.Updates)
			return nil
		}},
	} {
		if err := store.CommitFile(dir, f.name, true, f.write); err != nil {
			return nil, err
		}
	}
	return sum, nil
}

// ixpRecord is one row of ixps.json: what the inference reads of an IXP.
type ixpRecord struct {
	ID             int          `json:"id"`
	RouteServerASN ASN          `json:"route_server_asn"`
	PeeringLAN     netip.Prefix `json:"peering_lan"`
}

// saveIXPs writes ixps.json: one ixpRecord per IXP, in id order.
func saveIXPs(w io.Writer, ixps []*IXP) error {
	recs := make([]ixpRecord, len(ixps))
	for i, x := range ixps {
		recs[i] = ixpRecord{x.ID, x.RouteServerASN, x.PeeringLAN}
	}
	return json.NewEncoder(w).Encode(recs)
}

// LoadArchiveWorld reads what the inference needs beside an archive
// directory's MRT files: the dictionary (dictionary.json) and a Topology
// holding only the IXP table (ixps.json). The engine indexes that table
// by id, so it refuses ids other than 0…n−1 in order, a null entry, an
// invalid peering LAN and a dictionary naming an IXP the table lacks.
func LoadArchiveWorld(dir string) (*Dictionary, *Topology, error) {
	f, err := os.Open(filepath.Join(dir, "dictionary.json"))
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	dict, err := dictionary.Load(f)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", f.Name(), err)
	}
	var recs []*ixpRecord
	name := filepath.Join(dir, "ixps.json")
	b, err := os.ReadFile(name)
	if err != nil {
		return nil, nil, err
	}
	if err := json.Unmarshal(b, &recs); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	topo := &Topology{IXPs: make([]*IXP, len(recs))}
	for i, r := range recs {
		if r == nil || r.ID != i || !r.PeeringLAN.IsValid() {
			return nil, nil, fmt.Errorf("%s: entry %d is %+v, want IXP %d with a valid peering LAN", name, i, r, i)
		}
		topo.IXPs[i] = &IXP{ID: i, RouteServerASN: r.RouteServerASN, PeeringLAN: r.PeeringLAN}
	}
	for _, e := range dict.Entries() {
		if i := slices.IndexFunc(e.IXPs, func(id int) bool { return id < 0 || id >= len(recs) }); i >= 0 {
			return nil, nil, fmt.Errorf("%s: has no IXP %d, which dictionary.json names for %s", name, e.IXPs[i], e.Community)
		}
	}
	return dict, topo, nil
}
