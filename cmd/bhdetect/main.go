// Command bhdetect runs the paper's blackholing inference (§4.2) over a
// directory of MRT archives produced by bhgen (or any archives using
// the same synthetic world): it rebuilds the blackhole communities
// dictionary from the world's documentation corpus, replays the merged
// update stream through the inference engine, and emits the detected
// blackholing events as CSV or JSON.
//
// Usage:
//
//	bhdetect -in /tmp/archives -scale 0.15 -seed 42 [-format csv|json]
//
// The -scale and -seed flags must match the bhgen invocation so that
// the same world (topology + dictionary) is reconstructed; a real
// deployment would load a dictionary file instead.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"bgpblackholing"
)

func main() {
	var (
		in     = flag.String("in", "archives", "directory of .mrt archives")
		scale  = flag.Float64("scale", 0.15, "world scale used by bhgen")
		seed   = flag.Int64("seed", 42, "seed used by bhgen")
		format = flag.String("format", "csv", "output format: csv or json")
	)
	flag.Parse()
	if err := run(*in, *scale, *seed, *format); err != nil {
		fmt.Fprintln(os.Stderr, "bhdetect:", err)
		os.Exit(1)
	}
}

// platformOf infers the collection platform from the archive name.
func platformOf(name string) bgpblackholing.Platform {
	switch {
	case strings.HasPrefix(name, "rrc"):
		return bgpblackholing.PlatformRIS
	case strings.HasPrefix(name, "route-views"):
		return bgpblackholing.PlatformRV
	case strings.HasPrefix(name, "pch"):
		return bgpblackholing.PlatformPCH
	}
	return bgpblackholing.PlatformCDN
}

func run(in string, scale float64, seed int64, format string) error {
	opts := bgpblackholing.Options{
		Seed: seed, TopoScale: scale, CollectorScale: scale,
		EventScale: scale * 2, Days: 850,
	}
	p, err := bgpblackholing.NewPipeline(opts)
	if err != nil {
		return err
	}
	// Prefer the dictionary archived next to the MRT files (bhgen dumps
	// it); the world regeneration then only provides the topology for
	// IXP route-server and peering-LAN lookups.
	dict := p.Dict
	if f, err := os.Open(filepath.Join(in, "dictionary.json")); err == nil {
		loaded, lerr := bgpblackholing.LoadDictionary(f)
		f.Close()
		if lerr != nil {
			return fmt.Errorf("load dictionary.json: %w", lerr)
		}
		dict = loaded
		fmt.Fprintf(os.Stderr, "bhdetect: loaded dictionary.json (%d entries)\n", len(dict.Entries()))
	}

	matches, err := filepath.Glob(filepath.Join(in, "*.mrt"))
	if err != nil {
		return err
	}
	if len(matches) == 0 {
		return fmt.Errorf("no .mrt archives in %s", in)
	}
	sort.Strings(matches)

	det := bgpblackholing.NewDetector(dict, p.Topo)

	// Pass 1: table dumps seed the engine (§4.2 initialisation; events
	// found here have unknown start times).
	for _, m := range matches {
		if !strings.HasSuffix(m, ".dump.mrt") {
			continue
		}
		name := strings.TrimSuffix(filepath.Base(m), ".dump.mrt")
		f, err := os.Open(m)
		if err != nil {
			return err
		}
		err = det.SeedFromRIBDump(f, name, platformOf(name))
		f.Close()
		if err != nil {
			return fmt.Errorf("seed %s: %w", m, err)
		}
	}

	// Pass 2: the update archives, merged in time order.
	var srcs []bgpblackholing.Source
	var toClose []*bgpblackholing.MRTSource
	defer func() {
		for _, s := range toClose {
			s.Close()
		}
	}()
	for _, m := range matches {
		if strings.HasSuffix(m, ".dump.mrt") {
			continue
		}
		name := strings.TrimSuffix(filepath.Base(m), ".mrt")
		src, err := bgpblackholing.OpenMRTSource(m, name, platformOf(name))
		if err != nil {
			return err
		}
		toClose = append(toClose, src)
		srcs = append(srcs, src)
	}
	res, err := det.Run(context.Background(), bgpblackholing.MergeSources(srcs...),
		bgpblackholing.WithFlushAt(time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)))
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}

	return writeEvents(os.Stdout, format, res.Events)
}

// writeEvents renders the events to w through one buffered writer and
// returns the first write or flush error, so a closed or full stdout
// fails the run instead of truncating the report.
func writeEvents(w io.Writer, format string, events []*bgpblackholing.Event) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	var err error
	switch format {
	case "json":
		err = writeJSON(bw, events)
	case "csv":
		err = writeCSV(bw, events)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	if err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bhdetect: %d events\n", len(events))
	return nil
}

// eventRecord is the serialised form of one event.
type eventRecord struct {
	Prefix       string   `json:"prefix"`
	Start        string   `json:"start"`
	End          string   `json:"end"`
	DurationSec  float64  `json:"duration_sec"`
	StartUnknown bool     `json:"start_unknown,omitempty"`
	Providers    []string `json:"providers"`
	Users        []string `json:"users"`
	Communities  []string `json:"communities"`
	Platforms    []string `json:"platforms"`
	Detections   int      `json:"detections"`
}

func toRecord(ev *bgpblackholing.Event) eventRecord {
	rec := eventRecord{
		Prefix:       ev.Prefix.String(),
		Start:        ev.Start.UTC().Format(time.RFC3339),
		End:          ev.End.UTC().Format(time.RFC3339),
		DurationSec:  ev.Duration().Seconds(),
		StartUnknown: ev.StartUnknown,
		Detections:   ev.Detections,
	}
	rec.Providers = sortedStrings(ev.Providers, "")
	rec.Users = sortedStrings(ev.Users, "AS")
	rec.Communities = sortedStrings(ev.Communities, "")
	rec.Platforms = sortedStrings(ev.Platforms, "")
	return rec
}

// sortedStrings names a set's members, each behind prefix, in string
// order — the order the report has always listed them in.
func sortedStrings[T fmt.Stringer](set []T, prefix string) []string {
	var out []string
	for _, m := range set {
		out = append(out, prefix+m.String())
	}
	sort.Strings(out)
	return out
}

func writeJSON(w io.Writer, events []*bgpblackholing.Event) error {
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(toRecord(ev)); err != nil {
			return err
		}
	}
	return nil
}

func writeCSV(w io.Writer, events []*bgpblackholing.Event) error {
	if _, err := fmt.Fprintln(w, "prefix,start,end,duration_sec,providers,users,communities,platforms,detections"); err != nil {
		return err
	}
	for _, ev := range events {
		rec := toRecord(ev)
		_, err := fmt.Fprintf(w, "%s,%s,%s,%.0f,%s,%s,%s,%s,%d\n",
			rec.Prefix, rec.Start, rec.End, rec.DurationSec,
			strings.Join(rec.Providers, ";"),
			strings.Join(rec.Users, ";"),
			strings.Join(rec.Communities, ";"),
			strings.Join(rec.Platforms, ";"),
			rec.Detections)
		if err != nil {
			return err
		}
	}
	return nil
}
