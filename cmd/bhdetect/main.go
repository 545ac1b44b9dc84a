// Command bhdetect runs the paper's blackholing inference (§4.2) over a
// directory of MRT archives produced by bhgen (or any archives using
// the same synthetic world): it rebuilds the blackhole communities
// dictionary from the world's documentation corpus, replays the merged
// update stream through the inference engine, and emits the detected
// blackholing events as CSV or JSON. The JSON form is one record line per
// event: the bytes a store serves for it on /events?format=ndjson.
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
	if err := run(os.Stdout, *in, *scale, *seed, *format); err != nil {
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

// run detects the events in the archives under in and writes them to w.
func run(w io.Writer, in string, scale float64, seed int64, format string) error {
	if formats[format] == nil {
		return fmt.Errorf("unknown format %q", format)
	}
	events, err := detect(in, scale, seed)
	if err != nil {
		return err
	}
	return writeEvents(w, format, events)
}

// detect replays the archives under in through a detector over the world
// bhgen built with scale and seed, and returns the events it closed.
func detect(in string, scale float64, seed int64) ([]*bgpblackholing.Event, error) {
	opts := bgpblackholing.Options{
		Seed: seed, TopoScale: scale, CollectorScale: scale,
		EventScale: scale * 2, Days: 850,
	}
	p, err := bgpblackholing.NewPipeline(opts)
	if err != nil {
		return nil, err
	}
	// Prefer the dictionary archived next to the MRT files (bhgen dumps
	// it); the world regeneration then only provides the topology for
	// IXP route-server and peering-LAN lookups.
	dict := p.Dict
	if f, err := os.Open(filepath.Join(in, "dictionary.json")); err == nil {
		loaded, lerr := bgpblackholing.LoadDictionary(f)
		f.Close()
		if lerr != nil {
			return nil, fmt.Errorf("load dictionary.json: %w", lerr)
		}
		dict = loaded
		fmt.Fprintf(os.Stderr, "bhdetect: loaded dictionary.json (%d entries)\n", len(dict.Entries()))
	}

	matches, err := filepath.Glob(filepath.Join(in, "*.mrt"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("no .mrt archives in %s", in)
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
			return nil, err
		}
		err = det.SeedFromRIBDump(f, name, platformOf(name))
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("seed %s: %w", m, err)
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
			return nil, err
		}
		toClose = append(toClose, src)
		srcs = append(srcs, src)
	}
	res, err := det.Run(context.Background(), bgpblackholing.MergeSources(srcs...),
		bgpblackholing.WithFlushAt(time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)))
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return res.Events, nil
}

// writeEvents renders the events to w through one buffered writer and
// returns the first write or flush error, so a closed or full stdout
// fails the run instead of truncating the report.
func writeEvents(w io.Writer, format string, events []*bgpblackholing.Event) error {
	write := formats[format]
	if write == nil {
		return fmt.Errorf("unknown format %q", format)
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	if err := write(bw, events); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bhdetect: %d events\n", len(events))
	return nil
}

// formats are the output formats, each by the function that writes it.
var formats = map[string]func(io.Writer, []*bgpblackholing.Event) error{"csv": writeCSV, "json": writeJSON}

// writeJSON writes each event's record line — json.Marshal of its
// EventRecord, the read path's one event schema — and a newline.
func writeJSON(w io.Writer, events []*bgpblackholing.Event) error {
	for _, ev := range events {
		line, err := json.Marshal(bgpblackholing.NewEventRecord(ev))
		if err != nil {
			return err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
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
		_, err := fmt.Fprintf(w, "%s,%s,%s,%.0f,%s,%s,%s,%s,%d\n",
			ev.Prefix, ev.Start.UTC().Format(time.RFC3339), ev.End.UTC().Format(time.RFC3339), ev.Duration().Seconds(),
			joined(ev.Providers, ""), joined(ev.Users, "AS"), joined(ev.Communities, ""), joined(ev.Platforms, ""),
			ev.Detections)
		if err != nil {
			return err
		}
	}
	return nil
}

// joined names a set's members, each behind prefix, in string order —
// the order the report has always listed them in — separated by ';'.
func joined[T fmt.Stringer](set []T, prefix string) string {
	names := make([]string, len(set))
	for i, m := range set {
		names[i] = prefix + m.String()
	}
	sort.Strings(names)
	return strings.Join(names, ";")
}
