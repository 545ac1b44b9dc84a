// Command bhdetect runs the paper's blackholing inference (§4.2) over a
// directory of MRT archives produced by bhgen: it reads the blackhole
// communities dictionary and the IXP table published beside the archives
// (dictionary.json, ixps.json), replays the merged update stream through
// the inference engine, and emits the detected blackholing events as CSV
// or JSON. The JSON form is one record line per event: the bytes a store
// serves for it on /events?format=ndjson.
//
// Usage:
//
//	bhdetect -in /tmp/archives [-format csv|json]
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
	in := flag.String("in", "archives", "directory of .mrt archives")
	format := flag.String("format", "csv", "output format: csv or json")
	// The archives describe their own world; these stay for old scripts.
	flag.Float64("scale", 0, "ignored")
	flag.Int64("seed", 0, "ignored")
	flag.Parse()
	if err := run(os.Stdout, *in, *format); err != nil {
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
func run(w io.Writer, in, format string) error {
	if formats[format] == nil {
		return fmt.Errorf("unknown format %q", format)
	}
	events, err := detect(in)
	if err != nil {
		return err
	}
	return writeEvents(w, format, events)
}

// detect replays the archives under in through a detector over the world
// published beside them, and returns the events it closed.
func detect(in string) ([]*bgpblackholing.Event, error) {
	dict, topo, err := bgpblackholing.LoadArchiveWorld(in)
	if err != nil {
		return nil, err
	}
	matches, err := filepath.Glob(filepath.Join(in, "*.mrt"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("no .mrt archives in %s", in)
	}
	sort.Strings(matches)

	// Table dumps seed the engine (§4.2 initialisation, start times
	// unknown); the update archives then replay merged in time order.
	det := bgpblackholing.NewDetector(dict, topo)
	var srcs []bgpblackholing.Source
	for _, m := range matches {
		name, dump := strings.CutSuffix(strings.TrimSuffix(filepath.Base(m), ".mrt"), ".dump")
		if dump {
			f, err := os.Open(m)
			if err != nil {
				return nil, err
			}
			err = det.SeedFromRIBDump(f, name, platformOf(name))
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("seed %s: %w", m, err)
			}
			continue
		}
		src, err := bgpblackholing.OpenMRTSource(m, name, platformOf(name))
		if err != nil {
			return nil, err
		}
		defer src.Close()
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

// writeJSON writes each event's record line — the JSON of its
// EventRecord, the read path's one event schema — and a newline.
func writeJSON(w io.Writer, events []*bgpblackholing.Event) error {
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(bgpblackholing.NewEventRecord(ev)); err != nil {
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
