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
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
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
	if _, ok := formats[format]; !ok {
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
	archives, err := os.ReadDir(in) // in name order
	if err != nil {
		return nil, err
	}
	archives = slices.DeleteFunc(archives, func(a os.DirEntry) bool { return !strings.HasSuffix(a.Name(), ".mrt") })
	if len(archives) == 0 {
		return nil, fmt.Errorf("no .mrt archives in %s", in)
	}

	// Table dumps seed the engine (§4.2 initialisation, start times
	// unknown); the update archives then replay merged in time order.
	det := bgpblackholing.NewDetector(dict, topo)
	var srcs []bgpblackholing.Source
	for _, a := range archives {
		m := filepath.Join(in, a.Name())
		name, dump := strings.CutSuffix(strings.TrimSuffix(a.Name(), ".mrt"), ".dump")
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

// writeEvents lays the events out in one buffer, a row each in the
// format's layout, and hands it to w 32 KiB or more at a time. It returns
// the first encode or write error, so a closed or full stdout fails the
// run instead of truncating the report.
func writeEvents(w io.Writer, format string, events []*bgpblackholing.Event) error {
	f, ok := formats[format]
	if !ok {
		return fmt.Errorf("unknown format %q", format)
	}
	b := append(make([]byte, 0, 64<<10), f.header...)
	for _, ev := range events {
		var err error
		if b, err = f.row(b, ev); err != nil {
			return err
		}
		if len(b) >= 32<<10 {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bhdetect: %d events\n", len(events))
	return nil
}

// formats are the output formats, each a header and the appender of one
// event's row, newline included.
var formats = map[string]struct {
	header string
	row    func(b []byte, ev *bgpblackholing.Event) ([]byte, error)
}{
	"csv": {"prefix,start,end,duration_sec,providers,users,communities,platforms,detections\n", appendCSVRow},
	"json": {"", func(b []byte, ev *bgpblackholing.Event) ([]byte, error) {
		b, err := bgpblackholing.AppendRecordLine(b, ev) // the line a store serves for ev
		return append(b, '\n'), err
	}},
}

// appendCSVRow appends the event's CSV row.
func appendCSVRow(b []byte, ev *bgpblackholing.Event) ([]byte, error) {
	b = append(ev.Prefix.AppendTo(b), ',')
	b = append(ev.Start.UTC().AppendFormat(b, time.RFC3339), ',')
	b = append(ev.End.UTC().AppendFormat(b, time.RFC3339), ',')
	b = append(strconv.AppendFloat(b, ev.Duration().Seconds(), 'f', 0, 64), ',')
	b = appendSet(b, ev.Providers, bgpblackholing.ProviderRef.TextLess, "")
	b = appendSet(b, ev.Users, bgpblackholing.ASN.TextLess, "AS")
	b = appendSet(b, ev.Communities, bgpblackholing.Community.TextLess, "")
	b = appendSet(b, ev.Platforms, bgpblackholing.Platform.TextLess, "")
	return append(strconv.AppendInt(b, int64(ev.Detections), 10), '\n'), nil
}

// appendSet appends a set's members, each behind prefix, in the order of
// their text (the report's order ever since; one prefix on every name
// leaves it as it is), then ','. The members are ordered by less, their
// type's TextLess, on a stack copy of up to 16 and each is rendered once.
func appendSet[T interface{ AppendTo([]byte) []byte }](b []byte, set []T, less func(T, T) bool, prefix string) []byte {
	var scratch [16]T
	sorted := append(scratch[:0], set...)
	for i := 1; i < len(sorted); i++ { // an insertion sort: the sets are a handful long
		for j := i; j > 0 && less(sorted[j], sorted[j-1]); j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	for i, m := range sorted {
		if i > 0 {
			b = append(b, ';')
		}
		b = m.AppendTo(append(b, prefix...))
	}
	return append(b, ',')
}
