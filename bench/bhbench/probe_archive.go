package main

// Archive & inference layers: mrt, stream merge and the §4.2 engine.
// These move detect's update rate and live's burst rate; they are a
// small share of report.

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	bh "bgpblackholing"
	"bgpblackholing/internal/core"
	"bgpblackholing/internal/mrt"
	"bgpblackholing/internal/stream"
)

// archiveFile is one update archive held in memory, so the read stage
// times the decoder and not the page cache.
type archiveFile struct {
	name string
	data []byte
}

func loadArchives(dir string) ([]archiveFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.mrt"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []archiveFile
	for _, p := range paths {
		if strings.HasSuffix(p, ".dump.mrt") {
			continue // table dumps seed the engine; the chain reads updates
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, archiveFile{strings.TrimSuffix(filepath.Base(p), ".mrt"), data})
	}
	if len(out) == 0 {
		return nil, errors.New("no update archives to probe")
	}
	return out, nil
}

// platformOf mirrors bhdetect's mapping from archive name to platform.
func platformOf(name string) bh.Platform {
	switch {
	case strings.HasPrefix(name, "rrc"):
		return bh.PlatformRIS
	case strings.HasPrefix(name, "route-views"):
		return bh.PlatformRV
	case strings.HasPrefix(name, "pch"):
		return bh.PlatformPCH
	}
	return bh.PlatformCDN
}

// decodeArchives reads every record of every archive and keeps the
// updates, per archive, in file order.
func decodeArchives(files []archiveFile) (perFile [][]*stream.Elem, records int, err error) {
	for _, f := range files {
		r := mrt.NewReader(bytes.NewReader(f.data))
		var elems []*stream.Elem
		for {
			rec, rerr := r.Next()
			if rerr != nil {
				if !errors.Is(rerr, io.EOF) && !errors.Is(rerr, mrt.ErrTruncated) {
					return nil, 0, rerr
				}
				break
			}
			records++
			if msg, ok := rec.(*mrt.BGP4MPMessage); ok {
				elems = append(elems, &stream.Elem{Collector: f.name, Platform: platformOf(f.name), Update: msg.Update})
			}
		}
		perFile = append(perFile, elems)
	}
	return perFile, records, nil
}

// readArchives is the mrt stage of the write chain.
func readArchives(tr *tracer, files []archiveFile) (perFile [][]*stream.Elem, err error) {
	records := 0
	tr.do("mrt.read", 0, func() { perFile, records, err = decodeArchives(files) })
	tr.setOps(records)
	return perFile, err
}

// mergeArchives is the stream stage: the k-way time merge.
func mergeArchives(tr *tracer, perFile [][]*stream.Elem) (merged []*stream.Elem, err error) {
	n := 0
	for _, f := range perFile {
		n += len(f)
	}
	tr.do("stream.merge", n, func() {
		srcs := make([]stream.Stream, len(perFile))
		for i, f := range perFile {
			srcs[i] = stream.FromElems(f)
		}
		merged, err = stream.Collect(stream.Merge(srcs...))
	})
	return merged, err
}

// processElems is the engine stage. It returns the events the engine
// closed, in closing order, and the allocation count per update.
func processElems(tr *tracer, dict *bh.Dictionary, topo *bh.Topology, elems []*stream.Elem) (events []*bh.Event, allocsPerUpdate float64) {
	engine := core.NewEngine(dict, topo)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr.do("core.process", len(elems), func() {
		for _, el := range elems {
			engine.Process(el)
		}
	})
	runtime.ReadMemStats(&after)
	open := engine.ActiveCount()
	tr.do("core.flush", open, func() { engine.Flush(time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)) })
	return engine.Events(), float64(after.Mallocs-before.Mallocs) / float64(len(elems))
}

// classifyProbe times the engine's classification alone: the
// dictionary and provider inference without event bookkeeping.
func classifyProbe(tr *tracer, dict *bh.Dictionary, topo *bh.Topology, elems []*stream.Elem) {
	engine := core.NewEngine(dict, topo)
	tr.do("core.classify", len(elems), func() {
		for _, el := range elems {
			engine.Classify(el.Update)
		}
	})
}
