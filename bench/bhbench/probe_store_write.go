package main

// Store, write side: codec, append, sync, seal, compaction and the
// telemetry seam. At the paper's event density (events are about 2 %
// of updates) no end-to-end metric is dominated by append, so a
// write-path change is judged on these rows and on nothing end-to-end
// getting worse; they show in setup_s of the query workloads.

import (
	"os"
	"path/filepath"
	"runtime"
	"time"

	bh "bgpblackholing"
	"bgpblackholing/internal/store"
)

const probeSegment = 32 << 10

// storeStages is the middle of the write chain: encode every closed
// event, append them one by one to the (fresh) store, sync it.
func storeStages(tr *tracer, st *bh.Store, events []*bh.Event) error {
	encoded := 0
	var bufs [][]byte
	tr.do("store.encode", len(events), func() {
		for _, ev := range events {
			b := store.EncodeEvent(nil, ev)
			encoded += len(b)
			bufs = append(bufs, b)
		}
	})
	tr.do("store.encode_bytes", encoded, func() {})
	var derr error
	tr.do("store.decode", len(bufs), func() {
		for _, b := range bufs {
			if _, err := store.DecodeEvent(b); err != nil {
				derr = err
			}
		}
	})
	if derr != nil {
		return derr
	}
	var aerr error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr.do("store.append", len(events), func() {
		for _, ev := range events {
			if err := st.Append(ev); err != nil {
				aerr = err
			}
		}
	})
	runtime.ReadMemStats(&after)
	tr.do("store.append_allocs", int(after.Mallocs-before.Mallocs), func() {})
	if aerr != nil {
		return aerr
	}
	tr.do("store.sync", 1, func() { aerr = st.Sync() })
	return aerr
}

// probeStoreWrite covers the write-side rows that are not a stage of
// the write chain: batched append, the instrumented append, disk
// footprint and one tiered compaction pass.
func probeStoreWrite(tr *tracer, in *probeInputs) error {
	tr.chain = "store-write"
	events := in.corp.events
	var err error
	tr.do("store_write.probes", 1, func() {
		appendInto := func(span string, opts bh.StoreOptions, batch int) (string, *bh.Store) {
			dir, derr := in.freshDir(span)
			if derr != nil {
				err = derr
				return "", nil
			}
			st, oerr := bh.OpenStoreWith(dir, opts)
			if oerr != nil {
				err = oerr
				return "", nil
			}
			tr.do(span, len(events), func() {
				for i := 0; i < len(events); i += batch {
					if aerr := st.Append(events[i:min(i+batch, len(events))]...); aerr != nil {
						err = aerr
					}
				}
			})
			return dir, st
		}
		_, plain := appendInto("store.append_plain", bh.StoreOptions{}, 1)
		if plain != nil {
			plain.Close()
		}
		tel := bh.NewTelemetry()
		_, inst := appendInto("store.append_instrumented", bh.StoreOptions{Instruments: tel.StoreInstruments()}, 1)
		if inst != nil {
			inst.Close()
		}
		_, batched := appendInto("store.append_batch64", bh.StoreOptions{}, 64)
		if batched != nil {
			batched.Close()
		}

		// Many small same-partition segments, then one tiered pass.
		pol := bh.CompactionPolicy{Partition: 30 * 24 * time.Hour, SizeRatio: 4, MinRun: 2}
		dir, st := appendInto("store.append_sealing", bh.StoreOptions{MaxSegmentBytes: probeSegment, Policy: pol}, 1)
		if st == nil {
			return
		}
		defer st.Close()
		if serr := st.Sync(); serr != nil {
			err = serr
			return
		}
		disk, _ := dirSize(dir)
		tr.do("store.disk_bytes", int(disk), func() {})
		before := st.Stats().Segments
		var cs bh.CompactStats
		tr.do("store.compact_tiered", 1, func() { cs, err = st.Compact(pol) })
		tr.do("store.compact_merged", len(cs.Merged), func() {})
		tr.do("store.compact_segments", before, func() {})
	})
	return err
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return err
	})
	return total, err
}
