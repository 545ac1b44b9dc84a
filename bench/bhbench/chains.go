package main

import (
	"time"

	bh "bgpblackholing"
)

// writeChain is the write side a stage at a time: archives decoded,
// merged, inferred on, the closed events encoded, appended and synced,
// then annotated, matched and published.
func writeChain(tr *tracer, in *probeInputs) error {
	tr.chain = "write"
	files, err := loadArchives(in.archives)
	if err != nil {
		return err
	}
	p := in.gen
	dir, err := in.freshDir("append")
	if err != nil {
		return err
	}
	st, err := bh.OpenStoreWith(dir, bh.StoreOptions{MaxSegmentBytes: probeSegment})
	if err != nil {
		return err
	}
	defer st.Close()
	rig, err := newAlertRig(p)
	if err != nil {
		return err
	}
	defer rig.close()
	tr.do("write.chain", 1, func() {
		perFile, rerr := readArchives(tr, files)
		if err = rerr; err != nil {
			return
		}
		size := 0
		for _, f := range files {
			size += len(f.data)
		}
		tr.do("mrt.bytes", size, func() {})
		elems, merr := mergeArchives(tr, perFile)
		if err = merr; err != nil {
			return
		}
		events, allocs := processElems(tr, p.Dict, p.Topo, elems)
		tr.do("core.process_allocs", int(allocs*1000), func() {}) // per thousand updates
		tr.do("core.events", len(events), func() {})
		if err = storeStages(tr, st, events); err != nil {
			return
		}
		err = alertStages(tr, rig, events)
	})
	return err
}

// readChain is the read side a stage at a time, from the store's own
// query up through projection, encoding, the backend, the handler, the
// socket, the in-process federation and the remote hop.
func readChain(tr *tracer, in *probeInputs) error {
	tr.chain = "read"
	st, err := bh.OpenStoreWith(in.corp.single, bh.StoreOptions{ReadOnly: true})
	if err != nil {
		return err
	}
	defer st.Close()
	k := makeProbeKeys(in)
	serve := newServeRig(in, st)
	defer serve.close()
	fed, err := newFederationRig(in, serve.srv.URL)
	if err != nil {
		return err
	}
	defer fed.close()
	tr.do("read.chain", 1, func() {
		windowEvents, qerr := queryStages(tr, st, k)
		if err = qerr; err != nil {
			return
		}
		if err = serveStages(tr, serve, k, windowEvents); err != nil {
			return
		}
		err = federationStages(tr, fed, k)
	})
	return err
}

// deriveLayers turns span self times into the per-layer rows.
func deriveLayers(m layers, in *probeInputs, spans []span) {
	t := selfTimes(spans)
	ops := func(name string) float64 { return float64(t[name].Ops) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	const ns, us, msec = time.Nanosecond, time.Microsecond, time.Millisecond

	// World & replay.
	m["topology.generate_ms"] = whole(t, "topology.generate", msec)
	m["collector.deploy_ms"] = whole(t, "collector.deploy", msec)
	m["dictionary.build_ms"] = whole(t, "dictionary.build", msec)
	m["collector.propagate_us_per_announcement"] = per(t, "collector.propagate", us)
	m["workload.intents_us_per_day"] = per(t, "workload.intents", us)
	m["workload.materialize_us_per_intent"] = per(t, "workload.materialize", us)
	m["stream.sort_ns_per_elem"] = per(t, "stream.sort", ns)
	m["replay.updates_per_intent"] = ratio(ops("replay.updates"), ops("replay.intents"))
	m["analysis.table3_ms"] = whole(t, "analysis.table3", msec)
	m["analysis.table4_ms"] = whole(t, "analysis.table4", msec)
	m["analysis.figure4_ms"] = whole(t, "analysis.figure4", msec)
	m["analysis.figure8_ms"] = whole(t, "analysis.figure8", msec)

	// Archive & inference. core.process ran in both the replay and the
	// write chain; the per-update figure is over both.
	m["mrt.read_ns_per_record"] = per(t, "mrt.read", ns)
	m["mrt.bytes_per_update"] = ratio(ops("mrt.bytes"), float64(in.updates))
	m["stream.merge_ns_per_elem"] = per(t, "stream.merge", ns)
	m["core.classify_ns_per_update"] = per(t, "core.classify", ns)
	m["core.process_ns_per_update"] = per(t, "core.process", ns)
	m["core.process_allocs_per_update"] = ops("core.process_allocs") / 1000
	m["core.events_per_kupdate"] = ratio(1000*ops("core.events"), float64(in.updates))

	// Live wire.
	m["bgp.marshal_ns_per_update"] = per(t, "bgp.marshal", ns)
	m["bgp.unmarshal_ns_per_update"] = per(t, "bgp.unmarshal", ns)
	m["bgpd.read_ns_per_update"] = per(t, "bgpd.read", ns)
	m["stream.live_ns_per_elem"] = per(t, "stream.live", ns)

	// Alerting & enrichment.
	m["enrich.annotate_uncached_ns_per_event"] = per(t, "enrich.annotate_uncached", ns)
	m["enrich.annotate_cached_ns_per_event"] = per(t, "enrich.annotate_cached", ns)
	m["alert.match_ns_per_event"] = per(t, "alert.match", ns)
	m["alert.publish_ns_per_event"] = per(t, "alert.publish", ns)
	m["alert.encode_ns_per_alert"] = per(t, "alert.encode", ns)

	// Store, write side.
	m["store.encode_ns_per_event"] = per(t, "store.encode", ns)
	m["store.encode_bytes_per_event"] = ratio(ops("store.encode_bytes"), ops("store.encode"))
	m["store.decode_ns_per_event"] = per(t, "store.decode", ns)
	m["store.append_us_per_event"] = per(t, "store.append", us)
	m["store.append_batch64_us_per_event"] = per(t, "store.append_batch64", us)
	m["store.append_allocs_per_event"] = ratio(ops("store.append_allocs"), ops("store.append"))
	m["store.sync_ms"] = whole(t, "store.sync", msec)
	m["store.append_sealing_us_per_event"] = per(t, "store.append_sealing", us)
	m["store.disk_bytes_per_event"] = ratio(ops("store.disk_bytes"), ops("store.append_sealing"))
	m["store.compact_tiered_ms"] = whole(t, "store.compact_tiered", msec)
	m["store.compact_rewritten_ratio"] = ratio(ops("store.compact_merged"), ops("store.compact_segments"))
	m["obs.instrumented_append_ratio"] = ratio(float64(t["store.append_instrumented"].Self), float64(t["store.append_plain"].Self))

	// Store, read side.
	m["store.open_full_ms"] = per(t, "store.open_full", msec)
	m["store.open_cold_ms"] = per(t, "store.open_cold", msec)
	m["store.open_cold_decoded_events"] = ops("store.open_cold_decoded")
	m["store.hydrate_ms_per_segment"] = per(t, "store.hydrate", msec)
	m["store.query_lpm_ns"] = per(t, "store.query_lpm", ns)
	m["store.query_exact_ns"] = per(t, "store.query_exact", ns)
	m["store.query_miss_ns"] = per(t, "store.query_miss", ns)
	m["store.query_covered_us"] = per(t, "store.query_covered", us)
	m["store.query_window_us_per_kevent"] = 1000 * per(t, "store.query_window", us)
	m["store.figure4_materialized_us"] = per(t, "store.figure4_materialized", us)

	// Serving.
	m["backend.project_ns_per_event"] = per(t, "backend.project", ns)
	m["backend.records_lpm_us"] = per(t, "backend.records_lpm", us)
	m["backend.lines_us_per_kevent"] = 1000 * per(t, "backend.lines", us)
	m["http.encode_json_us_per_kevent"] = 1000 * per(t, "http.encode_json", us)
	m["http.handler_point_us"] = per(t, "http.handler_point", us)
	m["http.wire_point_us"] = per(t, "http.socket_point", us) - per(t, "http.handler_point", us)
	m["http.handler_window_ms"] = per(t, "http.handler_window", msec)

	// Federation.
	m["federate.records_inproc_lpm_us"] = per(t, "federate.records_inproc_lpm", us)
	m["federate.merge_ns_per_record"] = per(t, "federate.merge", ns)
	m["remote.records_lpm_us"] = per(t, "remote.records_lpm", us)
	m["remote.lines_mb_per_s"] = ratio(ops("remote.lines")/1e6, t["remote.lines"].Self.Seconds())
	m["router.handler_point_us"] = per(t, "router.handler_point", us)
}
