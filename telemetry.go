package bgpblackholing

// Telemetry — the one place the pipeline's stages report numbers. It
// owns an internal/obs registry and hands each part its pre-resolved
// handles: the store gets an Instruments struct at open; the handler
// serving a part registers its families — the root Store's query
// observer and shape gauges, scrape-time snapshots of the counters the
// detector, alert hub, redial sources and federation keep. A part
// handed to HandlerOptions reaches /stats and /metrics through that one
// wiring: one source of truth, two encodings.

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"bgpblackholing/internal/obs"
	"bgpblackholing/internal/store"
)

// Telemetry is the process-wide metrics hub backing GET /metrics.
// Create one per process with NewTelemetry, pass StoreInstruments to
// the store at open, and hand it with every other part to
// HandlerOptions: NewStoreHandlerWith and NewRouterHandler register the
// families of what they serve and mount /metrics. All methods are safe
// for concurrent use; registrations are idempotent.
type Telemetry struct {
	reg *obs.Registry

	// HTTP middleware families, pre-registered so per-request work is
	// three atomic ops and one map-free histogram observe.
	httpRequests *obs.CounterVec   // bh_http_requests_total{route,class}
	httpInFlight *obs.Gauge        // bh_http_in_flight
	httpSeconds  *obs.HistogramVec // bh_http_request_seconds{route}

	storeOnce sync.Once
	storeInst *store.Instruments
}

// NewTelemetry builds a registry with the process-level families
// (build_info, uptime, HTTP request metrics) registered.
func NewTelemetry() *Telemetry {
	t, start := &Telemetry{reg: obs.NewRegistry()}, time.Now()
	version := "(devel)"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	t.reg.GaugeFuncLabeled("bh_build_info",
		"Build metadata; value is always 1.",
		[]string{"go_version", "version"}, []string{runtime.Version(), version},
		func() float64 { return 1 })
	t.reg.GaugeFunc("bh_uptime_seconds",
		"Seconds since this Telemetry (in practice: the process) started.",
		func() float64 { return time.Since(start).Seconds() })
	t.httpRequests = t.reg.CounterVec("bh_http_requests_total",
		"HTTP requests served, by route pattern and status class.",
		"route", "class")
	t.httpInFlight = t.reg.Gauge("bh_http_in_flight",
		"HTTP requests currently being served.")
	t.httpSeconds = t.reg.HistogramVec("bh_http_request_seconds",
		"HTTP request duration in seconds, by route pattern.",
		nil, "route")
	return t
}

// StoreInstruments returns the write-path instrumentation handles for
// StoreOptions.Instruments. The bh_store_* families register on first
// call; every call returns the same struct, so multiple stores opened
// with it share one set of counters.
func (t *Telemetry) StoreInstruments() *store.Instruments {
	t.storeOnce.Do(func() {
		r := t.reg
		// Group-commit batches are record counts, not latencies.
		batchBuckets := obs.ExponentialBuckets(1, 2, 12) // 1..2048 records
		compactBuckets := obs.ExponentialBuckets(1e-3, 2.5, 12)
		t.storeInst = &store.Instruments{
			AppendEvents:  r.Counter("bh_store_append_events_total", "Events appended to the store."),
			AppendSeconds: r.Histogram("bh_store_append_seconds", "Store Append call latency (whole batch).", nil),
			FsyncTotal:    r.Counter("bh_store_fsync_total", "Active-segment fsyncs, all triggers."),
			FsyncErrors:   r.Counter("bh_store_fsync_errors_total", "Active-segment fsyncs that failed."),
			FsyncSeconds:  r.Histogram("bh_store_fsync_seconds", "Active-segment fsync latency.", nil),
			CommitBatch: r.Histogram("bh_store_commit_batch_records",
				"Records flushed per group commit.", batchBuckets),
			Seals:     r.Counter("bh_store_seals_total", "Segments sealed (size, partition roll, failover, compaction)."),
			Failovers: r.Counter("bh_store_failovers_total", "Wounded-segment failovers on the write path."),
			CompactRuns: r.Counter("bh_store_compact_runs_total",
				"Compaction passes executed."),
			CompactSeconds: r.Histogram("bh_store_compact_seconds",
				"Whole-pass compaction latency.", compactBuckets),
			CompactMerged: r.Counter("bh_store_compact_merged_segments_total",
				"Sealed segments rewritten by compaction passes."),
			CompactSkipped: r.Counter("bh_store_compact_skipped_segments_total",
				"Sealed segments compaction policies left cold."),
			CompactErased: r.Counter("bh_store_compact_erased_records_total",
				"Tombstoned records physically removed from disk."),
			CompactDropped: r.Counter("bh_store_compact_dropped_duplicates_total",
				"Superseded flush duplicates removed by compaction."),
			Hydrations: r.Counter("bh_store_hydrations_total",
				"Cold (sidecar-backed) segments decoded on demand."),
			SidecarWrites: r.Counter("bh_store_sidecar_writes_total",
				"Segment summary sidecars written (seal, compaction, heal)."),
			SidecarFallbacks: r.Counter("bh_store_sidecar_fallbacks_total",
				"Sealed segments fully decoded at open for want of a fresh sidecar."),
		}
	})
	return t.storeInst
}

// queryObs holds the root Store's query-path handles; installed
// atomically by observeStore, since a handler is built over a store
// that is already live.
type queryObs struct {
	total, enrichedTotal     *obs.Counter
	seconds, enrichedSeconds *obs.Histogram
}

// observeStore wires a root Store into the registry: query and
// enriched-query latency histograms on the store's Query path, plus
// scrape-time gauges over its shape (events, prefixes, segments,
// bytes, tombstones, unsynced records).
func (t *Telemetry) observeStore(st *Store) {
	r := t.reg
	st.qobs.Store(&queryObs{
		total:           r.Counter("bh_query_total", "Index-backed queries answered (plain)."),
		enrichedTotal:   r.Counter("bh_query_enriched_total", "Queries answered with legitimacy enrichment."),
		seconds:         r.Histogram("bh_query_seconds", "Plain query latency.", nil),
		enrichedSeconds: r.Histogram("bh_query_enriched_seconds", "Enriched query latency.", nil),
	})
	r.GaugeFunc("bh_store_events", "Live events in the store.", func() float64 { return float64(st.Stats().Events) })
	r.GaugeFunc("bh_store_prefixes", "Distinct prefixes indexed.", func() float64 { return float64(st.Stats().Prefixes) })
	r.GaugeFunc("bh_store_segments", "Segments on disk (sealed + active).", func() float64 { return float64(st.Stats().Segments) })
	r.GaugeFunc("bh_store_bytes", "Bytes on disk across segments.", func() float64 { return float64(st.Stats().Bytes) })
	r.GaugeFunc("bh_store_tombstones", "DeletePrefix tombstones in force.", func() float64 { return float64(st.Stats().Tombstones) })
	r.GaugeFunc("bh_store_pending_erasure", "Dead records awaiting physical erasure.", func() float64 { return float64(st.Stats().PendingErasure) })
	r.GaugeFunc("bh_store_unsynced_records", "Appended records not yet fsynced.", func() float64 { return float64(st.Stats().Unsynced) })
	r.GaugeFunc("bh_store_segments_cold", "Sealed segments not yet decoded (cold open).", func() float64 { return float64(st.Stats().SegmentsCold) })
	r.GaugeFunc("bh_store_segments_hydrated", "Sealed segments decoded on demand since open.", func() float64 { return float64(st.Stats().SegmentsHydrated) })
	r.GaugeFunc("bh_store_mapped_bytes", "Segment bytes currently mmap'd for scans.", func() float64 { return float64(st.Stats().MappedBytes) })
}

// observeDetector exposes the engine's counters as scrape-time
// snapshots of Detector.Metrics — the same numbers /stats reports.
func (t *Telemetry) observeDetector(d *Detector) {
	r := t.reg
	r.CounterFunc("bh_engine_updates_total", "Updates processed post-cleaning.", func() uint64 { return d.Metrics().UpdatesProcessed })
	r.CounterFunc("bh_engine_updates_cleaned_total", "Updates removed by §3 data cleaning.", func() uint64 { return d.Metrics().UpdatesCleaned })
	r.CounterFunc("bh_engine_detections_total", "Classified blackholing announcements.", func() uint64 { return d.Metrics().Detections })
	r.CounterFunc("bh_engine_explicit_ends_total", "Per-peer endings from withdrawals.", func() uint64 { return d.Metrics().ExplicitEnds })
	r.CounterFunc("bh_engine_implicit_ends_total", "Per-peer endings from untagged re-announcements.", func() uint64 { return d.Metrics().ImplicitEnds })
	r.CounterFunc("bh_engine_events_opened_total", "Prefix-level events started.", func() uint64 { return d.Metrics().EventsOpened })
	r.CounterFunc("bh_engine_events_closed_total", "Prefix-level events closed.", func() uint64 { return d.Metrics().EventsClosed })
	r.GaugeFunc("bh_engine_active_events", "Events currently open (opened − closed).",
		func() float64 { m := d.Metrics(); return float64(m.EventsOpened) - float64(m.EventsClosed) })
	r.CounterFunc("bh_engine_subscriber_drops_total", "Events dropped at bounded subscriber queues.", func() uint64 { return d.Metrics().SubscriberDrops })
	r.CounterFunc("bh_engine_subscriber_evictions_total", "Subscribers evicted for falling behind.", func() uint64 { return d.Metrics().SubscriberEvictions })
	r.GaugeFunc("bh_engine_subscribers", "Live event subscribers.", func() float64 { return float64(len(d.SubscriberStats())) })
	r.CounterFunc("bh_engine_unresolved_ixp_refs_total", "IXP inferences dropped: the dictionary names an IXP the topology lacks.", func() uint64 { return d.Metrics().UnresolvedIXPRefs })
}

// observeHub exposes the alert hub's counters and wires its publish
// latency histogram. Webhook deliveries/retries/dead-letters aggregate
// across endpoints.
func (t *Telemetry) observeHub(h *AlertHub) {
	r := t.reg
	r.CounterFunc("bh_alert_published_total", "Closed events evaluated against the rule set.", func() uint64 { return h.Stats().Published })
	r.CounterFunc("bh_alert_matches_total", "Rule firings (alerts emitted).", func() uint64 { return h.Stats().Alerts })
	r.CounterFunc("bh_alert_watcher_drops_total", "Alerts dropped at slow SSE watchers.", func() uint64 { return h.Stats().WatcherDrops })
	r.CounterFunc("bh_alert_encode_errors_total", "Alert payload encode failures.", func() uint64 { return h.Stats().EncodeErrors })
	r.GaugeFunc("bh_alert_rules", "Compiled alert rules.", func() float64 { return float64(h.Stats().Rules) })
	r.GaugeFunc("bh_alert_watchers", "Connected SSE watchers.", func() float64 { return float64(h.Stats().Watchers) })
	webhookSum := func(pick func(WebhookStats) uint64) func() uint64 {
		return func() uint64 {
			var n uint64
			for _, w := range h.Stats().Webhooks {
				n += pick(w)
			}
			return n
		}
	}
	r.CounterFunc("bh_alert_webhook_delivered_total", "Webhook deliveries acknowledged 2xx.", webhookSum(func(w WebhookStats) uint64 { return w.Delivered }))
	r.CounterFunc("bh_alert_webhook_retries_total", "Webhook delivery re-attempts.", webhookSum(func(w WebhookStats) uint64 { return w.Retries }))
	r.CounterFunc("bh_alert_webhook_dead_letters_total", "Webhook alerts abandoned after max attempts.", webhookSum(func(w WebhookStats) uint64 { return w.DeadLetters }))
	r.CounterFunc("bh_alert_webhook_dropped_total", "Webhook alerts discarded on queue overflow.", webhookSum(func(w WebhookStats) uint64 { return w.Dropped }))
	h.SetPublishObserver(r.Histogram("bh_alert_publish_seconds", "Alert-hub Publish latency (match + fan-out).", nil).Observe)
}

// observeRedial exposes one redial source's session-lifecycle counters
// as a labeled bh_redial_* family (source = collector address);
// multiple sources get distinct label sets.
func (t *Telemetry) observeRedial(src *RedialSource) {
	r := t.reg
	names, values := []string{"source"}, []string{src.Addr()}
	r.CounterFuncLabeled("bh_redial_dials_total", "Connect+handshake attempts.", names, values, func() uint64 { return src.Stats().Dials })
	r.CounterFuncLabeled("bh_redial_establishes_total", "Sessions established.", names, values, func() uint64 { return src.Stats().Establishes })
	r.CounterFuncLabeled("bh_redial_reseeds_total", "RIB-dump reseeds after re-established sessions.", names, values, func() uint64 { return src.Stats().Reseeds })
	r.CounterFuncLabeled("bh_redial_reseed_failures_total", "Reseeds that failed (session continued).", names, values, func() uint64 { return src.Stats().ReseedFailures })
	r.CounterFuncLabeled("bh_redial_backoffs_total", "Backoff waits after failed dials or lost sessions.", names, values, func() uint64 { return src.Stats().Backoffs })
	r.GaugeFuncLabeled("bh_redial_gave_up", "1 once the retry budget is exhausted.", names, values, func() float64 { return float64(src.Stats().GaveUp) })
}

// instrument wraps an HTTP handler with the request middleware:
// per-route request counter with status-class label, in-flight gauge,
// and duration histogram. route is the mux pattern the handler was
// registered under, resolved statically so no per-request pattern
// lookup is needed.
func (t *Telemetry) instrument(route string, h http.Handler) http.Handler {
	hist := t.httpSeconds.With(route)
	// Status classes are a closed set: resolve the children once.
	var classes [6]*obs.Counter // by status/100; 0 is no class
	for cls := 1; cls < len(classes); cls++ {
		classes[cls] = t.httpRequests.With(route, strconv.Itoa(cls)+"xx")
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.httpInFlight.Inc()
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		hist.Observe(time.Since(start).Seconds())
		t.httpInFlight.Dec()
		if cls := sw.status / 100; cls >= 1 && cls <= 5 {
			classes[cls].Inc()
		}
	})
}

// statusWriter captures the response status for the class label. It
// forwards Flush so streaming handlers (/events NDJSON, /watch SSE)
// keep flushing through the middleware.
type statusWriter struct {
	http.ResponseWriter
	status      int
	wroteHeader bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wroteHeader {
		w.status = code
		w.wroteHeader = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wroteHeader = true
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
