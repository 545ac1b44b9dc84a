package bgpblackholing

// Telemetry — the one place the pipeline's stages report numbers. It
// owns an internal/obs registry, pre-registers the bh_* metric
// families, and hands each subsystem its pre-resolved handles: the
// store gets an Instruments struct, the root Store a query observer,
// the detector / alert hub / redial sources scrape-time snapshot
// functions over the atomic counters they already keep. /metrics and
// /stats therefore read the same underlying numbers — one source of
// truth, two encodings.

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"bgpblackholing/internal/obs"
	"bgpblackholing/internal/store"
)

// Telemetry is the process-wide metrics hub backing GET /metrics.
// Create one per process with NewTelemetry, wire subsystems in with
// the Observe* methods and StoreInstruments, and mount
// MetricsHandler (NewStoreHandlerWith does this when
// HandlerOptions.Telemetry is set). All methods are safe for
// concurrent use; Observe* registrations are idempotent.
type Telemetry struct {
	reg   *obs.Registry
	start time.Time

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
	t := &Telemetry{reg: obs.NewRegistry(), start: time.Now()}
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
		func() float64 { return time.Since(t.start).Seconds() })
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

// MetricsHandler returns the GET /metrics handler rendering the
// Prometheus text exposition format.
func (t *Telemetry) MetricsHandler() http.Handler { return t.reg.Handler() }

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
// atomically by ObserveStore so SetAnnotator-style wiring after the
// store is live stays race-free.
type queryObs struct {
	total, enrichedTotal     *obs.Counter
	seconds, enrichedSeconds *obs.Histogram
}

// ObserveStore wires a root Store into the registry: query and
// enriched-query latency histograms on the store's Query path, plus
// scrape-time gauges over its shape (events, prefixes, segments,
// bytes, tombstones, unsynced records).
func (t *Telemetry) ObserveStore(st *Store) {
	r := t.reg
	st.qobs.Store(&queryObs{
		total:           r.Counter("bh_query_total", "Index-backed queries answered (plain)."),
		enrichedTotal:   r.Counter("bh_query_enriched_total", "Queries answered with legitimacy enrichment."),
		seconds:         r.Histogram("bh_query_seconds", "Plain query latency.", nil),
		enrichedSeconds: r.Histogram("bh_query_enriched_seconds", "Enriched query latency.", nil),
	})
	stats := func() StoreStats { return st.Stats() }
	r.GaugeFunc("bh_store_events", "Live events in the store.", func() float64 { return float64(stats().Events) })
	r.GaugeFunc("bh_store_prefixes", "Distinct prefixes indexed.", func() float64 { return float64(stats().Prefixes) })
	r.GaugeFunc("bh_store_segments", "Segments on disk (sealed + active).", func() float64 { return float64(stats().Segments) })
	r.GaugeFunc("bh_store_bytes", "Bytes on disk across segments.", func() float64 { return float64(stats().Bytes) })
	r.GaugeFunc("bh_store_tombstones", "DeletePrefix tombstones in force.", func() float64 { return float64(stats().Tombstones) })
	r.GaugeFunc("bh_store_pending_erasure", "Dead records awaiting physical erasure.", func() float64 { return float64(stats().PendingErasure) })
	r.GaugeFunc("bh_store_unsynced_records", "Appended records not yet fsynced.", func() float64 { return float64(stats().Unsynced) })
	r.GaugeFunc("bh_store_segments_cold", "Sealed segments not yet decoded (cold open).", func() float64 { return float64(stats().SegmentsCold) })
	r.GaugeFunc("bh_store_segments_hydrated", "Sealed segments decoded on demand since open.", func() float64 { return float64(stats().SegmentsHydrated) })
	r.GaugeFunc("bh_store_mapped_bytes", "Segment bytes currently mmap'd for scans.", func() float64 { return float64(stats().MappedBytes) })
}

// ObserveDetector exposes the engine's counters (updates, detections,
// event opens/closes, subscriber drop/evict) as scrape-time snapshots
// of Detector.Metrics — the same numbers /stats reports.
func (t *Telemetry) ObserveDetector(d *Detector) {
	r := t.reg
	m := func() Metrics { return d.Metrics() }
	r.CounterFunc("bh_engine_updates_total", "Updates processed post-cleaning.", func() uint64 { return m().UpdatesProcessed })
	r.CounterFunc("bh_engine_updates_cleaned_total", "Updates removed by §3 data cleaning.", func() uint64 { return m().UpdatesCleaned })
	r.CounterFunc("bh_engine_detections_total", "Classified blackholing announcements.", func() uint64 { return m().Detections })
	r.CounterFunc("bh_engine_explicit_ends_total", "Per-peer endings from withdrawals.", func() uint64 { return m().ExplicitEnds })
	r.CounterFunc("bh_engine_implicit_ends_total", "Per-peer endings from untagged re-announcements.", func() uint64 { return m().ImplicitEnds })
	r.CounterFunc("bh_engine_events_opened_total", "Prefix-level events started.", func() uint64 { return m().EventsOpened })
	r.CounterFunc("bh_engine_events_closed_total", "Prefix-level events closed.", func() uint64 { return m().EventsClosed })
	r.GaugeFunc("bh_engine_active_events", "Events currently open (opened − closed).",
		func() float64 { mm := m(); return float64(mm.EventsOpened) - float64(mm.EventsClosed) })
	r.CounterFunc("bh_engine_subscriber_drops_total", "Events dropped at bounded subscriber queues.", func() uint64 { return m().SubscriberDrops })
	r.CounterFunc("bh_engine_subscriber_evictions_total", "Subscribers evicted for falling behind.", func() uint64 { return m().SubscriberEvictions })
	r.GaugeFunc("bh_engine_subscribers", "Live event subscribers.", func() float64 { return float64(len(d.SubscriberStats())) })
}

// ObserveHub exposes the alert hub's counters and wires its publish
// latency histogram. Webhook deliveries/retries/dead-letters aggregate
// across endpoints.
func (t *Telemetry) ObserveHub(h *AlertHub) {
	r := t.reg
	s := func() AlertHubStats { return h.Stats() }
	r.CounterFunc("bh_alert_published_total", "Closed events evaluated against the rule set.", func() uint64 { return s().Published })
	r.CounterFunc("bh_alert_matches_total", "Rule firings (alerts emitted).", func() uint64 { return s().Alerts })
	r.CounterFunc("bh_alert_watcher_drops_total", "Alerts dropped at slow SSE watchers.", func() uint64 { return s().WatcherDrops })
	r.CounterFunc("bh_alert_encode_errors_total", "Alert payload encode failures.", func() uint64 { return s().EncodeErrors })
	r.GaugeFunc("bh_alert_rules", "Compiled alert rules.", func() float64 { return float64(s().Rules) })
	r.GaugeFunc("bh_alert_watchers", "Connected SSE watchers.", func() float64 { return float64(s().Watchers) })
	webhookSum := func(pick func(WebhookStats) uint64) func() uint64 {
		return func() uint64 {
			var n uint64
			for _, w := range s().Webhooks {
				n += pick(w)
			}
			return n
		}
	}
	r.CounterFunc("bh_alert_webhook_delivered_total", "Webhook deliveries acknowledged 2xx.", webhookSum(func(w WebhookStats) uint64 { return w.Delivered }))
	r.CounterFunc("bh_alert_webhook_retries_total", "Webhook delivery re-attempts.", webhookSum(func(w WebhookStats) uint64 { return w.Retries }))
	r.CounterFunc("bh_alert_webhook_dead_letters_total", "Webhook alerts abandoned after max attempts.", webhookSum(func(w WebhookStats) uint64 { return w.DeadLetters }))
	r.CounterFunc("bh_alert_webhook_dropped_total", "Webhook alerts discarded on queue overflow.", webhookSum(func(w WebhookStats) uint64 { return w.Dropped }))
	pub := r.Histogram("bh_alert_publish_seconds", "Alert-hub Publish latency (match + fan-out).", nil)
	h.SetPublishObserver(pub.Observe)
}

// ObserveRedial exposes one redial source's session-lifecycle counters
// as a labeled bh_redial_* family (source = collector address).
// Observe each source once; multiple sources get distinct label sets.
func (t *Telemetry) ObserveRedial(src *RedialSource) {
	r := t.reg
	names, values := []string{"source"}, []string{src.Addr()}
	s := func() RedialStats { return src.Stats() }
	r.CounterFuncLabeled("bh_redial_dials_total", "Connect+handshake attempts.", names, values, func() uint64 { return s().Dials })
	r.CounterFuncLabeled("bh_redial_establishes_total", "Sessions established.", names, values, func() uint64 { return s().Establishes })
	r.CounterFuncLabeled("bh_redial_reseeds_total", "RIB-dump reseeds after re-established sessions.", names, values, func() uint64 { return s().Reseeds })
	r.CounterFuncLabeled("bh_redial_reseed_failures_total", "Reseeds that failed (session continued).", names, values, func() uint64 { return s().ReseedFailures })
	r.CounterFuncLabeled("bh_redial_backoffs_total", "Backoff waits after failed dials or lost sessions.", names, values, func() uint64 { return s().Backoffs })
	r.GaugeFuncLabeled("bh_redial_gave_up", "1 once the retry budget is exhausted.", names, values, func() float64 { return float64(s().GaveUp) })
}

// instrument wraps an HTTP handler with the request middleware:
// per-route request counter with status-class label, in-flight gauge,
// and duration histogram. route is the mux pattern the handler was
// registered under, resolved statically so no per-request pattern
// lookup is needed.
func (t *Telemetry) instrument(route string, h http.Handler) http.Handler {
	hist := t.httpSeconds.With(route)
	// Status classes are a closed set: resolve the children once.
	classes := [6]*obs.Counter{
		nil,
		t.httpRequests.With(route, "1xx"),
		t.httpRequests.With(route, "2xx"),
		t.httpRequests.With(route, "3xx"),
		t.httpRequests.With(route, "4xx"),
		t.httpRequests.With(route, "5xx"),
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
