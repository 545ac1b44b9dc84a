package bgpblackholing

import "net/http"

// RouterOptions configures NewRouterHandler. A router is the same
// handler as a store server, so it takes the same options; bhroute sets
// AuthToken, RateLimit and Telemetry (which also gets the per-shard
// federation counters — ObserveFederation is called for you).
type RouterOptions = HandlerOptions

// NewRouterHandler serves a federated query tier over HTTP: the same
// read surface as NewStoreHandler, answered by fanning out to the
// federation's shard backends and merging. Routes:
//
//	/healthz       federation health; every shard is probed and a
//	               down or degraded shard surfaces as a
//	               "shard:<name>..." check (503), shard identities
//	               that contradict each other as a "placement" check,
//	               with the historical {"status","events"} keys intact
//	/stats         aggregated store shape (flat StoreStats keys, so
//	               existing decoders keep working) plus a
//	               version-tagged "shards" block with per-shard
//	               status, advertised identity and lifetime
//	               request/failure/hedge/skipped counters; answering it
//	               is also how the federation (re)reads its shards'
//	               identities
//	/events        federated query; same parameters as the store
//	               handler, JSON, NDJSON or lines, sent to the one shard the
//	               learned plan files the query's prefix on or, when it
//	               places none, to every shard; limits pushed down per
//	               shard and re-applied after the global merge
//	/legitimacy    per-shard summaries, histograms summed
//	/figure4       per-shard per-day entity sets, unioned then
//	               counted (distinct counts stay exact across
//	               shards); shape=sets serves the mergeable form so
//	               routers can themselves be federated
//	/metrics       Prometheus exposition (with Telemetry)
//
// Partial results: when some (not all) of the shards a route asked fail,
// data routes answer 200 with the X-Shards-Failed header counting the
// missing shards, and /stats marks the shard "down" in the shards block.
// Only when every asked shard fails does a route answer 502 — for a
// placed query that is its one owner: its events are nowhere else.
//
// The handler reads no identities itself: call fed.Stats once before
// serving (bhroute does, and logs fed.Placement), or the first /stats or
// /events request that reaches every shard does it.
//
// The aggregation endpoints that walk whole events (/figure8, /table3,
// /table4) are absent — a FederatedStore has no table capability — and
// so is the alerting surface unless a Hub is passed: both belong to the
// shard servers, not the router.
func NewRouterHandler(fed *FederatedStore, opts RouterOptions) http.Handler {
	if opts.Telemetry != nil {
		opts.Telemetry.ObserveFederation(fed)
	}
	return newHandler(fed, opts)
}

// ObserveFederation registers per-shard federation counters, labeled by
// shard name — lifetime requests, failures, hedges and queries the plan
// placed elsewhere — and the shard-count gauge.
func (t *Telemetry) ObserveFederation(fed *FederatedStore) {
	r := t.reg
	names := []string{"shard"}
	for i, b := range fed.backends {
		c := &fed.counters[i]
		values := []string{b.Name()}
		r.CounterFuncLabeled("bh_federation_shard_requests_total", "Fan-out requests sent to the shard.", names, values, c.requests.Load)
		r.CounterFuncLabeled("bh_federation_shard_failures_total", "Fan-out requests the shard failed to answer.", names, values, c.failures.Load)
		r.CounterFuncLabeled("bh_federation_shard_hedges_total", "Hedged retries raced against the shard's replicas.", names, values, func() uint64 { return hedges(b) })
		r.CounterFuncLabeled("bh_federation_shard_skipped_total", "Queries the learned plan placed on another shard, so never sent to this one.", names, values, c.skipped.Load)
	}
	r.GaugeFunc("bh_federation_shards", "Number of shards behind this router.", func() float64 {
		return float64(len(fed.backends))
	})
}
