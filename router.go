package bgpblackholing

import "net/http"

// RouterOptions configures NewRouterHandler. A router is the same
// handler as a store server, so it takes the same options; bhroute sets
// AuthToken, RateLimit and Telemetry (whose /metrics then carries the
// per-shard federation counters).
type RouterOptions = HandlerOptions

// NewRouterHandler serves a federated query tier over HTTP: the same read
// surface as NewStoreHandler, over a FederatedStore, each route as its row
// of routes (http.go) says — merged from the shards the query can live on,
// or 501 for the store-only /figure8, /table3 and /table4. The alerting
// surface is absent unless a Hub is passed.
//
// Partial results: when some (not all) of the shards a route asked fail,
// it still answers, counting the shards missing at any depth in the
// X-Shards-Failed header or the body (the /stats shards block, the
// /healthz checks). When every asked shard fails it answers 502 — for a
// placed query that is its one owner: its events are nowhere else.
//
// The handler reads no identities itself: call fed.Stats once before
// serving (bhroute does, and logs fed.Placement), or the first /stats or
// /events request that reaches every shard does it.
func NewRouterHandler(fed *FederatedStore, opts RouterOptions) http.Handler {
	return newHandler(fed, opts)
}

// observeFederation registers per-shard federation counters, labeled by
// shard name — lifetime requests, failures, hedges and queries the plan
// placed elsewhere — and the shard-count gauge.
func (t *Telemetry) observeFederation(fed *FederatedStore) {
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
