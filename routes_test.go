package bgpblackholing

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// routeCheck is what TestEveryRouteFederates knows of one route: the
// shapes it asks each query in, how a router's answer equals the
// store's, and where an answer says how many shards it misses.
type routeCheck struct {
	shapes   []string                             // parameters added to every query, "" for none
	same     func(store, routed []byte) bool      // with every shard up, nil for a store-only route
	lost     func(h http.Header, body []byte) int // the shards the answer misses
	degraded int                                  // the status of an answer missing shards, 0 for the store's
}

// headerLost reads X-Shards-Failed, absent as 0.
func headerLost(h http.Header, _ []byte) int {
	n, _ := strconv.Atoi(h.Get(shardsFailedKey))
	return n
}

// routeChecks holds one check per row of routes, keyed by pattern.
var routeChecks = map[string]routeCheck{
	"GET /healthz": {
		shapes:   []string{""},
		degraded: http.StatusServiceUnavailable,
		same:     bytes.Equal,
		lost: func(_ http.Header, body []byte) (n int) {
			var health struct{ Checks map[string]string }
			json.Unmarshal(body, &health)
			for _, v := range health.Checks {
				if strings.HasPrefix(v, "down") {
					n++
				}
			}
			return n
		},
	},
	"GET /stats": {
		shapes: []string{""},
		same: func(store, routed []byte) bool {
			var s, r BackendStats
			return json.Unmarshal(store, &s) == nil && json.Unmarshal(routed, &r) == nil &&
				s.Events == r.Events && s.MinStart.Equal(r.MinStart) && s.MaxEnd.Equal(r.MaxEnd)
		},
		lost: func(_ http.Header, body []byte) int {
			var s BackendStats
			if json.Unmarshal(body, &s) != nil {
				return -1
			}
			if s.Shards == nil {
				return 0 // a store's
			}
			return s.Shards.Failed
		},
	},
	"GET /events": {
		shapes: []string{"", "format=ndjson"},
		same: func(store, routed []byte) bool {
			if !bytes.HasPrefix(store, []byte("{\n")) {
				return bytes.Equal(store, routed) // NDJSON
			}
			// elapsed and scanned are timing- and shard-local
			var s, r struct {
				Total, Returned int
				Events          json.RawMessage
			}
			return json.Unmarshal(store, &s) == nil && json.Unmarshal(routed, &r) == nil &&
				s.Total == r.Total && s.Returned == r.Returned && bytes.Equal(s.Events, r.Events)
		},
		lost: headerLost,
	},
	"GET /legitimacy": {
		shapes: []string{""},
		same: func(store, routed []byte) bool {
			var s, r LegitimacySummary
			if json.Unmarshal(store, &s) != nil || json.Unmarshal(routed, &r) != nil {
				return false
			}
			s.ElapsedUS, r.ElapsedUS = 0, 0
			return reflect.DeepEqual(s, r)
		},
		lost: func(h http.Header, body []byte) int {
			var sum LegitimacySummary
			if json.Unmarshal(body, &sum) != nil || sum.ShardsFailed != headerLost(h, body) {
				return -1 // the header and the body disagree
			}
			return sum.ShardsFailed
		},
	},
	"GET /figure4": {
		shapes: []string{"", "shape=sets"},
		same:   bytes.Equal,
		lost: func(h http.Header, body []byte) int {
			if !bytes.HasPrefix(body, []byte(`{"start"`)) {
				return headerLost(h, body) // the counted series
			}
			var sets struct {
				ShardsFailed int `json:"shards_failed"`
			}
			if json.Unmarshal(body, &sets) != nil {
				return -1
			}
			return sets.ShardsFailed
		},
	},
	"GET /figure8": {shapes: []string{""}},
	"GET /table3":  {shapes: []string{""}},
	"GET /table4":  {shapes: []string{""}},
}

// TestEveryRouteFederates drives every row of routes over three
// topologies — one store, a router over three HTTP shards and a router
// over that router — with every shard up, one down and one hostile,
// asking each route the querySeeds. With every shard up, a merged route
// answers what the store answers; with a shard lost, every tier says so,
// in the header or the body; a store-only route answers a router's
// client 501, naming itself. A row this test has no check for fails it.
func TestEveryRouteFederates(t *testing.T) {
	f := newFederationFixture(t)
	store := httptest.NewServer(NewStoreHandlerWith(f.single, f.p, HandlerOptions{}))
	defer store.Close()
	// hostile answers every request 200, with two JSON values on a line.
	hostile := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("{} {}\n"))
	}))
	defer hostile.Close()
	// tiers serves a router over the shards at urls, and a router over it.
	tiers := func(urls ...string) (router, routers string) {
		remote := func(name, url string) Backend {
			rb, err := NewRemoteBackend([]string{url}, RemoteOptions{Name: name})
			if err != nil {
				t.Fatal(err)
			}
			return rb
		}
		shards := make([]Backend, len(urls))
		for i, u := range urls {
			shards[i] = remote(fmt.Sprintf("shard-%d", i), u)
		}
		inner := httptest.NewServer(NewRouterHandler(NewFederatedStore(shards...), RouterOptions{}))
		outer := httptest.NewServer(NewRouterHandler(NewFederatedStore(remote("router", inner.URL)), RouterOptions{}))
		t.Cleanup(func() { outer.Close(); inner.Close() })
		return inner.URL, outer.URL
	}

	type topology struct{ name, url string }
	states := []struct {
		name       string
		topologies func() []topology
		lost       int
	}{
		{"all up", func() []topology {
			servers, _ := f.startShardServers(t, "time-partition")
			router, routers := tiers(servers[0].URL, servers[1].URL, servers[2].URL)
			return []topology{{"store", store.URL}, {"router", router}, {"router of routers", routers}}
		}, 0},
		{"one down", func() []topology {
			servers, _ := f.startShardServers(t, "time-partition")
			servers[0].Close()
			router, routers := tiers(servers[0].URL, servers[1].URL, servers[2].URL)
			return []topology{{"router", router}, {"router of routers", routers}}
		}, 1},
		{"one hostile", func() []topology {
			servers, _ := f.startShardServers(t, "time-partition")
			router, routers := tiers(hostile.URL, servers[1].URL, servers[2].URL)
			return []topology{{"router", router}, {"router of routers", routers}}
		}, 1},
	}

	type answer struct {
		status int
		body   []byte
	}
	answers := map[string]answer{} // the store's, by path
	for _, rt := range routes {
		if _, ok := routeChecks[rt.pattern]; !ok {
			t.Errorf("route %s: TestEveryRouteFederates has no check for it", rt.pattern)
		}
	}
	for _, state := range states {
		for _, top := range state.topologies() {
			for _, rt := range routes {
				c, ok := routeChecks[rt.pattern]
				if !ok {
					continue
				}
				route := strings.TrimPrefix(rt.pattern, "GET ")
				for _, shape := range c.shapes {
					for _, q := range querySeeds {
						path := route
						if params := strings.Trim(shape+"&"+q, "&"); params != "" {
							path += "?" + params
						}
						want, ok := answers[path]
						if !ok {
							resp, body := get(t, store.URL, path)
							want = answer{resp.StatusCode, body}
							answers[path] = want
						}
						resp, body := get(t, top.url, path)
						where := fmt.Sprintf("%s, %s, %s", state.name, top.name, path)
						if !rt.merged && top.name != "store" {
							var e struct{ Error string }
							if resp.StatusCode != http.StatusNotImplemented || json.Unmarshal(body, &e) != nil || !strings.Contains(e.Error, route) {
								t.Errorf("%s: store-only route answers %d %.200s; want 501 naming %s", where, resp.StatusCode, body, route)
							}
							continue
						}
						status := want.status
						if state.lost > 0 && c.degraded != 0 {
							status = c.degraded
						}
						if resp.StatusCode != status {
							t.Errorf("%s: status %d, want %d: %.200s", where, resp.StatusCode, status, body)
							continue
						}
						if want.status != http.StatusOK || !rt.merged {
							continue
						}
						if state.lost == 0 && !c.same(want.body, body) {
							t.Errorf("%s: the answer is not the store's\nstore  %.300s\nrouted %.300s", where, want.body, body)
						}
						if n := c.lost(resp.Header, body); n != state.lost {
							t.Errorf("%s: the answer says %d shards are missing, want %d", where, n, state.lost)
						}
					}
				}
			}
		}
	}
}
