package topology

import (
	"sort"

	"bgpblackholing/internal/bgp"
)

// RouteType ranks how a route was learned, in Gao-Rexford preference
// order: customer routes beat peer routes beat provider routes.
type RouteType int

// Route preference classes (higher is preferred).
const (
	RouteNone     RouteType = 0
	RouteProvider RouteType = 1
	RoutePeer     RouteType = 2
	RouteCustomer RouteType = 3
)

// String names the route type.
func (rt RouteType) String() string {
	switch rt {
	case RouteCustomer:
		return "customer"
	case RoutePeer:
		return "peer"
	case RouteProvider:
		return "provider"
	}
	return "none"
}

// Route is one AS's best route toward a destination AS.
type Route struct {
	Type RouteType
	// NextHop is the neighbor the route was learned from (zero at the
	// destination itself).
	NextHop bgp.ASN
	// Len is the AS-path length (0 at the destination).
	Len int
}

// RoutingTable holds every AS's best route toward one destination AS,
// computed under valley-free (Gao-Rexford) policies with shortest-path
// and lowest-next-hop tie-breaking.
type RoutingTable struct {
	Dst    bgp.ASN
	routes map[bgp.ASN]Route
	topo   *Topology
}

// Route returns src's best route toward the destination and whether one
// exists.
func (rt *RoutingTable) Route(src bgp.ASN) (Route, bool) {
	r, ok := rt.routes[src]
	return r, ok
}

// Path returns the AS path from src to the destination, both endpoints
// included, or nil when the destination is unreachable. For src == dst
// the path is [dst].
func (rt *RoutingTable) Path(src bgp.ASN) []bgp.ASN {
	r, ok := rt.routes[src]
	if !ok {
		return nil
	}
	path := make([]bgp.ASN, 0, r.Len+1)
	cur := src
	path = append(path, cur)
	for cur != rt.Dst {
		nxt := rt.routes[cur].NextHop
		if nxt == 0 {
			return nil // defensive: broken chain
		}
		path = append(path, nxt)
		cur = nxt
		if len(path) > len(rt.routes)+1 {
			return nil // defensive: cycle
		}
	}
	return path
}

// RoutesTo computes (and caches) the routing table toward dst. Safe for
// concurrent use; the cache lives and dies with the topology.
func (t *Topology) RoutesTo(dst bgp.ASN) *RoutingTable {
	t.routesMu.Lock()
	defer t.routesMu.Unlock()
	if tbl, ok := t.routes[dst]; ok {
		return tbl
	}
	if t.routes == nil {
		t.routes = map[bgp.ASN]*RoutingTable{}
	}
	tbl := t.computeRoutes(dst)
	t.routes[dst] = tbl
	return tbl
}

// PathBetween returns the valley-free AS path from src to dst (both
// included), or nil when unreachable.
func (t *Topology) PathBetween(src, dst bgp.ASN) []bgp.ASN {
	return t.RoutesTo(dst).Path(src)
}

func better(cand Route, cur Route) bool {
	if cand.Type != cur.Type {
		return cand.Type > cur.Type
	}
	if cand.Len != cur.Len {
		return cand.Len < cur.Len
	}
	return cand.NextHop < cur.NextHop
}

// computeRoutes runs the three-phase valley-free propagation:
//
//  1. customer routes climb provider links (BFS up),
//  2. ASes holding customer routes (or the origin) export to peers,
//  3. any route is exported down to customers (BFS down).
func (t *Topology) computeRoutes(dst bgp.ASN) *RoutingTable {
	routes := map[bgp.ASN]Route{dst: {Type: RouteCustomer, Len: 0}}
	if t.ASes[dst] == nil {
		return &RoutingTable{Dst: dst, routes: map[bgp.ASN]Route{}, topo: t}
	}

	// Phase 1: customer routes propagate upward.
	frontier := []bgp.ASN{dst}
	for len(frontier) > 0 {
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
		var next []bgp.ASN
		for _, u := range frontier {
			ru := routes[u]
			for _, p := range t.ASes[u].Providers {
				cand := Route{Type: RouteCustomer, NextHop: u, Len: ru.Len + 1}
				if cur, ok := routes[p]; !ok || better(cand, cur) {
					if !ok || cur.Len > cand.Len {
						next = append(next, p)
					}
					routes[p] = cand
				}
			}
		}
		frontier = next
	}

	// Phase 2: peer export. Only ASes with customer routes (including the
	// origin) export to peers; peers do not re-export to other peers.
	var holders []bgp.ASN
	for a, r := range routes {
		if r.Type == RouteCustomer {
			holders = append(holders, a)
		}
	}
	sort.Slice(holders, func(i, j int) bool { return holders[i] < holders[j] })
	for _, u := range holders {
		ru := routes[u]
		for _, p := range t.ASes[u].Peers {
			cand := Route{Type: RoutePeer, NextHop: u, Len: ru.Len + 1}
			if cur, ok := routes[p]; !ok || better(cand, cur) {
				routes[p] = cand
			}
		}
	}

	// Phase 3: everything propagates down customer links. BFS by path
	// length so shorter provider routes win deterministically.
	frontier = frontier[:0]
	for a := range routes {
		frontier = append(frontier, a)
	}
	for len(frontier) > 0 {
		sort.Slice(frontier, func(i, j int) bool {
			ri, rj := routes[frontier[i]], routes[frontier[j]]
			if ri.Len != rj.Len {
				return ri.Len < rj.Len
			}
			return frontier[i] < frontier[j]
		})
		var next []bgp.ASN
		for _, u := range frontier {
			ru := routes[u]
			for _, c := range t.ASes[u].Customers {
				cand := Route{Type: RouteProvider, NextHop: u, Len: ru.Len + 1}
				if cur, ok := routes[c]; !ok || better(cand, cur) {
					grew := !ok || cur.Len > cand.Len || cur.Type < cand.Type
					routes[c] = cand
					if grew {
						next = append(next, c)
					}
				}
			}
		}
		frontier = next
	}

	return &RoutingTable{Dst: dst, routes: routes, topo: t}
}

// Reachable reports how many ASes hold a route toward dst.
func (rt *RoutingTable) Reachable() int { return len(rt.routes) }
