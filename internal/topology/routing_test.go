package topology

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"bgpblackholing/internal/bgp"
)

// buildChain wires a tiny hand-made fixture:
//
//	T1a(10) ──peer── T1b(11)
//	  │                │
//	  M1(20) ──peer── M2(21)
//	  │                │
//	  S1(30)          S2(31)
//
// with vertical edges customer-provider.
func buildChain() *Topology {
	t := &Topology{ASes: map[bgp.ASN]*AS{}, routeServerOf: map[bgp.ASN]*IXP{}}
	add := func(asn bgp.ASN) *AS {
		a := &AS{ASN: asn, DeclaredKind: KindTransitAccess, CAIDAKind: KindTransitAccess, Country: "US"}
		t.ASes[asn] = a
		t.Order = append(t.Order, asn)
		return a
	}
	t1a, t1b := add(10), add(11)
	m1, m2 := add(20), add(21)
	s1, s2 := add(30), add(31)
	peer := func(a, b *AS) {
		a.Peers = append(a.Peers, b.ASN)
		b.Peers = append(b.Peers, a.ASN)
	}
	cust := func(provider, customer *AS) {
		provider.Customers = append(provider.Customers, customer.ASN)
		customer.Providers = append(customer.Providers, provider.ASN)
	}
	peer(t1a, t1b)
	peer(m1, m2)
	cust(t1a, m1)
	cust(t1b, m2)
	cust(m1, s1)
	cust(m2, s2)
	return t
}

func TestRoutingReachesEveryone(t *testing.T) {
	topo := buildChain()
	rt := topo.RoutesTo(30) // S1
	if rt.Reachable() != len(topo.Order) {
		t.Fatalf("reachable = %d, want %d", rt.Reachable(), len(topo.Order))
	}
}

func TestRoutingPrefersCustomerOverPeer(t *testing.T) {
	topo := buildChain()
	// From M2's perspective toward S1: the peer route via M1 (len 2)
	// must beat the provider route via T1b (len 3+).
	rt := topo.RoutesTo(30)
	r, ok := rt.Route(21)
	if !ok {
		t.Fatal("M2 has no route")
	}
	if r.Type != RoutePeer || r.NextHop != 20 {
		t.Fatalf("M2 route = %+v, want peer via 20", r)
	}
	// From T1a toward S1: customer route via M1.
	r, _ = rt.Route(10)
	if r.Type != RouteCustomer || r.NextHop != 20 {
		t.Fatalf("T1a route = %+v, want customer via 20", r)
	}
}

func TestRoutingValleyFree(t *testing.T) {
	topo := buildChain()
	// S2 → S1 must go up to M2, across the peer link to M1, down to S1
	// (not across both Tier-1s and a second peer link — that would be a
	// valley).
	path := topo.PathBetween(31, 30)
	want := []bgp.ASN{31, 21, 20, 30}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestRoutingPathEndpoints(t *testing.T) {
	topo := buildChain()
	rt := topo.RoutesTo(30)
	self := rt.Path(30)
	if len(self) != 1 || self[0] != 30 {
		t.Fatalf("self path = %v", self)
	}
	if p := rt.Path(9999); p != nil {
		t.Fatalf("path from unknown AS = %v, want nil", p)
	}
}

func TestRoutingNoPeerToPeerValley(t *testing.T) {
	// A ──peer── B ──peer── C: C must NOT reach A (peer routes are not
	// re-exported to peers) unless another policy-compliant path exists.
	topo := &Topology{ASes: map[bgp.ASN]*AS{}, routeServerOf: map[bgp.ASN]*IXP{}}
	for _, asn := range []bgp.ASN{1, 2, 3} {
		topo.ASes[asn] = &AS{ASN: asn}
		topo.Order = append(topo.Order, asn)
	}
	link := func(a, b bgp.ASN) {
		topo.ASes[a].Peers = append(topo.ASes[a].Peers, b)
		topo.ASes[b].Peers = append(topo.ASes[b].Peers, a)
	}
	link(1, 2)
	link(2, 3)
	rt := topo.RoutesTo(1)
	if _, ok := rt.Route(3); ok {
		t.Fatal("peer-peer-peer valley path must not exist")
	}
	if _, ok := rt.Route(2); !ok {
		t.Fatal("direct peer must have a route")
	}
}

func TestRoutingGeneratedWorldConnectivity(t *testing.T) {
	topo := smallWorld(t)
	// Every AS should reach a Tier-1 destination: Tier-1s sit atop the
	// hierarchy, so provider routes propagate down to everyone.
	var tier1 bgp.ASN
	for _, asn := range topo.Order {
		if topo.ASes[asn].Tier1 {
			tier1 = asn
			break
		}
	}
	rt := topo.RoutesTo(tier1)
	if rt.Reachable() < len(topo.Order)*95/100 {
		t.Fatalf("only %d/%d ASes reach a Tier-1", rt.Reachable(), len(topo.Order))
	}
}

func TestRoutingDeterministic(t *testing.T) {
	topo := buildChain()
	p1 := topo.PathBetween(31, 30)
	p2 := topo.PathBetween(31, 30)
	if len(p1) != len(p2) {
		t.Fatal("routing not deterministic")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("routing not deterministic")
		}
	}
}

func TestRoutingUnknownDestination(t *testing.T) {
	topo := buildChain()
	rt := topo.RoutesTo(424242)
	if rt.Reachable() != 0 {
		t.Fatal("unknown destination should be unreachable")
	}
}

// TestRoutingCacheDiesWithTopology: the routing tables a topology caches
// are its own, so a topology that has computed routes is collected once
// nothing else holds it; concurrent lookups share one table.
func TestRoutingCacheDiesWithTopology(t *testing.T) {
	var gone weak.Pointer[Topology]
	func() {
		topo := smallWorld(t)
		gone = weak.Make(topo)
		src, dst := topo.Order[len(topo.Order)-1], topo.Order[0]
		topo.CustomerCone(dst)
		if topo.PathBetween(src, dst) == nil {
			t.Fatalf("no path from AS%d to AS%d", src, dst)
		}
		var wg sync.WaitGroup
		tables := make([]*RoutingTable, 4)
		for i := range tables {
			wg.Add(1)
			go func() { defer wg.Done(); tables[i] = topo.RoutesTo(dst) }()
		}
		wg.Wait()
		for _, tbl := range tables {
			if tbl != tables[0] {
				t.Fatal("concurrent RoutesTo built two tables for one destination")
			}
		}
	}()
	for deadline := time.Now().Add(2 * time.Second); gone.Value() != nil && time.Now().Before(deadline); {
		runtime.GC()
	}
	if gone.Value() != nil {
		t.Fatal("a topology that computed a route is still reachable")
	}
}
