package collector

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/topology"
)

// TestPropagateIgnoresTime pins the property the replay's propagate-once
// materialisation rests on: Announcement.Time reaches Update.Time and
// nothing else — not the flood, not import policy, not authentication,
// not the route servers, not the drop sets.
func TestPropagateIgnoresTime(t *testing.T) {
	topo, err := topology.Generate(topology.DefaultConfig().Scaled(0.15))
	if err != nil {
		t.Fatal(err)
	}
	d := Deploy(topo, DefaultConfig().Scaled(0.15))
	r := rand.New(rand.NewSource(7))
	t1 := t0.Add(977*time.Hour + 13*time.Second)

	const n = 600
	kinds := map[string]int{}
	observed, dropped, rejected := 0, 0, 0
	for i := 0; i < n; i++ {
		kind, a := randomAnnouncement(r, topo, i)
		kinds[kind]++
		a.Time = t0
		x := d.Propagate(a)
		a.Time = t1
		y := d.Propagate(a)

		if x.Prefix != y.Prefix || x.User != y.User ||
			!reflect.DeepEqual(x.DroppingASes, y.DroppingASes) ||
			!reflect.DeepEqual(x.DroppingIXPMembers, y.DroppingIXPMembers) ||
			!reflect.DeepEqual(x.AcceptedIXPs, y.AcceptedIXPs) ||
			!reflect.DeepEqual(x.Rejections, y.Rejections) {
			t.Fatalf("%s announcement %d: result depends on Time\n%+v\n%+v", kind, i, x, y)
		}
		if len(x.Observations) != len(y.Observations) {
			t.Fatalf("%s announcement %d: %d observations at t0, %d at t1", kind, i, len(x.Observations), len(y.Observations))
		}
		for j := range x.Observations {
			ox, oy := x.Observations[j], y.Observations[j]
			if ox.Collector != oy.Collector || ox.Session != oy.Session {
				t.Fatalf("%s announcement %d: observation %d moved session", kind, i, j)
			}
			if !ox.Update.Time.Equal(t0) || !oy.Update.Time.Equal(t1) {
				t.Fatalf("%s announcement %d: observation %d stamped %v / %v", kind, i, j, ox.Update.Time, oy.Update.Time)
			}
			ux, uy := *ox.Update, *oy.Update
			ux.Time, uy.Time = time.Time{}, time.Time{}
			if !reflect.DeepEqual(ux, uy) {
				t.Fatalf("%s announcement %d: observation %d differs beyond Time\n%+v\n%+v", kind, i, j, ux, uy)
			}
		}
		observed += len(x.Observations)
		dropped += len(x.DroppingASes)
		rejected += len(x.Rejections)
	}
	for _, kind := range []string{"targeted", "bundled", "ixp-only", "ipv6", "non-/32", "unknown-user"} {
		if kinds[kind] == 0 {
			t.Errorf("no %s announcement among %d", kind, n)
		}
	}
	if observed == 0 || dropped == 0 || rejected == 0 {
		t.Fatalf("sample exercises too little: %d observations, %d dropping ASes, %d RS rejections", observed, dropped, rejected)
	}
}

// randomAnnouncement draws one announcement of a rotating kind from a
// random user of the topology.
func randomAnnouncement(r *rand.Rand, topo *topology.Topology, i int) (string, Announcement) {
	user := topo.AS(topo.Order[r.Intn(len(topo.Order))])
	b := user.Prefixes[0].Addr().As4()
	host := netip.AddrFrom4([4]byte{b[0], b[1], byte(r.Intn(256)), byte(1 + r.Intn(250))})
	a := Announcement{
		User:     user.ASN,
		Prefix:   netip.PrefixFrom(host, 32),
		NoExport: r.Intn(4) == 0,
	}
	// Tag with the trigger community of every blackholing provider and
	// IXP in reach, sometimes a wrong one, sometimes none at all.
	for _, p := range user.Providers {
		if svc := topo.AS(p).Blackholing; svc != nil {
			a.Communities = append(a.Communities, svc.Communities[0])
			a.LargeCommunities = append(a.LargeCommunities, svc.LargeCommunities...)
		}
	}
	for _, xid := range user.IXPs {
		if svc := topo.IXPs[xid].Blackholing; svc != nil {
			a.Communities = append(a.Communities, svc.Communities[0])
		}
	}
	switch r.Intn(8) {
	case 0:
		a.Communities = nil
	case 1:
		a.Communities = []bgp.Community{bgp.MakeCommunity(uint16(user.ASN), 13)}
	}

	kind := []string{"targeted", "bundled", "ixp-only", "ipv6", "non-/32", "unknown-user"}[i%6]
	switch kind {
	case "targeted":
		a.TargetProviders = user.Providers
		a.TargetIXPs = user.IXPs
	case "bundled":
		a.Bundled = true
	case "ixp-only":
		// Any IXP, the user's own or one it is no member of.
		a.TargetIXPs = []int{r.Intn(len(topo.IXPs))}
		if len(user.IXPs) > 0 && r.Intn(2) == 0 {
			a.TargetIXPs = user.IXPs
		}
	case "ipv6":
		a.Bundled = r.Intn(2) == 0
		a.TargetProviders = user.Providers
		a.TargetIXPs = user.IXPs
		a.Prefix = netip.PrefixFrom(netip.AddrFrom16([16]byte{0x2a, 0, b[0], b[1], 15: byte(1 + r.Intn(250))}), 128)
		for _, p := range user.Prefixes {
			if p.Addr().Is6() {
				h := p.Addr().As16()
				h[15] = byte(1 + r.Intn(250))
				a.Prefix = netip.PrefixFrom(netip.AddrFrom16(h), 128)
			}
		}
	case "non-/32":
		a.Bundled = r.Intn(2) == 0
		a.TargetProviders = user.Providers
		a.TargetIXPs = user.IXPs
		// /16 … /31: ordinary prefixes, /24 and the blackhole-only lengths;
		// every third one borrowed from another AS's space.
		if i%18 == 4 {
			b = topo.AS(topo.Order[r.Intn(len(topo.Order))]).Prefixes[0].Addr().As4()
			host = netip.AddrFrom4([4]byte{b[0], b[1], byte(r.Intn(256)), byte(r.Intn(256))})
		}
		a.Prefix, _ = host.Prefix(16 + r.Intn(16))
	case "unknown-user":
		a.User = 4_000_000 + bgp.ASN(r.Intn(1000))
		a.Bundled = r.Intn(2) == 0
		a.TargetProviders = user.Providers
		a.TargetIXPs = user.IXPs
	}
	return kind, a
}
