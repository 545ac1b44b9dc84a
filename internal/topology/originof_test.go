package topology

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"

	"bgpblackholing/internal/bgp"
)

// aggregate is one originated prefix, listed in scan order: ASes in
// Order, each AS's Prefixes in order.
type aggregate struct {
	asn bgp.ASN
	p   netip.Prefix
}

func aggregatesInScanOrder(t *Topology) []aggregate {
	var out []aggregate
	for _, asn := range t.Order {
		for _, p := range t.ASes[asn].Prefixes {
			out = append(out, aggregate{asn, p})
		}
	}
	return out
}

// coveringScan is the reference OriginOf's aggregate index is checked
// against: a linear scan keeping the first longest aggregate that
// contains addr.
func coveringScan(aggs []aggregate, addr netip.Addr) bgp.ASN {
	best := bgp.ASN(0)
	bestBits := -1
	for _, agg := range aggs {
		if agg.p.Addr().Is4() == addr.Is4() && agg.p.Contains(addr) && agg.p.Bits() > bestBits {
			best, bestBits = agg.asn, agg.p.Bits()
		}
	}
	return best
}

func TestOriginOfIndexMatchesScan(t *testing.T) {
	for _, scale := range []float64{0.1, 0.3} {
		topo, err := Generate(DefaultConfig().Scaled(scale))
		if err != nil {
			t.Fatal(err)
		}
		aggs := aggregatesInScanOrder(topo)
		r := rand.New(rand.NewSource(11))
		// check compares OriginOf with the reference at every length: the
		// covering aggregate depends on the address alone, the exact-match
		// short-circuit in front of it on the whole prefix.
		check := func(addr netip.Addr, lens ...int) bgp.ASN {
			t.Helper()
			covering := coveringScan(aggs, addr)
			for _, l := range lens {
				p := netip.PrefixFrom(addr, l)
				want := covering
				if asn, ok := topo.originOf[p]; ok {
					want = asn
				}
				if got := topo.OriginOf(p); got != want {
					t.Fatalf("scale %.1f: OriginOf(%v) = %d, scan says %d", scale, p, got, want)
				}
			}
			return covering
		}
		for _, agg := range aggs {
			if got := check(agg.p.Addr(), agg.p.Bits()); got == 0 {
				t.Fatalf("scale %.1f: aggregate %v of AS%d has no origin", scale, agg.p, agg.asn)
			}
			// Random hosts under the aggregate (host bits left set), asked
			// for at lengths shorter than, equal to and longer than any
			// aggregate.
			for i := 0; i < 50; i++ {
				if agg.p.Addr().Is6() {
					raw := agg.p.Addr().As16()
					binary.BigEndian.PutUint64(raw[8:], r.Uint64())
					check(netip.AddrFrom16(raw), 128)
					continue
				}
				raw := agg.p.Addr().As4()
				v := binary.BigEndian.Uint32(raw[:]) | r.Uint32()>>agg.p.Bits()
				binary.BigEndian.PutUint32(raw[:], v)
				check(netip.AddrFrom4(raw), 12, 16, 20, 24, 25, 26, 27, 28, 29, 30, 31, 32)
			}
		}
		hit := 0
		for i := 0; i < 20000; i++ {
			var raw [4]byte
			binary.BigEndian.PutUint32(raw[:], r.Uint32())
			if check(netip.AddrFrom4(raw), 32) != 0 {
				hit++
			}
		}
		if hit == 0 || hit == 20000 {
			t.Fatalf("scale %.1f: %d of 20000 random /32s resolved; want both hits and misses", scale, hit)
		}
		if got := topo.OriginOf(netip.Prefix{}); got != 0 {
			t.Fatalf("OriginOf(invalid) = %d", got)
		}
		check(netip.MustParseAddr("::ffff:10.1.2.3"), 128)
	}
}
