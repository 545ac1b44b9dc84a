package rpki

import (
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"testing"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/topology"
)

// randomRegistry builds a registry of n random ROAs, mixing IPv4 and
// IPv6 with clustered address bytes so covering chains actually occur.
func randomRegistry(r *rand.Rand, n int) *Registry {
	reg := &Registry{}
	for i := 0; i < n; i++ {
		reg.Add(randomROA(r))
	}
	return reg
}

func randomROA(r *rand.Rand) ROA {
	if r.Intn(2) == 0 {
		bits := r.Intn(33)
		a := netip.AddrFrom4([4]byte{byte(10 + r.Intn(3)), byte(r.Intn(4)), byte(r.Intn(4)), byte(r.Intn(256))})
		p, _ := a.Prefix(bits)
		maxLen := bits + r.Intn(33-bits)
		return ROA{Prefix: p, MaxLength: maxLen, ASN: bgp.ASN(1 + r.Intn(8))}
	}
	bits := r.Intn(129)
	var b [16]byte
	b[0], b[1] = 0x20, 0x01
	b[2], b[3] = byte(r.Intn(3)), byte(r.Intn(4))
	b[7] = byte(r.Intn(4))
	b[15] = byte(r.Intn(256))
	p, _ := netip.AddrFrom16(b).Prefix(bits)
	maxLen := bits + r.Intn(129-bits)
	return ROA{Prefix: p, MaxLength: maxLen, ASN: bgp.ASN(1 + r.Intn(8))}
}

// randomQuery draws a prefix from the same clustered space, so queries
// hit the registry often but not always.
func randomQuery(r *rand.Rand) netip.Prefix {
	roa := randomROA(r)
	return roa.Prefix
}

// TestCoveringROAsMatchesScan property-tests the indexed covering
// lookup against the naive O(n) definition over random registries.
func TestCoveringROAsMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		reg := randomRegistry(r, 1+r.Intn(120))
		roas := reg.ROAs()
		for q := 0; q < 40; q++ {
			p := randomQuery(r)
			got := reg.CoveringROAs(p)
			// Naive definition: every registered ROA that covers p.
			want := map[ROA]int{}
			for _, roa := range roas {
				if roa.Covers(p) {
					want[ROA{Prefix: roa.Prefix.Masked(), MaxLength: roa.MaxLength, ASN: roa.ASN}]++
				}
			}
			gotSet := map[ROA]int{}
			for _, roa := range got {
				gotSet[roa]++
			}
			if len(gotSet) != len(want) {
				t.Fatalf("trial %d: CoveringROAs(%s) = %v, want %v", trial, p, got, want)
			}
			for roa, n := range want {
				if gotSet[roa] != n {
					t.Fatalf("trial %d: CoveringROAs(%s): %v count %d, want %d", trial, p, roa, gotSet[roa], n)
				}
			}
		}
	}
}

// TestValidateMatchesScan property-tests the indexed Validate against
// the retained linear-scan oracle, IPv4 and IPv6, including origins
// present and absent from the registry.
func TestValidateMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		reg := randomRegistry(r, 1+r.Intn(120))
		for q := 0; q < 60; q++ {
			p := randomQuery(r)
			origin := bgp.ASN(1 + r.Intn(10)) // 9, 10 never appear in ROAs
			got := reg.Validate(p, origin)
			want := reg.validateScan(p, origin)
			if got != want {
				t.Fatalf("trial %d: Validate(%s, AS%d) = %v, want %v (scan)", trial, p, origin, got, want)
			}
		}
	}
}

// TestIndexInvalidatedByAdd proves the index rebuilds after Add: a
// lookup, a mutation, and a second lookup that must see the new ROA.
func TestIndexInvalidatedByAdd(t *testing.T) {
	reg := &Registry{}
	reg.Add(ROA{Prefix: netip.MustParsePrefix("10.0.0.0/16"), MaxLength: 24, ASN: 1})
	p := netip.MustParsePrefix("10.0.1.0/24")
	if got := reg.Validate(p, 2); got != Invalid {
		t.Fatalf("pre-add Validate = %v, want Invalid", got)
	}
	reg.Add(ROA{Prefix: netip.MustParsePrefix("10.0.0.0/16"), MaxLength: 24, ASN: 2})
	if got := reg.Validate(p, 2); got != Valid {
		t.Fatalf("post-add Validate = %v, want Valid", got)
	}
	if got := len(reg.CoveringROAs(p)); got != 2 {
		t.Fatalf("post-add CoveringROAs = %d entries, want 2", got)
	}
}

// TestValidateDuringAdd races one writer's Adds against three readers.
// A reader reads Len before and after each Validate or CoveringROAs; the
// answer must be the linear scan's over adds[:k] for some k between the
// two readings, that is, the answer of one registry state it could have
// seen. Run it under -race: readers share the published index with the
// writer.
func TestValidateDuringAdd(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	adds := make([]ROA, 300)
	for i := range adds {
		adds[i] = randomROA(r)
	}
	// scanAt is validateScan over the first k adds.
	scanAt := func(k int, p netip.Prefix, origin bgp.ASN) State {
		snap := &Registry{}
		snap.idx.Store(&index{roas: adds[:k]})
		return snap.validateScan(p, origin)
	}
	// coveringAt is every ROA of the first k adds that covers p, masked,
	// in (address, length) order; ROAs of one prefix keep their order.
	coveringAt := func(k int, p netip.Prefix) []ROA {
		var out []ROA
		for _, roa := range adds[:k] {
			if roa.Covers(p) {
				out = append(out, ROA{Prefix: roa.Prefix.Masked(), MaxLength: roa.MaxLength, ASN: roa.ASN})
			}
		}
		slices.SortStableFunc(out, func(a, b ROA) int { return a.Prefix.Bits() - b.Prefix.Bits() })
		return out
	}

	reg := &Registry{}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := int64(0); w < 3; w++ {
		wg.Add(1)
		go func(r *rand.Rand) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				p, origin := randomQuery(r), bgp.ASN(1+r.Intn(10))
				lo := reg.Len()
				got := reg.Validate(p, origin)
				hi := reg.Len()
				ok := false
				for k := lo; k <= hi && !ok; k++ {
					ok = scanAt(k, p, origin) == got
				}
				if !ok {
					t.Errorf("Validate(%s, AS%d) = %v during Adds %d..%d: no registry state gives it", p, origin, got, lo, hi)
					return
				}
				lo = reg.Len()
				cov := reg.CoveringROAs(p)
				hi = reg.Len()
				ok = false
				for k := lo; k <= hi && !ok; k++ {
					ok = slices.Equal(cov, coveringAt(k, p))
				}
				if !ok {
					t.Errorf("CoveringROAs(%s) = %v during Adds %d..%d: no registry state gives it", p, cov, lo, hi)
					return
				}
			}
		}(rand.New(rand.NewSource(100 + w)))
	}
	for _, roa := range adds {
		reg.Add(roa)
	}
	close(done)
	wg.Wait()
	if reg.Len() != len(adds) {
		t.Fatalf("Len = %d after %d Adds", reg.Len(), len(adds))
	}
}

// TestInvalidROATolerated proves a malformed (zero-prefix) ROA neither
// panics the index build nor affects validation — the old linear scan
// ignored it, and so must the indexed path.
func TestInvalidROATolerated(t *testing.T) {
	reg := &Registry{}
	reg.Add(ROA{ASN: 1}) // zero-value, invalid prefix
	reg.Add(ROA{Prefix: netip.MustParsePrefix("10.0.0.0/16"), MaxLength: 32, ASN: 2})
	p := netip.MustParsePrefix("10.0.0.1/32")
	if got := reg.Validate(p, 2); got != Valid {
		t.Fatalf("Validate = %v, want Valid", got)
	}
	if got := reg.Validate(p, 1); got != Invalid {
		t.Fatalf("Validate wrong-origin = %v, want Invalid", got)
	}
	if got := len(reg.CoveringROAs(p)); got != 1 {
		t.Fatalf("CoveringROAs = %d entries, want 1", got)
	}
	if got := reg.Validate(netip.Prefix{}, 1); got != NotFound {
		t.Fatalf("Validate(invalid prefix) = %v, want NotFound", got)
	}
}

// TestStatsIPv6Primary covers the Stats host-prefix fix: an AS whose
// primary prefix is IPv6 must probe a /128 host route, not an invalid
// netip.PrefixFrom(v6addr, 32), and classify as covered.
func TestStatsIPv6Primary(t *testing.T) {
	topo := &topology.Topology{
		ASes: map[bgp.ASN]*topology.AS{},
	}
	v6 := netip.MustParsePrefix("2001:db8:1::/48")
	v4 := netip.MustParsePrefix("10.9.0.0/16")
	topo.ASes[100] = &topology.AS{ASN: 100, Prefixes: []netip.Prefix{v6}}
	topo.ASes[200] = &topology.AS{ASN: 200, Prefixes: []netip.Prefix{v4}}
	topo.Order = []bgp.ASN{100, 200}

	reg := &Registry{}
	reg.Add(ROA{Prefix: v6, MaxLength: 128, ASN: 100}) // v6 host routes welcome
	reg.Add(ROA{Prefix: v4, MaxLength: 16, ASN: 200})  // v4 host routes stranded

	st := reg.Stats(topo)
	if st.ASesTotal != 2 {
		t.Fatalf("ASesTotal = %d, want 2", st.ASesTotal)
	}
	if st.ASesCovered != 2 {
		t.Fatalf("ASesCovered = %d, want 2 (the IPv6-primary AS was misclassified as uncovered)", st.ASesCovered)
	}
	if st.BlackholeFriendly != 1 || st.BlackholeStranded != 1 {
		t.Fatalf("friendly/stranded = %d/%d, want 1/1", st.BlackholeFriendly, st.BlackholeStranded)
	}
}
