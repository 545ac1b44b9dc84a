package rpki

import (
	"net/netip"
	"testing"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/topology"
)

func TestValidateStates(t *testing.T) {
	reg := &Registry{}
	reg.Add(ROA{Prefix: netip.MustParsePrefix("31.0.0.0/16"), MaxLength: 32, ASN: 100})
	reg.Add(ROA{Prefix: netip.MustParsePrefix("32.0.0.0/16"), MaxLength: 16, ASN: 200})

	cases := []struct {
		prefix string
		origin int
		want   State
	}{
		{"31.0.0.1/32", 100, Valid},    // friendly ROA allows /32
		{"31.0.0.0/16", 100, Valid},    // aggregate
		{"31.0.0.1/32", 999, Invalid},  // wrong origin
		{"32.0.0.1/32", 200, Invalid},  // maxLength 16 forbids /32
		{"32.0.0.0/16", 200, Valid},    // aggregate fine
		{"33.0.0.1/32", 100, NotFound}, // no covering ROA
		{"31.0.0.0/8", 100, NotFound},  // less specific than the ROA
	}
	for _, c := range cases {
		got := reg.Validate(netip.MustParsePrefix(c.prefix), bgp.ASN(c.origin))
		if got != c.want {
			t.Errorf("Validate(%s, AS%d) = %v, want %v", c.prefix, c.origin, got, c.want)
		}
	}
}

func TestValidOriginStrictness(t *testing.T) {
	reg := &Registry{}
	reg.Add(ROA{Prefix: netip.MustParsePrefix("31.0.0.0/16"), MaxLength: 32, ASN: 100})
	if !reg.ValidOrigin(netip.MustParsePrefix("31.0.0.1/32"), 100) {
		t.Fatal("valid announcement rejected")
	}
	if reg.ValidOrigin(netip.MustParsePrefix("31.0.0.1/32"), 999) {
		t.Fatal("invalid origin accepted")
	}
	// Strict providers reject NotFound too.
	if reg.ValidOrigin(netip.MustParsePrefix("99.0.0.1/32"), 100) {
		t.Fatal("NotFound accepted by strict validation")
	}
}

func TestBuildCoverageAndStats(t *testing.T) {
	topo, err := topology.Generate(topology.DefaultConfig().Scaled(0.2))
	if err != nil {
		t.Fatal(err)
	}
	reg := Build(topo, DefaultBuildConfig())
	if reg.Len() == 0 {
		t.Fatal("empty registry")
	}
	st := reg.Stats(topo)
	if st.ASesTotal != len(topo.Order) {
		t.Fatal("total mismatch")
	}
	cov := float64(st.ASesCovered) / float64(st.ASesTotal)
	if cov < 0.2 || cov > 0.5 {
		t.Fatalf("coverage = %.2f, want ~0.35", cov)
	}
	if st.BlackholeFriendly == 0 || st.BlackholeStranded == 0 {
		t.Fatalf("want both friendly (%d) and stranded (%d) ASes", st.BlackholeFriendly, st.BlackholeStranded)
	}
	// Friendly should dominate at FracBlackholeFriendly = 0.6.
	if st.BlackholeFriendly <= st.BlackholeStranded {
		t.Fatalf("friendly %d <= stranded %d", st.BlackholeFriendly, st.BlackholeStranded)
	}
}

func TestBuildDeterministic(t *testing.T) {
	topo, err := topology.Generate(topology.DefaultConfig().Scaled(0.1))
	if err != nil {
		t.Fatal(err)
	}
	a := Build(topo, DefaultBuildConfig())
	b := Build(topo, DefaultBuildConfig())
	if a.Len() != b.Len() {
		t.Fatal("non-deterministic registry size")
	}
	bROAs := b.ROAs()
	for i, roa := range a.ROAs() {
		if roa != bROAs[i] {
			t.Fatal("non-deterministic ROA")
		}
	}
}

func TestStateStrings(t *testing.T) {
	if Valid.String() != "valid" || Invalid.String() != "invalid" || NotFound.String() != "not-found" {
		t.Fatal("state strings")
	}
}
