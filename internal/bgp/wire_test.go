package bgp

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleUpdate() *Update {
	return &Update{
		Announced: []netip.Prefix{
			netip.MustParsePrefix("192.0.2.1/32"),
			netip.MustParsePrefix("198.51.100.0/24"),
		},
		Withdrawn: []netip.Prefix{netip.MustParsePrefix("203.0.113.0/25")},
		Origin:    OriginIGP,
		Path:      NewPath(3356, 174, 65001),
		NextHop:   netip.MustParseAddr("10.0.0.1"),
		Communities: []Community{
			MakeCommunity(174, 666),
			CommunityNoExport,
		},
		LargeCommunities:    []LargeCommunity{{212100, 666, 0}},
		ExtendedCommunities: []ExtendedCommunity{{0, 2, 0, 1, 0, 0, 0, 9}},
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	u := sampleUpdate()
	wire, err := MarshalUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalUpdate(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Announced, u.Announced) {
		t.Errorf("Announced = %v, want %v", got.Announced, u.Announced)
	}
	if !reflect.DeepEqual(got.Withdrawn, u.Withdrawn) {
		t.Errorf("Withdrawn = %v, want %v", got.Withdrawn, u.Withdrawn)
	}
	if !got.Path.Equal(u.Path) {
		t.Errorf("Path = %v, want %v", got.Path, u.Path)
	}
	if got.NextHop != u.NextHop {
		t.Errorf("NextHop = %v, want %v", got.NextHop, u.NextHop)
	}
	if !reflect.DeepEqual(got.Communities, u.Communities) {
		t.Errorf("Communities = %v, want %v", got.Communities, u.Communities)
	}
	if !reflect.DeepEqual(got.LargeCommunities, u.LargeCommunities) {
		t.Errorf("LargeCommunities = %v, want %v", got.LargeCommunities, u.LargeCommunities)
	}
	if !reflect.DeepEqual(got.ExtendedCommunities, u.ExtendedCommunities) {
		t.Errorf("ExtendedCommunities = %v, want %v", got.ExtendedCommunities, u.ExtendedCommunities)
	}
	if got.Origin != u.Origin {
		t.Errorf("Origin = %v, want %v", got.Origin, u.Origin)
	}
}

func TestMarshalIPv6MPReach(t *testing.T) {
	u := &Update{
		Announced: []netip.Prefix{netip.MustParsePrefix("2001:db8::1/128")},
		Withdrawn: []netip.Prefix{netip.MustParsePrefix("2001:db8:dead::/48")},
		Origin:    OriginIGP,
		Path:      NewPath(6939, 65002),
		NextHop:   netip.MustParseAddr("2001:db8:ffff::1"),
	}
	wire, err := MarshalUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalUpdate(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Announced, u.Announced) {
		t.Errorf("Announced = %v, want %v", got.Announced, u.Announced)
	}
	if !reflect.DeepEqual(got.Withdrawn, u.Withdrawn) {
		t.Errorf("Withdrawn = %v, want %v", got.Withdrawn, u.Withdrawn)
	}
	if got.NextHop != u.NextHop {
		t.Errorf("NextHop = %v, want %v", got.NextHop, u.NextHop)
	}
}

func TestPureWithdrawalHasNoAttributes(t *testing.T) {
	u := &Update{Withdrawn: []netip.Prefix{netip.MustParsePrefix("192.0.2.0/24")}}
	wire, err := MarshalUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalUpdate(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.IsAnnouncement() {
		t.Fatal("pure withdrawal decoded with announcements")
	}
	if len(got.Communities) != 0 || !got.Path.IsEmpty() {
		t.Fatal("pure withdrawal should carry no attributes")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	u := sampleUpdate()
	wire, err := MarshalUpdate(u)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("short", func(t *testing.T) {
		if _, err := UnmarshalUpdate(wire[:10]); err == nil {
			t.Fatal("want error for truncated header")
		}
	})
	t.Run("bad marker", func(t *testing.T) {
		bad := append([]byte(nil), wire...)
		bad[0] = 0
		if _, err := UnmarshalUpdate(bad); err != ErrBadMarker {
			t.Fatalf("err = %v, want ErrBadMarker", err)
		}
	})
	t.Run("bad length", func(t *testing.T) {
		bad := append([]byte(nil), wire...)
		bad[16], bad[17] = 0xFF, 0xFF
		if _, err := UnmarshalUpdate(bad); err == nil {
			t.Fatal("want error for wrong length")
		}
	})
	t.Run("not update", func(t *testing.T) {
		bad := append([]byte(nil), wire...)
		bad[18] = 1 // OPEN
		if _, err := UnmarshalUpdate(bad); err != ErrNotUpdate {
			t.Fatalf("err = %v, want ErrNotUpdate", err)
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		bad := append([]byte(nil), wire[:HeaderLen+1]...)
		bad[16] = byte(len(bad) >> 8)
		bad[17] = byte(len(bad))
		if _, err := UnmarshalUpdate(bad); err == nil {
			t.Fatal("want error for truncated body")
		}
	})
}

func TestParsePrefixesRejectsBadLength(t *testing.T) {
	if _, err := (*Slab)(nil).parsePrefixes(nil, nil, []byte{33, 1, 2, 3, 4, 5}, false); err == nil {
		t.Fatal("want error for /33 IPv4")
	}
	if _, err := (*Slab)(nil).parsePrefixes(nil, nil, []byte{129}, true); err == nil {
		t.Fatal("want error for /129 IPv6")
	}
	if _, err := (*Slab)(nil).parsePrefixes(nil, nil, []byte{24, 1}, false); err == nil {
		t.Fatal("want error for truncated prefix bytes")
	}
}

func TestMarshalTooLarge(t *testing.T) {
	u := &Update{Origin: OriginIGP, Path: NewPath(1), NextHop: netip.MustParseAddr("10.0.0.1")}
	for i := 0; i < 2000; i++ {
		u.Announced = append(u.Announced, netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 1}), 32))
	}
	if _, err := MarshalUpdate(u); err == nil {
		t.Fatal("want error for oversized message")
	}
}

// randomUpdate builds a valid random IPv4 update for property testing.
func randomUpdate(r *rand.Rand) *Update {
	u := &Update{Origin: Origin(r.Intn(3))}
	nAnn := 1 + r.Intn(4)
	for i := 0; i < nAnn; i++ {
		bits := 8 + r.Intn(25)
		addr := netip.AddrFrom4([4]byte{byte(1 + r.Intn(223)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})
		u.Announced = append(u.Announced, netip.PrefixFrom(addr, bits).Masked())
	}
	nW := r.Intn(3)
	for i := 0; i < nW; i++ {
		addr := netip.AddrFrom4([4]byte{byte(1 + r.Intn(223)), byte(r.Intn(256)), 0, 0})
		u.Withdrawn = append(u.Withdrawn, netip.PrefixFrom(addr, 16).Masked())
	}
	hops := 1 + r.Intn(6)
	asns := make([]ASN, hops)
	for i := range asns {
		asns[i] = ASN(1 + r.Intn(400000))
	}
	u.Path = NewPath(asns...)
	u.NextHop = netip.AddrFrom4([4]byte{10, byte(r.Intn(256)), byte(r.Intn(256)), 1})
	nC := r.Intn(5)
	for i := 0; i < nC; i++ {
		u.Communities = append(u.Communities, Community(r.Uint32()))
	}
	return u
}

func TestWireRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		u := randomUpdate(r)
		wire, err := MarshalUpdate(u)
		if err != nil {
			return false
		}
		got, err := UnmarshalUpdate(wire)
		if err != nil {
			return false
		}
		if !reflect.DeepEqual(got.Announced, u.Announced) || !got.Path.Equal(u.Path) {
			return false
		}
		if len(u.Communities) > 0 && !reflect.DeepEqual(got.Communities, u.Communities) {
			return false
		}
		return got.NextHop == u.NextHop
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateHelpers(t *testing.T) {
	u := sampleUpdate()
	if !u.IsAnnouncement() || !u.IsWithdrawal() {
		t.Fatal("sample should announce and withdraw")
	}
	if !u.HasCommunity(MakeCommunity(174, 666)) {
		t.Fatal("HasCommunity false negative")
	}
	if u.HasCommunity(MakeCommunity(1, 1)) {
		t.Fatal("HasCommunity false positive")
	}
	if !u.HasNoExport() {
		t.Fatal("sample carries NO_EXPORT")
	}

	c := u.Clone()
	c.Communities[0] = 0
	c.Announced[0] = netip.MustParsePrefix("8.8.8.8/32")
	if u.Communities[0] == 0 || u.Announced[0].String() == "8.8.8.8/32" {
		t.Fatal("Clone shares storage")
	}

	u.Communities = []Community{3, 1, 2}
	u.SortCommunities()
	if u.Communities[0] != 1 || u.Communities[2] != 3 {
		t.Fatal("SortCommunities wrong order")
	}
	if u.String() == "" {
		t.Fatal("String should be non-empty")
	}
}

func TestRIBEntryToUpdate(t *testing.T) {
	e := &RIBEntry{
		Prefix:      netip.MustParsePrefix("192.0.2.1/32"),
		PeerIP:      netip.MustParseAddr("10.1.1.1"),
		PeerAS:      3356,
		Path:        NewPath(3356, 174, 65000),
		NextHop:     netip.MustParseAddr("10.1.1.2"),
		Communities: []Community{MakeCommunity(174, 666)},
	}
	u := e.ToUpdate(e.OriginatedAt)
	if len(u.Announced) != 1 || u.Announced[0] != e.Prefix {
		t.Fatal("ToUpdate prefix wrong")
	}
	if u.PeerAS != 3356 || u.PeerIP != e.PeerIP {
		t.Fatal("ToUpdate peer metadata wrong")
	}
	// Mutating the update must not affect the entry.
	u.Communities[0] = 0
	if e.Communities[0] == 0 {
		t.Fatal("ToUpdate shares community storage")
	}
}
