package stream

import (
	"bytes"
	"net/netip"
	"runtime/debug"
	"testing"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/mrt"
)

var t0 = time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)

func elem(name string, p collector.Platform, offset time.Duration, prefix string) *Elem {
	return &Elem{
		Collector: name,
		Platform:  p,
		Update: &bgp.Update{
			Time:      t0.Add(offset),
			Announced: []netip.Prefix{netip.MustParsePrefix(prefix)},
			Path:      bgp.NewPath(100, 200),
		},
	}
}

func TestFromElemsSortsByTime(t *testing.T) {
	s := FromElems([]*Elem{
		elem("a", collector.PlatformRIS, 3*time.Second, "31.0.0.1/32"),
		elem("a", collector.PlatformRIS, 1*time.Second, "31.0.0.2/32"),
		elem("a", collector.PlatformRIS, 2*time.Second, "31.0.0.3/32"),
	})
	got, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Update.Time.Before(got[i-1].Update.Time) {
			t.Fatal("not time ordered")
		}
	}
}

func TestMergeInterleavesStreams(t *testing.T) {
	a := FromElems([]*Elem{
		elem("ris", collector.PlatformRIS, 1*time.Second, "31.0.0.1/32"),
		elem("ris", collector.PlatformRIS, 4*time.Second, "31.0.0.1/32"),
	})
	b := FromElems([]*Elem{
		elem("rv", collector.PlatformRV, 2*time.Second, "31.0.0.2/32"),
		elem("rv", collector.PlatformRV, 3*time.Second, "31.0.0.2/32"),
	})
	got, err := Collect(Merge(a, b))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
	wantOrder := []string{"ris", "rv", "rv", "ris"}
	for i, w := range wantOrder {
		if got[i].Collector != w {
			t.Fatalf("pos %d = %s, want %s", i, got[i].Collector, w)
		}
	}
}

func TestFilters(t *testing.T) {
	elems := []*Elem{
		elem("ris", collector.PlatformRIS, 1*time.Second, "31.0.0.1/32"),
		elem("rv", collector.PlatformRV, 2*time.Second, "32.0.0.1/32"),
		elem("ris", collector.PlatformRIS, 10*time.Minute, "31.0.0.2/32"),
	}
	got, err := Collect(ByPlatform(FromElems(elems), collector.PlatformRIS))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("ByPlatform len = %d", len(got))
	}

	got, err = Collect(ByTimeWindow(FromElems(elems), t0, t0.Add(time.Minute)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("ByTimeWindow len = %d", len(got))
	}

	got, err = Collect(ByPrefix(FromElems(elems), netip.MustParsePrefix("31.0.0.0/16")))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("ByPrefix len = %d", len(got))
	}
}

func TestByPrefixMatchesWithdrawals(t *testing.T) {
	w := &Elem{Collector: "x", Update: &bgp.Update{
		Time:      t0,
		Withdrawn: []netip.Prefix{netip.MustParsePrefix("31.0.0.1/32")},
	}}
	got, err := Collect(ByPrefix(FromElems([]*Elem{w}), netip.MustParsePrefix("31.0.0.0/16")))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatal("withdrawal not matched")
	}
}

func TestFromMRTReplaysUpdatesAndRIBs(t *testing.T) {
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	pit := &mrt.PeerIndexTable{
		Time:        t0,
		CollectorID: netip.MustParseAddr("22.0.0.1"),
		Peers:       []mrt.Peer{{BGPID: netip.MustParseAddr("22.0.1.1"), IP: netip.MustParseAddr("22.0.1.1"), AS: 100}},
	}
	if err := w.WritePeerIndexTable(pit); err != nil {
		t.Fatal(err)
	}
	rib := &mrt.RIB{
		Time:   t0,
		Prefix: netip.MustParsePrefix("31.0.0.1/32"),
		Entries: []mrt.RIBEntry{{
			PeerIndex:      0,
			OriginatedTime: t0.Add(-time.Hour),
			Attrs: &bgp.Update{
				Origin:      bgp.OriginIGP,
				Path:        bgp.NewPath(100, 200),
				NextHop:     netip.MustParseAddr("22.0.1.2"),
				Communities: []bgp.Community{bgp.MakeCommunity(100, 666)},
			},
		}},
	}
	if err := w.WriteRIB(rib); err != nil {
		t.Fatal(err)
	}
	u := &bgp.Update{
		Time:      t0.Add(time.Minute),
		PeerIP:    netip.MustParseAddr("22.0.1.1"),
		PeerAS:    100,
		Announced: []netip.Prefix{netip.MustParsePrefix("31.0.0.2/32")},
		Origin:    bgp.OriginIGP,
		Path:      bgp.NewPath(100, 200),
		NextHop:   netip.MustParseAddr("22.0.1.2"),
	}
	if err := w.WriteUpdate(u, netip.MustParseAddr("22.0.0.1"), 64900); err != nil {
		t.Fatal(err)
	}

	s := FromMRT(mrt.NewReader(&buf), "rrc00", collector.PlatformRIS)
	got, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("len = %d, want RIB entry + update", len(got))
	}
	if got[0].Update.PeerAS != 100 || !got[0].Update.HasCommunity(bgp.MakeCommunity(100, 666)) {
		t.Fatalf("RIB elem = %+v", got[0].Update)
	}
	if got[1].Update.Announced[0].String() != "31.0.0.2/32" {
		t.Fatalf("update elem = %+v", got[1].Update)
	}
}

func TestMergeEmptyStreams(t *testing.T) {
	got, err := Collect(Merge(FromElems(nil), FromElems(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("expected empty merge")
	}
}

// Every element of an archive replay is handed out once from storage
// shared only in chunks (its Elem and Update, and the slices the decoder
// carves), so a consumer may retain elements, and append to their lists,
// while reading on; and the replay stays within the per-record
// allocation ceiling.
func TestFromMRTElemsAreRetainableAndLean(t *testing.T) {
	const n = 400
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	for i := 0; i < n; i++ {
		u := &bgp.Update{
			Time:        t0.Add(time.Duration(i) * time.Second),
			PeerIP:      netip.MustParseAddr("22.0.1.1"),
			PeerAS:      bgp.ASN(100 + i),
			Announced:   []netip.Prefix{netip.PrefixFrom(netip.AddrFrom4([4]byte{31, 0, byte(i >> 8), byte(i)}), 32)},
			Path:        bgp.NewPath(bgp.ASN(100+i), 200),
			NextHop:     netip.MustParseAddr("22.0.1.2"),
			Communities: []bgp.Community{bgp.MakeCommunity(uint16(i), 666)},
		}
		if err := w.WriteUpdate(u, netip.MustParseAddr("22.0.0.1"), 64900); err != nil {
			t.Fatal(err)
		}
	}
	data := buf.Bytes()

	got, err := Collect(FromMRT(mrt.NewReader(bytes.NewReader(data)), "rrc00", collector.PlatformRIS))
	if err != nil || len(got) != n {
		t.Fatalf("collected %d elems, err %v", len(got), err)
	}
	for i, e := range got {
		u := e.Update
		if e.Collector != "rrc00" || u.PeerAS != bgp.ASN(100+i) || !u.Time.Equal(t0.Add(time.Duration(i)*time.Second)) ||
			u.Announced[0].Addr().As4()[3] != byte(i) || u.Communities[0] != bgp.MakeCommunity(uint16(i), 666) ||
			u.Path.Segments[0].ASNs[0] != bgp.ASN(100+i) {
			t.Fatalf("elem %d was overwritten by a later record: %+v", i, u)
		}
	}
	// Updates share their storage chunks, yet appending to one's lists
	// must leave every other element as it was.
	for _, e := range got {
		u := e.Update
		u.Announced = append(u.Announced, netip.MustParsePrefix("198.51.100.0/24"))
		u.Communities = append(u.Communities, bgp.CommunityNoExport)
		u.Path.Segments[0].ASNs = append(u.Path.Segments[0].ASNs, 65535)
	}
	for i, e := range got {
		u := e.Update
		if len(u.Announced) != 2 || u.Announced[0].Addr().As4()[3] != byte(i) ||
			len(u.Communities) != 2 || u.Communities[0] != bgp.MakeCommunity(uint16(i), 666) ||
			len(u.Path.Segments[0].ASNs) != 3 || u.Path.Segments[0].ASNs[0] != bgp.ASN(100+i) || u.Path.Segments[0].ASNs[1] != 200 {
			t.Fatalf("elem %d was overwritten by an append to another: %+v", i, u)
		}
	}

	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return // the race detector disables optimisations the ceiling counts on
		}
	}
	s := FromMRT(mrt.NewReader(bytes.NewReader(data)), "rrc00", collector.PlatformRIS)
	allocs := testing.AllocsPerRun(n-1, func() {
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("FromMRT allocates %.1f times per update, want <= 1", allocs)
	}
}
