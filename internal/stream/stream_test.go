package stream

import (
	"bytes"
	"errors"
	"io"
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

// Every element of an archive replay that nobody hands back is handed out
// once from storage shared only in chunks (its Elem and Update, and the
// slices the decoder carves), so a consumer may retain elements, and
// append to their lists, while reading on; and the replay stays within
// the per-record allocation ceiling.
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

// A consumer that hands back every element, as Detector.Run does, leaves
// an archive replay holding at most a chunk of free elements, even over
// a table dump whose every entry is an element of its own; an element the
// replay did not just hand out, or one handed back twice, is not taken
// back; and the updates after the dump decode correctly into the
// recycled entries.
func TestFromMRTReleaseIsBounded(t *testing.T) {
	const peers, prefixes, updates = 40, 25, 100
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	pit := &mrt.PeerIndexTable{Time: t0, CollectorID: netip.MustParseAddr("22.0.0.1")}
	for i := 0; i < peers; i++ {
		ip := netip.AddrFrom4([4]byte{22, 0, 1, byte(i)})
		pit.Peers = append(pit.Peers, mrt.Peer{BGPID: ip, IP: ip, AS: bgp.ASN(100 + i)})
	}
	if err := w.WritePeerIndexTable(pit); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < prefixes; j++ {
		rib := &mrt.RIB{Time: t0, Sequence: uint32(j), Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{31, 0, 0, byte(j)}), 32)}
		for i := 0; i < peers; i++ {
			rib.Entries = append(rib.Entries, mrt.RIBEntry{PeerIndex: uint16(i), OriginatedTime: t0, Attrs: &bgp.Update{
				Path:        bgp.NewPath(bgp.ASN(100+i), 200, 300),
				NextHop:     netip.MustParseAddr("22.0.1.2"),
				Communities: []bgp.Community{bgp.MakeCommunity(uint16(i), 666), bgp.CommunityNoExport},
			}})
		}
		if err := w.WriteRIB(rib); err != nil {
			t.Fatal(err)
		}
	}
	dump := bytes.Clone(buf.Bytes())
	buf.Reset()
	for i := 0; i < updates; i++ {
		u := &bgp.Update{
			Time:        t0.Add(time.Duration(i+1) * time.Second),
			PeerIP:      netip.MustParseAddr("22.0.1.1"),
			PeerAS:      bgp.ASN(100 + i),
			Announced:   []netip.Prefix{netip.PrefixFrom(netip.AddrFrom4([4]byte{32, 0, 0, byte(i)}), 32)},
			Path:        bgp.NewPath(bgp.ASN(100 + i)),
			NextHop:     netip.MustParseAddr("22.0.1.2"),
			Communities: []bgp.Community{bgp.MakeCommunity(uint16(i), 666)},
		}
		if err := w.WriteUpdate(u, netip.MustParseAddr("22.0.0.1"), 64900); err != nil {
			t.Fatal(err)
		}
	}

	ups := buf.Bytes()

	stranger := &Elem{Update: &bgp.Update{}}
	s := FromMRT(mrt.NewReader(bytes.NewReader(ups)), "rrc00", collector.PlatformRIS).(*mrtStream)
	var got []*Elem
	for range 3 {
		e, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, e)
	}
	free := len(s.free)
	for _, e := range []*Elem{got[1], got[1], got[0], stranger} {
		s.Release(e)
	}
	if len(s.free) != free+1 || s.free[free] != got[1] {
		t.Fatalf("handing back the second of three elements twice, the first and a stranger freed %d, want the second alone", len(s.free)-free)
	}

	s = FromMRT(mrt.NewReader(io.MultiReader(bytes.NewReader(dump), bytes.NewReader(ups))), "rrc00", collector.PlatformRIS).(*mrtStream)
	for n := 0; ; n++ {
		e, err := s.Next()
		if errors.Is(err, io.EOF) {
			if n != peers*prefixes+updates {
				t.Fatalf("replayed %d elements, want %d", n, peers*prefixes+updates)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		u := e.Update
		if n < peers*prefixes {
			i, j := n%peers, n/peers
			if u.PeerAS != bgp.ASN(100+i) || u.Announced[0].Addr().As4()[3] != byte(j) || len(u.Communities) != 2 ||
				u.Communities[0] != bgp.MakeCommunity(uint16(i), 666) || len(u.Path.Segments[0].ASNs) != 3 {
				t.Fatalf("dump entry %d = %+v", n, u)
			}
		} else if i := n - peers*prefixes; e.Collector != "rrc00" || u.PeerAS != bgp.ASN(100+i) || len(u.Announced) != 1 ||
			u.Announced[0].Addr().As4()[3] != byte(i) || len(u.Communities) != 1 || u.Communities[0] != bgp.MakeCommunity(uint16(i), 666) ||
			len(u.Path.Segments) != 1 || len(u.Path.Segments[0].ASNs) != 1 || u.Path.Segments[0].ASNs[0] != bgp.ASN(100+i) {
			t.Fatalf("update %d decoded into a recycled element = %+v", i, u)
		}
		s.Release(e)
		s.Release(e)
		s.Release(stranger)
		if len(s.free) > mrtChunk {
			t.Fatalf("after %d elements the replay holds %d free ones, want <= %d", n+1, len(s.free), mrtChunk)
		}
		seen := make(map[*Elem]bool, len(s.free))
		for _, f := range s.free {
			if seen[f] || f == stranger {
				t.Fatalf("after %d elements the free list holds an element twice, or one it never handed out", n+1)
			}
			seen[f] = true
		}
	}
}
