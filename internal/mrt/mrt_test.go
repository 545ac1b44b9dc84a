package mrt

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"bgpblackholing/internal/bgp"
)

var t0 = time.Date(2017, 3, 1, 12, 0, 0, 0, time.UTC)

func sampleUpdate(i int) *bgp.Update {
	return &bgp.Update{
		Time:        t0.Add(time.Duration(i) * time.Second),
		PeerIP:      netip.AddrFrom4([4]byte{10, 0, 0, byte(1 + i)}),
		PeerAS:      bgp.ASN(3356 + i),
		Announced:   []netip.Prefix{netip.MustParsePrefix("192.0.2.1/32")},
		Origin:      bgp.OriginIGP,
		Path:        bgp.NewPath(bgp.ASN(3356+i), 174, 65001),
		NextHop:     netip.MustParseAddr("10.0.0.254"),
		Communities: []bgp.Community{bgp.MakeCommunity(174, 666), bgp.CommunityNoExport},
	}
}

func TestBGP4MPRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	collector := netip.MustParseAddr("10.255.0.1")
	for i := 0; i < 5; i++ {
		if err := w.WriteUpdate(sampleUpdate(i), collector, 65535); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	for i, rec := range recs {
		m, ok := rec.(*BGP4MPMessage)
		if !ok {
			t.Fatalf("record %d: %T, want *BGP4MPMessage", i, rec)
		}
		want := sampleUpdate(i)
		if !m.Time.Equal(want.Time) {
			t.Errorf("record %d time = %v, want %v", i, m.Time, want.Time)
		}
		if m.PeerAS != want.PeerAS || m.PeerIP != want.PeerIP {
			t.Errorf("record %d peer = %v/%v", i, m.PeerAS, m.PeerIP)
		}
		if m.LocalAS != 65535 || m.LocalIP != collector {
			t.Errorf("record %d local = %v/%v", i, m.LocalAS, m.LocalIP)
		}
		if !reflect.DeepEqual(m.Update.Announced, want.Announced) {
			t.Errorf("record %d announced = %v", i, m.Update.Announced)
		}
		if !m.Update.Path.Equal(want.Path) {
			t.Errorf("record %d path = %v", i, m.Update.Path)
		}
		if !reflect.DeepEqual(m.Update.Communities, want.Communities) {
			t.Errorf("record %d communities = %v", i, m.Update.Communities)
		}
		// The decoder stamps the inner update with the record metadata.
		if m.Update.PeerAS != want.PeerAS || !m.Update.Time.Equal(want.Time) {
			t.Errorf("record %d inner metadata not stamped", i)
		}
	}
}

func TestBGP4MPIPv6Peer(t *testing.T) {
	u := sampleUpdate(0)
	u.PeerIP = netip.MustParseAddr("2001:db8::1")
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteUpdate(u, netip.MustParseAddr("2001:db8::ffff"), 65535); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	m := rec.(*BGP4MPMessage)
	if m.PeerIP != u.PeerIP {
		t.Fatalf("peer IP = %v", m.PeerIP)
	}
}

func TestTableDumpV2RoundTrip(t *testing.T) {
	pit := &PeerIndexTable{
		Time:        t0,
		CollectorID: netip.MustParseAddr("10.255.0.1"),
		ViewName:    "rrc00",
		Peers: []Peer{
			{BGPID: netip.MustParseAddr("10.1.0.1"), IP: netip.MustParseAddr("10.1.0.1"), AS: 3356},
			{BGPID: netip.MustParseAddr("10.2.0.1"), IP: netip.MustParseAddr("2001:db8::2"), AS: 196615},
		},
	}
	rib := &RIB{
		Time:     t0,
		Sequence: 7,
		Prefix:   netip.MustParsePrefix("192.0.2.1/32"),
		Entries: []RIBEntry{
			{
				PeerIndex:      0,
				OriginatedTime: t0.Add(-time.Hour),
				Attrs: &bgp.Update{
					Origin:      bgp.OriginIGP,
					Path:        bgp.NewPath(3356, 65001),
					NextHop:     netip.MustParseAddr("10.1.0.2"),
					Communities: []bgp.Community{bgp.MakeCommunity(3356, 9999)},
				},
			},
			{
				PeerIndex:      1,
				OriginatedTime: t0.Add(-2 * time.Hour),
				Attrs: &bgp.Update{
					Origin:  bgp.OriginIGP,
					Path:    bgp.NewPath(196615, 65001),
					NextHop: netip.MustParseAddr("10.2.0.2"),
				},
			},
		},
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WritePeerIndexTable(pit); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRIB(rib); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	rec1, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	gotPIT, ok := rec1.(*PeerIndexTable)
	if !ok {
		t.Fatalf("first record %T", rec1)
	}
	if gotPIT.ViewName != "rrc00" || len(gotPIT.Peers) != 2 {
		t.Fatalf("peer index = %+v", gotPIT)
	}
	if gotPIT.Peers[1].IP != netip.MustParseAddr("2001:db8::2") || gotPIT.Peers[1].AS != 196615 {
		t.Fatalf("peer[1] = %+v", gotPIT.Peers[1])
	}

	rec2, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	gotRIB, ok := rec2.(*RIB)
	if !ok {
		t.Fatalf("second record %T", rec2)
	}
	if gotRIB.Prefix != rib.Prefix || gotRIB.Sequence != 7 || len(gotRIB.Entries) != 2 {
		t.Fatalf("rib = %+v", gotRIB)
	}
	if !gotRIB.Entries[0].Attrs.Path.Equal(rib.Entries[0].Attrs.Path) {
		t.Fatal("entry 0 path mismatch")
	}
	if !gotRIB.Entries[0].OriginatedTime.Equal(rib.Entries[0].OriginatedTime) {
		t.Fatal("entry 0 originated time mismatch")
	}

	// Resolution against the peer index.
	entries, err := r.ResolveRIB(gotRIB)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("resolved %d entries", len(entries))
	}
	if entries[0].PeerAS != 3356 || entries[0].Prefix != rib.Prefix {
		t.Fatalf("entry 0 = %+v", entries[0])
	}
	if entries[1].PeerAS != 196615 {
		t.Fatalf("entry 1 = %+v", entries[1])
	}
}

func TestRIBIPv6(t *testing.T) {
	pit := &PeerIndexTable{
		Time:        t0,
		CollectorID: netip.MustParseAddr("10.255.0.1"),
		Peers:       []Peer{{BGPID: netip.MustParseAddr("10.1.0.1"), IP: netip.MustParseAddr("10.1.0.1"), AS: 6939}},
	}
	rib := &RIB{
		Time:   t0,
		Prefix: netip.MustParsePrefix("2001:db8::1/128"),
		Entries: []RIBEntry{{
			PeerIndex:      0,
			OriginatedTime: t0,
			Attrs: &bgp.Update{
				Origin:  bgp.OriginIGP,
				Path:    bgp.NewPath(6939, 65010),
				NextHop: netip.MustParseAddr("2001:db8:ffff::1"),
			},
		}},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WritePeerIndexTable(pit); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRIB(rib); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	got := rec.(*RIB)
	if got.Prefix != rib.Prefix {
		t.Fatalf("prefix = %v", got.Prefix)
	}
	if got.Entries[0].Attrs.NextHop != rib.Entries[0].Attrs.NextHop {
		t.Fatalf("v6 next hop = %v", got.Entries[0].Attrs.NextHop)
	}
}

func TestResolveRIBErrors(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	if _, err := r.ResolveRIB(&RIB{}); !errors.Is(err, ErrNoPeerIndex) {
		t.Fatalf("err = %v, want ErrNoPeerIndex", err)
	}
	r.peers = &PeerIndexTable{Peers: []Peer{{}}}
	rib := &RIB{Entries: []RIBEntry{{PeerIndex: 5, Attrs: &bgp.Update{}}}}
	if _, err := r.ResolveRIB(rib); !errors.Is(err, ErrBadPeerIndex) {
		t.Fatalf("err = %v, want ErrBadPeerIndex", err)
	}
}

func TestReaderSkipsUnknownTypes(t *testing.T) {
	var buf bytes.Buffer
	// Hand-craft an unknown record (type 99).
	hdr := appendHeader(nil, t0, 99, 1, 3)
	buf.Write(hdr)
	buf.Write([]byte{1, 2, 3})
	w := NewWriter(&buf)
	if err := w.WriteUpdate(sampleUpdate(0), netip.MustParseAddr("10.255.0.1"), 65535); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rec.(*BGP4MPMessage); !ok {
		t.Fatalf("got %T, want BGP4MP after skipping unknown", rec)
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestReaderTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteUpdate(sampleUpdate(0), netip.MustParseAddr("10.255.0.1"), 65535); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, 13, len(full) - 3} {
		r := NewReader(bytes.NewReader(full[:cut]))
		if _, err := r.Next(); err == nil {
			t.Errorf("cut at %d: want error", cut)
		}
	}
}

// An oversize length field is refused from the header alone: the body
// it claims is never allocated.
func TestReaderRejectsHugeRecord(t *testing.T) {
	hdr := appendHeader(nil, t0, TypeBGP4MP, SubtypeBGP4MPMessageAS4, maxRecordLen+1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewReader(bytes.NewReader(hdr)).Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("err = %v, want ErrRecordTooLarge", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > maxRecordLen/2 {
		t.Fatalf("refusing the record allocated %d bytes", grew)
	}
}

// Property: any sequence of valid updates survives an archive round trip.
func TestArchiveRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		var buf bytes.Buffer
		w := NewWriter(&buf)
		var want []*bgp.Update
		for i := 0; i < n; i++ {
			u := &bgp.Update{
				Time:    t0.Add(time.Duration(i) * time.Minute),
				PeerIP:  netip.AddrFrom4([4]byte{10, 0, byte(r.Intn(256)), byte(1 + r.Intn(254))}),
				PeerAS:  bgp.ASN(1 + r.Intn(65000)),
				Origin:  bgp.OriginIGP,
				Path:    bgp.NewPath(bgp.ASN(1+r.Intn(65000)), bgp.ASN(1+r.Intn(65000))),
				NextHop: netip.AddrFrom4([4]byte{10, 9, 9, 9}),
			}
			bits := 8 + r.Intn(25)
			addr := netip.AddrFrom4([4]byte{byte(1 + r.Intn(223)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})
			u.Announced = []netip.Prefix{netip.PrefixFrom(addr, bits).Masked()}
			if r.Intn(2) == 0 {
				u.Communities = []bgp.Community{bgp.Community(r.Uint32())}
			}
			if err := w.WriteUpdate(u, netip.MustParseAddr("10.255.0.1"), 65535); err != nil {
				return false
			}
			want = append(want, u)
		}
		rd := NewReader(&buf)
		recs, err := rd.ReadAll()
		if err != nil || len(recs) != n {
			return false
		}
		for i, rec := range recs {
			m := rec.(*BGP4MPMessage)
			if !reflect.DeepEqual(m.Update.Announced, want[i].Announced) {
				return false
			}
			if m.PeerAS != want[i].PeerAS {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
