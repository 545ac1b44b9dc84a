package mrt

import (
	"bytes"
	"io"
	"net/netip"
	"reflect"
	"runtime/debug"
	"testing"
	"testing/iotest"

	"bgpblackholing/internal/bgp"
)

var collectorIP = netip.MustParseAddr("10.255.0.1")

// bigRIB returns a RIB record whose body exceeds the reader's window:
// three entries, each with a community list 6000 long.
func bigRIB() *RIB {
	comms := make([]bgp.Community, 6000)
	for i := range comms {
		comms[i] = bgp.MakeCommunity(174, uint16(i))
	}
	rib := &RIB{Time: t0, Sequence: 7, Prefix: netip.MustParsePrefix("192.88.99.0/24")}
	for i := 0; i < 3; i++ {
		rib.Entries = append(rib.Entries, RIBEntry{
			PeerIndex:      0,
			OriginatedTime: t0,
			Attrs: &bgp.Update{
				Origin: bgp.OriginIGP, Path: bgp.NewPath(3356, 65001),
				NextHop: netip.MustParseAddr("10.0.0.3"), Communities: comms,
			},
		})
	}
	return rib
}

// mixedArchive holds every record type, a record larger than the window
// and enough updates after it that records straddle window boundaries.
func mixedArchive(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.WritePeerIndexTable(&PeerIndexTable{
		Time: t0, CollectorID: collectorIP, ViewName: "mixed",
		Peers: []Peer{{BGPID: netip.MustParseAddr("10.0.0.2"), IP: netip.MustParseAddr("10.0.0.2"), AS: 3356}},
	}))
	must(w.WriteRIB(bigRIB()))
	for i := 0; i < 2000; i++ {
		must(w.WriteUpdate(sampleUpdate(i%200), collectorIP, 65535))
	}
	if buf.Len() < 3*window {
		t.Fatalf("archive is %d bytes; want it to span several %d-byte windows", buf.Len(), window)
	}
	return buf.Bytes()
}

func TestReaderEquivalentUnderHostileReaders(t *testing.T) {
	data := mixedArchive(t)
	want, err := NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2002 {
		t.Fatalf("plain reader decoded %d records, want 2002", len(want))
	}
	if rib := want[1].(*RIB); len(rib.Entries) != 3 || !reflect.DeepEqual(rib.Entries[2].Attrs.Communities, bigRIB().Entries[2].Attrs.Communities) {
		t.Fatal("record larger than the window did not round-trip")
	}
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"OneByteReader": iotest.OneByteReader,
		"HalfReader":    iotest.HalfReader,
		"DataErrReader": iotest.DataErrReader,
	} {
		got, err := NewReader(wrap(bytes.NewReader(data))).ReadAll()
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d records differ from the plain reader's %d", name, len(got), len(want))
		}
	}
}

// Cutting an archive anywhere yields every complete record, then io.EOF
// exactly on a record boundary and ErrTruncated everywhere else.
func TestReaderTruncationAtEveryOffset(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	boundary := map[int]int{0: 0} // offset -> records complete before it
	for i := 0; i < 3; i++ {
		if err := w.WriteUpdate(sampleUpdate(i), collectorIP, 65535); err != nil {
			t.Fatal(err)
		}
		boundary[buf.Len()] = i + 1
	}
	full := buf.Bytes()
	complete := 0
	for cut := 0; cut <= len(full); cut++ {
		n, onBoundary := boundary[cut]
		if onBoundary {
			complete = n
		}
		recs, err := readToError(NewReader(bytes.NewReader(full[:cut])))
		if len(recs) != complete {
			t.Fatalf("cut %d: %d records, want %d", cut, len(recs), complete)
		}
		want := ErrTruncated
		if onBoundary {
			want = io.EOF
		}
		if err != want {
			t.Fatalf("cut %d: err = %v, want %v", cut, err, want)
		}
	}
}

func readToError(r *Reader) ([]Record, error) {
	var out []Record
	for {
		rec, err := r.Next()
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// The allocation ceiling that keeps the lean decode from eroding: one
// for the message+update pair, one each for the prefix list, the
// communities, the path's segments and the path's ASNs.
func TestNextAllocsPerBGP4MP(t *testing.T) {
	skipUnderRace(t)
	const runs = 500
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i <= runs; i++ {
		if err := w.WriteUpdate(sampleUpdate(i%200), collectorIP, 65535); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Next allocates %.1f times per BGP4MP record, want <= 1", allocs)
	}
}

// The Writer assembles every record in one reused scratch buffer.
func TestWriteUpdateReusesScratch(t *testing.T) {
	skipUnderRace(t)
	w := NewWriter(io.Discard)
	u := sampleUpdate(0)
	marshal := testing.AllocsPerRun(100, func() {
		if _, err := bgp.MarshalUpdate(u); err != nil {
			t.Fatal(err)
		}
	})
	write := testing.AllocsPerRun(100, func() {
		if err := w.WriteUpdate(u, collectorIP, 65535); err != nil {
			t.Fatal(err)
		}
	})
	if write > marshal {
		t.Fatalf("WriteUpdate allocates %.0f times, MarshalUpdate alone %.0f: the record scratch is not reused", write, marshal)
	}
}

// skipUnderRace skips an allocation ceiling in -race builds, which
// disable the compiler optimisations the ceiling counts on.
func skipUnderRace(t *testing.T) {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			t.Skip("allocation counts differ under the race detector")
		}
	}
}
