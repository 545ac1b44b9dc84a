package mrt

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"bgpblackholing/internal/bgp"
)

// FuzzReader asserts the MRT decoder never panics on arbitrary input,
// always terminates (EOF or error), and never returns a nil record
// without an error.
func FuzzReader(f *testing.F) {
	// Seed with a real archive containing all record types.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	t0 := time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)
	_ = w.WritePeerIndexTable(&PeerIndexTable{
		Time:        t0,
		CollectorID: netip.MustParseAddr("10.0.0.1"),
		ViewName:    "fuzz",
		Peers:       []Peer{{BGPID: netip.MustParseAddr("10.0.0.2"), IP: netip.MustParseAddr("10.0.0.2"), AS: 3356}},
	})
	_ = w.WriteRIB(&RIB{
		Time:   t0,
		Prefix: netip.MustParsePrefix("192.88.99.1/32"),
		Entries: []RIBEntry{{
			PeerIndex:      0,
			OriginatedTime: t0,
			Attrs: &bgp.Update{
				Origin: bgp.OriginIGP, Path: bgp.NewPath(3356, 65001),
				NextHop: netip.MustParseAddr("10.0.0.3"),
			},
		}},
	})
	_ = w.WriteUpdate(&bgp.Update{
		Time: t0, PeerIP: netip.MustParseAddr("10.0.0.2"), PeerAS: 3356,
		Announced: []netip.Prefix{netip.MustParsePrefix("192.88.99.1/32")},
		Origin:    bgp.OriginIGP, Path: bgp.NewPath(3356),
		NextHop: netip.MustParseAddr("10.0.0.3"),
	}, netip.MustParseAddr("10.0.0.1"), 64900)
	full := buf.Bytes()
	f.Add(full)
	f.Add(full[:len(full)/2])
	mut := append([]byte(nil), full...)
	mut[7] ^= 0x55
	f.Add(mut)
	f.Add([]byte{})
	// A record larger than the reader's window, then records behind it.
	var big bytes.Buffer
	bw := NewWriter(&big)
	_ = bw.WriteRIB(bigRIB())
	_ = bw.WriteUpdate(sampleUpdate(0), collectorIP, 65535)
	f.Add(big.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 1000; i++ { // bounded: the reader must not loop forever
			rec, err := r.Next()
			if err != nil {
				return
			}
			if rec == nil {
				t.Fatal("Next returned neither a record nor an error")
			}
			if rib, ok := rec.(*RIB); ok {
				_, _ = r.ResolveRIB(rib)
			}
		}
	})
}
