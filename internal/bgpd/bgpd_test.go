package bgpd

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/netip"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"bgpblackholing/internal/bgp"
)

// pipePair establishes two sessions over an in-memory connection.
func pipePair(t *testing.T, a, b Config) (*Session, *Session) {
	t.Helper()
	ca, cb := net.Pipe()
	var sa, sb *Session
	var ea, eb error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); sa, ea = Establish(ca, a) }()
	go func() { defer wg.Done(); sb, eb = Establish(cb, b) }()
	wg.Wait()
	if ea != nil || eb != nil {
		t.Fatalf("handshake: %v / %v", ea, eb)
	}
	return sa, sb
}

func cfg(asn bgp.ASN, id string) Config {
	return Config{ASN: asn, BGPID: netip.MustParseAddr(id), HoldTime: 90 * time.Second}
}

func TestHandshakeExchangesIdentities(t *testing.T) {
	sa, sb := pipePair(t, cfg(64900, "10.0.0.1"), cfg(196615, "10.0.0.2"))
	defer sa.Close()
	defer sb.Close()
	if sa.Peer().ASN != 196615 {
		t.Fatalf("a sees peer AS %v, want 196615 (4-octet via capability)", sa.Peer().ASN)
	}
	if sb.Peer().ASN != 64900 {
		t.Fatalf("b sees peer AS %v", sb.Peer().ASN)
	}
	if sa.Peer().BGPID != netip.MustParseAddr("10.0.0.2") {
		t.Fatalf("peer BGP ID = %v", sa.Peer().BGPID)
	}
	if sa.HoldTime() != 90*time.Second {
		t.Fatalf("hold = %v", sa.HoldTime())
	}
}

func TestUpdateExchange(t *testing.T) {
	sa, sb := pipePair(t, cfg(64900, "10.0.0.1"), cfg(3356, "10.0.0.2"))
	defer sa.Close()
	defer sb.Close()

	want := &bgp.Update{
		Announced:   []netip.Prefix{netip.MustParsePrefix("31.0.0.1/32")},
		Origin:      bgp.OriginIGP,
		Path:        bgp.NewPath(3356, 65001),
		NextHop:     netip.MustParseAddr("10.0.0.2"),
		Communities: []bgp.Community{bgp.MakeCommunity(3356, 9999), bgp.CommunityNoExport},
	}
	done := make(chan error, 1)
	var got *bgp.Update
	go func() {
		var err error
		got, err = sa.ReadUpdate()
		done <- err
	}()
	if err := sb.SendUpdate(want); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got.Announced[0] != want.Announced[0] || !got.Path.Equal(want.Path) {
		t.Fatalf("update mismatch: %+v", got)
	}
	if !got.HasCommunity(bgp.MakeCommunity(3356, 9999)) || !got.HasNoExport() {
		t.Fatal("communities lost in transit")
	}
	if got.Time.IsZero() {
		t.Fatal("arrival time not stamped")
	}
}

func TestKeepalivesAreTransparent(t *testing.T) {
	sa, sb := pipePair(t, cfg(1, "10.0.0.1"), cfg(2, "10.0.0.2"))
	defer sa.Close()
	defer sb.Close()
	done := make(chan error, 1)
	go func() {
		_, err := sa.ReadUpdate()
		done <- err
	}()
	for i := 0; i < 3; i++ {
		if err := sb.SendKeepalive(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sb.SendUpdate(&bgp.Update{
		Withdrawn: []netip.Prefix{netip.MustParsePrefix("31.0.0.1/32")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("reader failed through keepalives: %v", err)
	}
}

func TestCloseSendsCease(t *testing.T) {
	sa, sb := pipePair(t, cfg(1, "10.0.0.1"), cfg(2, "10.0.0.2"))
	done := make(chan error, 1)
	go func() {
		_, err := sa.ReadUpdate()
		done <- err
	}()
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	err := <-done
	if !errors.Is(err, ErrNotification) {
		t.Fatalf("err = %v, want Cease notification", err)
	}
	// Double close is a no-op; further sends fail.
	if err := sb.Close(); err != nil {
		t.Fatal("double close errored")
	}
	if err := sb.SendKeepalive(); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close = %v", err)
	}
	sa.Close()
}

func TestHoldTimerExpires(t *testing.T) {
	ca, cb := net.Pipe()
	short := Config{ASN: 1, BGPID: netip.MustParseAddr("10.0.0.1"), HoldTime: 50 * time.Millisecond}
	var sa, sb *Session
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); sa, _ = Establish(ca, short) }()
	go func() { defer wg.Done(); sb, _ = Establish(cb, short) }()
	wg.Wait()
	if sa == nil || sb == nil {
		t.Fatal("handshake failed")
	}
	defer sa.Close()
	defer sb.Close()
	// Nobody talks: the reader must fail with ErrHoldExpired.
	_, err := sa.ReadUpdate()
	if !errors.Is(err, ErrHoldExpired) {
		t.Fatalf("err = %v, want ErrHoldExpired", err)
	}
}

func TestOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type result struct {
		u   *bgp.Update
		err error
	}
	collected := make(chan result, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			collected <- result{nil, err}
			return
		}
		s, err := Establish(conn, cfg(64900, "10.255.0.1")) // collector side
		if err != nil {
			collected <- result{nil, err}
			return
		}
		defer s.Close()
		u, err := s.ReadUpdate()
		collected <- result{u, err}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	router, err := Establish(conn, cfg(65001, "10.0.0.9")) // announcing router
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	if err := router.SendUpdate(&bgp.Update{
		Announced:   []netip.Prefix{netip.MustParsePrefix("31.0.0.1/32")},
		Origin:      bgp.OriginIGP,
		Path:        bgp.NewPath(65001),
		NextHop:     netip.MustParseAddr("10.0.0.9"),
		Communities: []bgp.Community{bgp.CommunityBlackhole},
	}); err != nil {
		t.Fatal(err)
	}
	res := <-collected
	if res.err != nil {
		t.Fatal(res.err)
	}
	if !res.u.HasCommunity(bgp.CommunityBlackhole) {
		t.Fatal("blackhole community lost over TCP")
	}
}

func TestParseOpenErrors(t *testing.T) {
	if _, err := parseOpen([]byte{3, 0, 1, 0, 90}); !errors.Is(err, ErrBadOpen) && !errors.Is(err, ErrBadVersion) {
		t.Fatalf("short/bad open: %v", err)
	}
	if _, err := parseOpen(append([]byte{3}, make([]byte, 9)...)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("version: %v", err)
	}
	// Truncated optional parameters.
	body := marshalOpen(cfg(1, "10.0.0.1"))
	if _, err := parseOpen(body[:len(body)-3]); err == nil {
		t.Fatal("truncated params accepted")
	}
}

func TestReadMessageRejectsBadFraming(t *testing.T) {
	// Bad marker.
	r, w := io.Pipe()
	go func() {
		bad := make([]byte, 19)
		w.Write(bad)
		w.Close()
	}()
	if _, _, err := readMessage(r); err == nil {
		t.Fatal("bad marker accepted")
	}
}

// replayConn is a connection that reads a fixed byte stream.
type replayConn struct {
	net.Conn
	r *bytes.Reader
}

func (c replayConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// TestReadUpdateAllocations: ReadUpdate decodes the body it read in
// place — no second, re-framed copy of the message for the decoder —
// so an update costs the frame's body, the Update and the decoder's
// slices (prefixes, path segments, ASNs, communities), and the header.
func TestReadUpdateAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts differ under the race detector")
	}
	wire, err := bgp.MarshalUpdate(&bgp.Update{
		Announced:   []netip.Prefix{netip.MustParsePrefix("31.0.0.1/32")},
		Origin:      bgp.OriginIGP,
		Path:        bgp.NewPath(3356, 65001),
		NextHop:     netip.MustParseAddr("10.0.0.2"),
		Communities: []bgp.Community{bgp.CommunityBlackhole},
	})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 200
	s := &Session{conn: replayConn{r: bytes.NewReader(bytes.Repeat(wire, runs+1))}}
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := s.ReadUpdate(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ReadUpdate: %.1f allocations per update", allocs)
	if allocs > 7 {
		t.Fatalf("ReadUpdate allocates %.1f times per update, want <= 7", allocs)
	}
}

func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}
