package bgpblackholing

// Session-resilience tests: dial timeouts against unresponsive peers,
// and the RedialSource reconnect loop driven through real TCP sessions
// killed on schedule by faultfs.FlakyConn.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/netip"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/bgpd"
	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/faultfs"
	"bgpblackholing/internal/mrt"
)

// TestDialTimeoutUnresponsivePeer dials a listener whose kernel
// accepts the TCP connection but whose "daemon" never answers the
// OPEN: without the handshake-covering deadline this would hang
// forever.
func TestDialTimeoutUnresponsivePeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Never Accept: connections sit established in the backlog with a
	// silent peer behind them.

	start := time.Now()
	_, err = DialBGP(ln.Addr().String(), BGPConfig{
		ASN: 65001, BGPID: netip.MustParseAddr("10.0.0.1"),
		DialTimeout: 200 * time.Millisecond,
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("dial against a silent peer succeeded")
	}
	if !os.IsTimeout(err) {
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() {
			t.Fatalf("want a timeout error, got %v", err)
		}
	}
	if elapsed > 5*time.Second {
		t.Fatalf("timeout took %v, configured 200ms", elapsed)
	}
}

// TestDialBGPContextCancel proves a canceled context aborts the dial
// promptly even with a long configured timeout.
func TestDialBGPContextCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = DialBGPContext(ctx, ln.Addr().String(), BGPConfig{
		ASN: 65001, BGPID: netip.MustParseAddr("10.0.0.1"),
		DialTimeout: time.Hour,
	})
	if err == nil {
		t.Fatal("dial with an expired context succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("context cancellation took %v", elapsed)
	}
}

// testUpdate builds a minimal valid announcement for wire round-trips.
func testUpdate(i int) *Update {
	return &Update{
		Time:      time.Date(2015, 3, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute),
		Origin:    bgp.OriginIGP,
		Path:      bgp.NewPath(65001, 65002),
		NextHop:   netip.MustParseAddr("192.0.2.1"),
		Announced: []netip.Prefix{netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 20, byte(i), 0}), 24)},
	}
}

// reseedDump builds a one-entry TABLE_DUMP_V2 archive for the reseed
// path.
func reseedDump(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	dumpTime := time.Date(2015, 3, 1, 1, 0, 0, 0, time.UTC)
	if err := w.WritePeerIndexTable(&mrt.PeerIndexTable{
		Time:        dumpTime,
		CollectorID: netip.MustParseAddr("22.0.0.1"),
		ViewName:    "rrc00",
		Peers: []mrt.Peer{{
			BGPID: netip.MustParseAddr("22.0.1.1"),
			IP:    netip.MustParseAddr("22.0.1.1"),
			AS:    65001,
		}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRIB(&mrt.RIB{
		Time:   dumpTime,
		Prefix: netip.MustParsePrefix("31.200.0.1/32"),
		Entries: []mrt.RIBEntry{{
			PeerIndex:      0,
			OriginatedTime: dumpTime.Add(-time.Hour),
			Attrs: &bgp.Update{
				Origin:  bgp.OriginIGP,
				Path:    bgp.NewPath(65001, 65002),
				NextHop: netip.MustParseAddr("22.0.1.2"),
			},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChaosRedialSessionReset drives the full reconnect loop over real
// TCP: the first session is killed mid-feed by a FlakyConn write
// budget on the collector side; the source must back off, redial,
// replay the reseed RIB dump into the stream, and resume the live
// feed — emitting structured transitions throughout.
func TestChaosRedialSessionReset(t *testing.T) {
	if testing.Short() {
		t.Skip("network integration test")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dump := reseedDump(t)

	serverCfg := bgpd.Config{ASN: 65001, BGPID: netip.MustParseAddr("10.255.0.1")}
	var serverWG sync.WaitGroup
	serverWG.Add(1)
	go func() {
		defer serverWG.Done()
		for sessionNo := 1; ; sessionNo++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wire := net.Conn(conn)
			if sessionNo == 1 {
				// Handshake writes OPEN + KEEPALIVE (2), then two
				// updates fit the budget; the third write kills the
				// session mid-feed.
				wire = faultfs.Flaky(conn).FailWritesAfter(4, nil)
			}
			sess, err := bgpd.Establish(wire, serverCfg)
			if err != nil {
				conn.Close()
				continue
			}
			for i := 0; ; i++ {
				if err := sess.SendUpdate(testUpdate(sessionNo*10 + i)); err != nil {
					break
				}
				if sessionNo > 1 && i == 1 {
					// Two updates delivered on the healthy session;
					// hold it open until the client closes.
					io.Copy(io.Discard, conn)
					break
				}
			}
			conn.Close()
			if sessionNo > 1 {
				return
			}
		}
	}()

	var tmu sync.Mutex
	var transitions []ConnTransition
	src := NewRedialSource(ln.Addr().String(), RedialConfig{
		Session:        BGPConfig{ASN: 64900, BGPID: netip.MustParseAddr("10.0.0.9"), DialTimeout: 5 * time.Second},
		CollectorName:  "chaos",
		Platform:       collector.PlatformRIS,
		InitialBackoff: 10 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		Jitter:         -1,
		Reseed: func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(dump)), nil
		},
		OnTransition: func(tr ConnTransition) {
			tmu.Lock()
			transitions = append(transitions, tr)
			tmu.Unlock()
		},
	})

	// 2 updates (session 1) + 1 reseed entry + 2 updates (session 2).
	const want = 5
	var got []*Elem
	for len(got) < want {
		el, err := src.Next()
		if err != nil {
			t.Fatalf("Next after %d elements: %v", len(got), err)
		}
		got = append(got, el)
	}
	src.Close()
	for {
		if _, err := src.Next(); err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("drain after Close: %v", err)
			}
			break
		}
	}
	ln.Close()
	serverWG.Wait()

	// The reseed entry must sit between the two sessions' updates and
	// carry the dump's prefix.
	if got[2].Update.Announced[0] != netip.MustParsePrefix("31.200.0.1/32") {
		t.Errorf("element 3 = %v, want the reseed RIB entry", got[2].Update.Announced)
	}
	for i, wantIdx := range []int{10, 11, -1, 20, 21} {
		if wantIdx < 0 {
			continue
		}
		if got[i].Update.Announced[0] != testUpdate(wantIdx).Announced[0] {
			t.Errorf("element %d = %v, want update %d", i, got[i].Update.Announced, wantIdx)
		}
		if got[i].Update.PeerAS != 65001 {
			t.Errorf("element %d peer AS = %v, want the dialed peer's 65001", i, got[i].Update.PeerAS)
		}
	}

	tmu.Lock()
	defer tmu.Unlock()
	counts := map[ConnState]int{}
	var sawBackoffErr bool
	for _, tr := range transitions {
		counts[tr.To]++
		if tr.To == ConnBackoff && tr.Err != nil {
			sawBackoffErr = true
		}
	}
	if counts[ConnEstablished] < 2 {
		t.Errorf("established %d times, want ≥ 2 (initial + redial): %+v", counts[ConnEstablished], transitions)
	}
	if counts[ConnReseeding] != 1 {
		t.Errorf("reseeding transitions = %d, want 1", counts[ConnReseeding])
	}
	if counts[ConnBackoff] == 0 || !sawBackoffErr {
		t.Error("session reset produced no backoff transition carrying the failure")
	}
	if transitions[len(transitions)-1].To != ConnClosed {
		t.Errorf("final state %v, want closed", transitions[len(transitions)-1].To)
	}
}

// TestRedialKeepsPeerHoldTimer: a collector that negotiates a 3 s hold
// time and sends nothing but its own keepalives is still established
// with the source after 7 s — the source's keepalives keep its hold
// timer from expiring — and reads a Cease when the source closes, while
// the source's consumer reads a clean end.
func TestRedialKeepsPeerHoldTimer(t *testing.T) {
	if testing.Short() {
		t.Skip("network integration test")
	}
	t.Parallel()
	const hold = 3 * time.Second
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	collectorErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			collectorErr <- err
			return
		}
		sess, err := bgpd.Establish(conn, bgpd.Config{ASN: 65001, BGPID: netip.MustParseAddr("10.255.0.1"), HoldTime: hold})
		if err != nil {
			collectorErr <- err
			return
		}
		defer sess.Close()
		go sess.KeepaliveLoop(hold / 3)
		_, err = sess.ReadUpdate()
		collectorErr <- err
	}()

	src := NewRedialSource(ln.Addr().String(), RedialConfig{
		Session:        BGPConfig{ASN: 64900, BGPID: netip.MustParseAddr("10.0.0.9"), HoldTime: hold, DialTimeout: 5 * time.Second},
		InitialBackoff: 10 * time.Millisecond,
		Jitter:         -1,
		OnTransition:   func(ConnTransition) {},
	})
	next := make(chan error, 1)
	go func() {
		_, err := src.Next()
		next <- err
	}()
	start := time.Now()
	select {
	case err := <-collectorErr:
		t.Fatalf("collector session ended after %v: %v", time.Since(start).Round(time.Millisecond), err)
	case <-time.After(7 * time.Second):
	}
	if st := src.Stats(); st.State != ConnEstablished.String() || st.Establishes != 1 {
		t.Fatalf("after 7 s the source is %s with %d establishes, want established once", st.State, st.Establishes)
	}
	src.Close()
	if err := <-collectorErr; !errors.Is(err, bgpd.ErrNotification) || !strings.Contains(err.Error(), "code 6 ") {
		t.Fatalf("collector read %v on the source's Close, want a Cease", err)
	}
	if err := <-next; !errors.Is(err, io.EOF) {
		t.Fatalf("consumer read %v after Close, want io.EOF", err)
	}
}

// TestChaosRedialRetryBudget exhausts the retry budget against a dead
// address: the feed must end with the terminal error, not a clean EOF.
func TestChaosRedialRetryBudget(t *testing.T) {
	// Grab a port and close it so dials are refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var tmu sync.Mutex
	var last ConnTransition
	src := NewRedialSource(addr, RedialConfig{
		Session:        BGPConfig{ASN: 64900, BGPID: netip.MustParseAddr("10.0.0.9"), DialTimeout: time.Second},
		InitialBackoff: 5 * time.Millisecond,
		Jitter:         -1,
		MaxRetries:     2,
		OnTransition: func(tr ConnTransition) {
			tmu.Lock()
			last = tr
			tmu.Unlock()
		},
	})
	_, err = src.Next()
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("budget exhaustion surfaced %v, want a terminal error", err)
	}
	if !strings.Contains(err.Error(), "retry budget") {
		t.Fatalf("terminal error %q does not name the retry budget", err)
	}
	tmu.Lock()
	defer tmu.Unlock()
	if last.To != ConnGaveUp {
		t.Fatalf("final transition to %v, want gave-up", last.To)
	}
	if last.Attempt != 3 {
		t.Fatalf("gave up after attempt %d, want 3 (budget 2 + the final try)", last.Attempt)
	}
}
