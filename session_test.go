package bgpblackholing

// The collector side of a BGP session under hostile and merely quiet
// peers: ServeBGP bounds every handshake, closes every connection it
// gives up on, caps its sessions, and keeps an established peer's hold
// timer alive.

import (
	"cmp"
	"errors"
	"fmt"
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
)

// pipeListener hands ServeBGP the far ends of net.Pipe connections.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

func (l *pipeListener) dial() (net.Conn, error) {
	a, b := net.Pipe()
	select {
	case l.conns <- b:
		return a, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// listenerServer runs ServeBGP on ln with the given hold time, keeping
// its log lines.
type listenerServer struct {
	live   *LiveSource
	served chan error
	mu     sync.Mutex
	logs   []string
}

func serveBGP(ln net.Listener, hold time.Duration) *listenerServer {
	s := &listenerServer{live: NewLiveSource(), served: make(chan error, 1)}
	go func() {
		s.served <- s.live.ServeBGP(ln, BGPServerConfig{
			ASN: 64900, BGPID: netip.MustParseAddr("10.255.0.1"), HoldTime: hold,
			CollectorName: "hostile", Platform: PlatformRIS,
			Logf: func(format string, args ...any) {
				s.mu.Lock()
				s.logs = append(s.logs, fmt.Sprintf(format, args...))
				s.mu.Unlock()
			},
		})
	}()
	return s
}

// count reports how many log lines contain sub.
func (s *listenerServer) count(sub string) (n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.logs {
		if strings.Contains(l, sub) {
			n++
		}
	}
	return n
}

// stop closes ln and requires ServeBGP to return promptly, with the
// feed ended cleanly.
func (s *listenerServer) stop(ln net.Listener) error {
	ln.Close()
	select {
	case err := <-s.served:
		if err != nil {
			return fmt.Errorf("ServeBGP: %w", err)
		}
	case <-time.After(5 * time.Second):
		return errors.New("ServeBGP did not return after its listener closed")
	}
	if el, err := s.live.Next(); !errors.Is(err, io.EOF) {
		return fmt.Errorf("feed after ServeBGP returned: %v, %v; want io.EOF", el, err)
	}
	return nil
}

// peerOpen is an OPEN from AS 65001 proposing a 3 s hold time, with no
// optional parameters.
func peerOpen(t *testing.T) []byte {
	msg, err := bgp.AppendMessage(nil, 1, []byte{4, 0xfd, 0xe9, 0, 3, 10, 0, 0, 9, 0})
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

func openFDs() int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(fds)
}

// TestBGPSessionCapHoldsAPlatform ties maxBGPSessions to the Table 1
// deployment: one listener could hold every RIS session, or every Route
// Views session, twice over.
func TestBGPSessionCapHoldsAPlatform(t *testing.T) {
	cfg := collector.DefaultConfig()
	if busiest := max(cfg.RISPeers, cfg.RVPeers); 2*busiest > maxBGPSessions {
		t.Errorf("maxBGPSessions = %d, under twice the %d sessions of Table 1's busiest platform", maxBGPSessions, busiest)
	}
}

// TestServeBGPHostilePeers puts misbehaving peers in front of ServeBGP
// with a 3 s hold time, which bounds each handshake at 3 s, over
// net.Pipe and over real TCP. Whatever a peer sends or withholds, the
// listener closes its connection within the bound, so the peer reads
// EOF; a flood past the session cap is closed at accept; and once the
// listener closes no goroutine or descriptor is left behind.
func TestServeBGPHostilePeers(t *testing.T) {
	if testing.Short() {
		t.Skip("network integration test")
	}
	const hold = 3 * time.Second
	const ourOpen, keepalive = 37, bgp.HeaderLen
	open := peerOpen(t)
	notification, _ := bgp.AppendMessage(nil, 3, []byte{6, 0})
	claim, _ := bgp.AppendMessage(nil, 1, make([]byte, bgp.MaxMessageLen-bgp.HeaderLen))
	write := func(b []byte) func(net.Conn, <-chan struct{}) {
		return func(c net.Conn, _ <-chan struct{}) { c.Write(b) }
	}
	cases := []struct {
		name string
		// send is what the peer does once it has read the listener's OPEN;
		// closed is closed when the listener has closed the connection.
		send  func(c net.Conn, closed <-chan struct{})
		extra int           // bytes the peer reads after the OPEN
		by    time.Duration // when the connection must be closed
		flood bool
	}{
		{name: "silent", send: func(net.Conn, <-chan struct{}) {}, by: hold},
		{name: "byte per second", send: func(c net.Conn, closed <-chan struct{}) {
			// Half a second off the bound's phase: a byte landing unread
			// as the listener closes would reset the connection.
			wait := time.Second / 2
			for _, b := range open {
				select {
				case <-closed:
					return
				case <-time.After(wait):
				}
				wait = time.Second
				if _, err := c.Write([]byte{b}); err != nil {
					return
				}
			}
		}, by: hold},
		{name: "OPEN then silence", send: write(open), extra: keepalive, by: hold},
		{name: "NOTIFICATION mid-handshake", send: write(append(append([]byte(nil), open...), notification...)), extra: keepalive, by: time.Second},
		{name: "4096-byte header claim", send: write(claim[:bgp.HeaderLen]), by: hold},
		{name: "garbage", send: write(make([]byte, bgp.HeaderLen)), by: time.Second},
		{name: "connection flood", send: func(net.Conn, <-chan struct{}) {}, by: hold, flood: true},
	}
	transports := []struct {
		name   string
		listen func() (net.Listener, func() (net.Conn, error), error)
	}{
		{"pipe", func() (net.Listener, func() (net.Conn, error), error) {
			ln := newPipeListener()
			return ln, ln.dial, nil
		}},
		{"tcp", func() (net.Listener, func() (net.Conn, error), error) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, nil, err
			}
			return ln, func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) }, nil
		}},
	}

	// A peer reads the listener's OPEN, then does what its case says
	// while it reads the connection to its end.
	type peer struct {
		opened bool          // it read the listener's OPEN
		extra  int           // bytes it read after the OPEN
		err    error         // nil when it read a clean EOF
		at     time.Duration // when its connection ended
	}
	type outcome struct {
		peers    []peer
		refusals int   // refusals the listener logged
		err      error // from setting up, or from stopping the listener
	}
	runPeer := func(conn net.Conn, send func(net.Conn, <-chan struct{}), start time.Time) (p peer) {
		defer conn.Close()
		conn.SetReadDeadline(start.Add(hold + 2*time.Second)) // past the bound and a margin
		open := make([]byte, ourOpen)
		if _, p.err = io.ReadFull(conn, open); p.err == nil && open[18] == 1 {
			p.opened = true
			closed, sent := make(chan struct{}), make(chan struct{})
			go func() { send(conn, closed); close(sent) }()
			var n int64
			n, p.err = io.Copy(io.Discard, conn)
			p.extra = int(n)
			close(closed)
			conn.Close()
			<-sent
		} else if errors.Is(p.err, io.EOF) {
			p.err = nil
		}
		p.at = time.Since(start)
		return p
	}
	scenario := func(listen func() (net.Listener, func() (net.Conn, error), error), send func(net.Conn, <-chan struct{}), peers int) (o outcome) {
		ln, dial, err := listen()
		if err != nil {
			return outcome{err: err}
		}
		srv := serveBGP(ln, hold)
		results := make(chan peer, peers)
		start, dialed := time.Now(), 0
		for ; dialed < peers; dialed++ {
			conn, err := dial()
			if err != nil {
				o.err = err
				break
			}
			go func() { results <- runPeer(conn, send, start) }()
		}
		for range dialed {
			o.peers = append(o.peers, <-results)
		}
		o.err = cmp.Or(o.err, srv.stop(ln))
		o.refusals = srv.count("refusing")
		return o
	}

	goroutines, fds := faultfs.SnapshotGoroutines(), openFDs()
	// Every case runs at once, each on its own listener, so the test
	// takes one bound of wall time, not the sum of them.
	outcomes := map[string]chan outcome{}
	for _, tr := range transports {
		for _, c := range cases {
			peers := 1
			if c.flood {
				peers = maxBGPSessions + 8
			}
			done := make(chan outcome, 1)
			outcomes[tr.name+"/"+c.name] = done
			go func() { done <- scenario(tr.listen, c.send, peers) }()
		}
	}
	for _, tr := range transports {
		for _, c := range cases {
			t.Run(tr.name+"/"+c.name, func(t *testing.T) {
				o := <-outcomes[tr.name+"/"+c.name]
				if o.err != nil {
					t.Fatal(o.err)
				}
				refused, held := 0, 0
				for _, p := range o.peers {
					switch {
					case p.err != nil:
						if held++; held == 1 && p.opened {
							t.Errorf("peer read %d bytes, then no EOF: %v after %v",
								ourOpen+p.extra, p.err, p.at.Round(time.Millisecond))
						}
					case !p.opened:
						refused++
					case p.extra != c.extra:
						t.Errorf("peer read %d bytes after the OPEN, want %d", p.extra, c.extra)
					case p.at > c.by+time.Second:
						t.Errorf("connection closed after %v, want within %v", p.at.Round(time.Millisecond), c.by+time.Second)
					}
				}
				if held > 0 {
					t.Fatalf("the listener still held %d of %d connections", held, len(o.peers))
				}
				if want := len(o.peers) - min(len(o.peers), maxBGPSessions); refused != want {
					t.Errorf("%d connections closed at accept, want %d", refused, want)
				}
				if o.refusals != refused {
					t.Errorf("%d refusals logged, want %d", o.refusals, refused)
				}
			})
		}
	}
	faultfs.CheckGoroutines(t, goroutines)
	if fds < 0 {
		return
	}
	for deadline := time.Now().Add(5 * time.Second); openFDs() > fds; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d descriptors open, %d before the peers came", openFDs(), fds)
		}
	}
}

// TestServeBGPKeepsPeerHoldTimer: a peer that negotiates a 3 s hold time
// and sends nothing but its own keepalives is still established after
// 7 s — the listener's keepalives keep its hold timer from expiring —
// and its Close then ends the session and, with the listener, the feed
// cleanly.
func TestServeBGPKeepsPeerHoldTimer(t *testing.T) {
	if testing.Short() {
		t.Skip("network integration test")
	}
	t.Parallel()
	const hold = 3 * time.Second
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serveBGP(ln, hold)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer, err := bgpd.Establish(conn, bgpd.Config{ASN: 65001, BGPID: netip.MustParseAddr("10.0.0.9"), HoldTime: hold})
	if err != nil {
		t.Fatal(err)
	}
	go peer.KeepaliveLoop(hold / 3)
	readErr := make(chan error, 1)
	go func() {
		_, err := peer.ReadUpdate()
		readErr <- err
	}()
	start := time.Now()
	select {
	case err := <-readErr:
		t.Fatalf("peer session ended after %v: %v", time.Since(start).Round(time.Millisecond), err)
	case <-time.After(7 * time.Second):
	}
	peer.Close()
	<-readErr
	if err := srv.stop(ln); err != nil {
		t.Fatal(err)
	}
	if n := srv.count("code 6 subcode 0"); n != 1 {
		t.Errorf("the listener logged %d Cease endings, want 1: %q", n, srv.logs)
	}
}
