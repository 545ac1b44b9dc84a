package bgpblackholing

import (
	"context"
	"errors"
	"io"
	"net"
	"net/netip"
	"sync"
	"time"

	"bgpblackholing/internal/bgpd"
	"bgpblackholing/internal/stream"
)

// This file is the facade over internal/bgpd: real RFC 4271 sessions
// over TCP, on both sides — a collector accepting sessions into a
// LiveSource (ServeBGP), and a router announcing into a collector
// (DialBGP). Together with Detector.Run over the LiveSource they form
// the paper's §10 near-real-time workflow end to end, over actual
// sockets.

// BGPConfig describes the local side of a BGP session.
type BGPConfig struct {
	// ASN is the local AS number (4-octet capable).
	ASN ASN
	// BGPID is the local BGP identifier.
	BGPID netip.Addr
	// HoldTime is the proposed hold time (0 disables keepalive
	// supervision; the RFC minimum otherwise is 3s).
	HoldTime time.Duration
	// DialTimeout bounds DialBGP end to end: the TCP connect AND the
	// OPEN/KEEPALIVE handshake (a peer whose kernel accepts the
	// connection but whose daemon never answers the OPEN would
	// otherwise hang a dialer forever). Zero applies
	// DefaultDialTimeout; negative disables the bound.
	DialTimeout time.Duration
}

// DefaultDialTimeout bounds DialBGP (connect + handshake) when
// BGPConfig.DialTimeout is zero.
const DefaultDialTimeout = 30 * time.Second

// dialTimeout resolves the configured timeout against the default.
func (c BGPConfig) dialTimeout() time.Duration {
	switch {
	case c.DialTimeout < 0:
		return 0
	case c.DialTimeout == 0:
		return DefaultDialTimeout
	}
	return c.DialTimeout
}

// BGPSession is one established BGP session.
type BGPSession struct {
	sess *bgpd.Session
}

// EstablishBGP performs the OPEN/KEEPALIVE handshake over an existing
// connection (either side of it).
func EstablishBGP(conn net.Conn, cfg BGPConfig) (*BGPSession, error) {
	sess, err := bgpd.Establish(conn, bgpd.Config{ASN: cfg.ASN, BGPID: cfg.BGPID, HoldTime: cfg.HoldTime})
	if err != nil {
		return nil, err
	}
	return &BGPSession{sess: sess}, nil
}

// DialBGP connects to a BGP speaker and performs the handshake,
// bounded end to end by cfg.DialTimeout (DefaultDialTimeout when
// zero).
func DialBGP(addr string, cfg BGPConfig) (*BGPSession, error) {
	return DialBGPContext(context.Background(), addr, cfg)
}

// DialBGPContext is DialBGP with caller-controlled cancellation: the
// TCP connect aborts when ctx is canceled, and the tighter of ctx's
// deadline and cfg.DialTimeout bounds the whole dial including the
// OPEN handshake.
func DialBGPContext(ctx context.Context, addr string, cfg BGPConfig) (*BGPSession, error) {
	deadline := time.Time{}
	if to := cfg.dialTimeout(); to > 0 {
		deadline = time.Now().Add(to)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	dialer := net.Dialer{Deadline: deadline}
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	// The deadline must also cover the handshake: a peer that accepts
	// the TCP connection but never answers the OPEN is the hang the
	// timeout exists for. Established sessions manage their own read
	// deadlines from the hold time, so clear it afterwards.
	if !deadline.IsZero() {
		conn.SetDeadline(deadline)
	}
	sess, err := EstablishBGP(conn, cfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	return sess, nil
}

// PeerASN returns the remote AS number learned from its OPEN.
func (s *BGPSession) PeerASN() ASN { return s.sess.Peer().ASN }

// SendUpdate writes one UPDATE message.
func (s *BGPSession) SendUpdate(u *Update) error { return s.sess.SendUpdate(u) }

// ReadUpdate reads the next UPDATE, transparently answering keepalives.
// It returns io.EOF when the peer hangs up and an error when the peer
// signals one with a NOTIFICATION.
func (s *BGPSession) ReadUpdate() (*Update, error) { return s.sess.ReadUpdate() }

// Close ends the session with a Cease notification.
func (s *BGPSession) Close() error { return s.sess.Close() }

// BGPServerConfig configures a collector-side BGP listener.
type BGPServerConfig struct {
	// Local session identity (see BGPConfig).
	ASN      ASN
	BGPID    netip.Addr
	HoldTime time.Duration
	// CollectorName and Platform label every published element.
	CollectorName string
	Platform      Platform
	// Logf, when non-nil, receives session lifecycle messages
	// (handshakes, session ends).
	Logf func(format string, args ...any)
}

func (c *BGPServerConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// ServeBGP accepts BGP sessions on ln and publishes every received
// UPDATE — stamped with the session's peer AS and address — into the
// live source, like a RIPE RIS collector ingesting peer feeds. It
// blocks until the listener is closed, then waits for the established
// sessions to finish reading (every update already on the wire is
// published) and closes the source so the consuming Detector.Run
// drains and returns. Callers that must not wait for lingering
// sessions close the source directly, as bhserve's SIGINT path does —
// late publishes on a closed source are dropped.
func (l *LiveSource) ServeBGP(ln net.Listener, cfg BGPServerConfig) error {
	var sessions sync.WaitGroup
	defer l.Close()
	defer sessions.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		sessions.Add(1)
		go func() {
			defer sessions.Done()
			l.serveBGPSession(conn, cfg)
		}()
	}
}

func (l *LiveSource) serveBGPSession(conn net.Conn, cfg BGPServerConfig) {
	sess, err := bgpd.Establish(conn, bgpd.Config{ASN: cfg.ASN, BGPID: cfg.BGPID, HoldTime: cfg.HoldTime})
	if err != nil {
		cfg.logf("handshake failed from %s: %v", conn.RemoteAddr(), err)
		return
	}
	defer sess.Close()
	cfg.logf("session up with AS%s (%s)", sess.Peer().ASN, conn.RemoteAddr())
	peerIP := peerAddr(conn)
	for {
		u, err := sess.ReadUpdate()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				cfg.logf("session with AS%s ended: %v", sess.Peer().ASN, err)
			}
			return
		}
		u.PeerAS = sess.Peer().ASN
		u.PeerIP = peerIP
		l.Publish(&stream.Elem{Collector: cfg.CollectorName, Platform: cfg.Platform, Update: u})
	}
}

func peerAddr(conn net.Conn) netip.Addr {
	if ap, err := netip.ParseAddrPort(conn.RemoteAddr().String()); err == nil {
		return ap.Addr()
	}
	return netip.Addr{}
}
