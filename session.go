package bgpblackholing

import (
	"cmp"
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

// BGPSession is one established BGP session.
type BGPSession struct {
	sess *bgpd.Session
}

// EstablishBGP performs the OPEN/KEEPALIVE handshake over an existing
// connection (either side of it), closing conn when it fails. It sets
// no deadline: one the caller put on conn bounds it.
func EstablishBGP(conn net.Conn, cfg BGPConfig) (*BGPSession, error) {
	return establish(conn, cfg, time.Time{})
}

// establish is the one handshake of every session, dialed, accepted or
// handed in: bounded by deadline unless it is zero — which leaves
// conn's deadlines as the caller set them — and closing conn when it
// fails. An established session manages its own read deadlines from
// the hold time, so the bound is cleared once it is up.
func establish(conn net.Conn, cfg BGPConfig, deadline time.Time) (*BGPSession, error) {
	if !deadline.IsZero() {
		conn.SetDeadline(deadline)
	}
	sess, err := bgpd.Establish(conn, bgpd.Config{ASN: cfg.ASN, BGPID: cfg.BGPID, HoldTime: cfg.HoldTime})
	if err != nil {
		return nil, err
	}
	if !deadline.IsZero() {
		conn.SetDeadline(time.Time{})
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
	var deadline time.Time
	if cfg.DialTimeout >= 0 {
		deadline = time.Now().Add(cmp.Or(cfg.DialTimeout, DefaultDialTimeout))
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	dialer := net.Dialer{Deadline: deadline}
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	// The deadline covers the handshake too: a peer that accepts the TCP
	// connection but never answers the OPEN is the hang it exists for.
	return establish(conn, cfg, deadline)
}

// PeerASN returns the remote AS number learned from its OPEN.
func (s *BGPSession) PeerASN() ASN { return s.sess.Peer().ASN }

// SendUpdate writes one UPDATE message.
func (s *BGPSession) SendUpdate(u *Update) error { return s.sess.SendUpdate(u) }

// Close ends the session with a Cease notification.
func (s *BGPSession) Close() error { return s.sess.Close() }

// receive runs the session's receive loop (bgpd.Session.Receive),
// publishing every update into live under the collector's name and
// platform, and returns the error that ended the session.
func (s *BGPSession) receive(live *stream.Live, collectorName string, platform Platform) error {
	return s.sess.Receive(func(u *Update) {
		live.Publish(&stream.Elem{Collector: collectorName, Platform: platform, Update: u})
	})
}

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

// maxBGPSessions caps the listener's concurrent sessions, each counted
// from accept to teardown. The paper's Table 1 (collector.DefaultConfig)
// counts 425 sessions over all of RIS's collectors and 269 over all of
// Route Views', so one listener under the cap could hold every session
// of either platform, RIS's more than twice over. A flood of connections
// holds at most 1024 goroutines and sockets, each for no longer than the
// handshake bound unless it completes a handshake. A connection past the
// cap is closed at accept.
const maxBGPSessions = 1024

// ServeBGP accepts BGP sessions on ln and publishes every received
// UPDATE — stamped with the session's peer AS and address — into the
// live source, like a RIPE RIS collector ingesting peer feeds. Each
// handshake is bounded by the configured hold time (DefaultDialTimeout
// when it is zero), an established session is kept alive with
// keepalives, and at most 1024 sessions run at once. ServeBGP blocks
// until the listener is closed, then waits for the established
// sessions to finish reading (every update already on the wire is
// published) and closes the source so the consuming Detector.Run
// drains and returns. Callers that must not wait for lingering
// sessions close the source directly, as bhserve's SIGINT path does —
// late publishes on a closed source are dropped.
func (l *LiveSource) ServeBGP(ln net.Listener, cfg BGPServerConfig) error {
	var sessions sync.WaitGroup
	defer l.Close()
	defer sessions.Wait()
	local := BGPConfig{ASN: cfg.ASN, BGPID: cfg.BGPID, HoldTime: cfg.HoldTime}
	bound := cmp.Or(cfg.HoldTime, DefaultDialTimeout) // of each handshake
	slots := make(chan struct{}, maxBGPSessions)
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		select {
		case slots <- struct{}{}:
		default:
			cfg.logf("refusing %s: %d sessions open", conn.RemoteAddr(), maxBGPSessions)
			conn.Close()
			continue
		}
		sessions.Add(1)
		go func() {
			defer func() { <-slots; sessions.Done() }()
			sess, err := establish(conn, local, time.Now().Add(bound))
			if err != nil {
				cfg.logf("handshake failed from %s: %v", conn.RemoteAddr(), err)
				return
			}
			cfg.logf("session up with AS%s (%s)", sess.PeerASN(), conn.RemoteAddr())
			if err := sess.receive(l.live, cfg.CollectorName, cfg.Platform); !errors.Is(err, io.EOF) {
				cfg.logf("session with AS%s ended: %v", sess.PeerASN(), err)
			}
		}()
	}
}
