// Package bgpd implements a minimal BGP-4 speaker (RFC 4271) over real
// network connections: OPEN with the 4-octet-AS capability (RFC 6793),
// KEEPALIVE, NOTIFICATION and UPDATE exchange with hold-time
// supervision. It is the transport by which simulated route collectors
// can ingest feeds the way RIPE RIS and Route Views do — over live BGP
// sessions — rather than from files.
//
// The implementation covers the session subset a collector needs:
// handshake, keepalives, update exchange and orderly teardown. Policy
// (what to announce) lives in the caller. A collecting side runs one
// lifecycle: Establish, then Receive until the session ends.
package bgpd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"time"

	"bgpblackholing/internal/bgp"
)

// Message type codes (RFC 4271 §4.1).
const (
	typeOpen         = 1
	typeUpdate       = 2
	typeNotification = 3
	typeKeepalive    = 4
)

// Errors.
var (
	ErrBadVersion   = errors.New("bgpd: unsupported BGP version")
	ErrBadOpen      = errors.New("bgpd: malformed OPEN")
	ErrNotification = errors.New("bgpd: peer sent NOTIFICATION")
	ErrHoldExpired  = errors.New("bgpd: hold timer expired")
	ErrClosed       = errors.New("bgpd: session closed")
)

// Config describes the local side of a session.
type Config struct {
	// ASN is the local AS number (4-octet capable).
	ASN bgp.ASN
	// BGPID is the local BGP identifier.
	BGPID netip.Addr
	// HoldTime is the proposed hold time (0 disables keepalive
	// supervision; RFC minimum otherwise is 3s).
	HoldTime time.Duration
}

// Peer describes the remote side learned from its OPEN.
type Peer struct {
	ASN      bgp.ASN
	BGPID    netip.Addr
	HoldTime time.Duration
}

// Session is one established BGP session.
type Session struct {
	conn net.Conn
	cfg  Config
	peer Peer

	mu     sync.Mutex
	closed bool
	done   chan struct{} // closed with the session; stops KeepaliveLoop

	// negotiated hold time (min of both sides).
	hold time.Duration
}

// writeBound bounds the write of a KEEPALIVE and of a teardown's
// NOTIFICATION: a peer that has stopped reading must block neither the
// sender nor a Close waiting behind it.
const writeBound = 200 * time.Millisecond

// marshalOpen builds the OPEN message body.
func marshalOpen(cfg Config) []byte {
	body := make([]byte, 0, 29)
	body = append(body, 4) // version
	// My Autonomous System: AS_TRANS when the real ASN needs 4 octets.
	as16 := uint16(23456)
	if cfg.ASN.Is16Bit() {
		as16 = uint16(cfg.ASN)
	}
	body = binary.BigEndian.AppendUint16(body, as16)
	body = binary.BigEndian.AppendUint16(body, uint16(cfg.HoldTime.Seconds()))
	id := cfg.BGPID.As4()
	body = append(body, id[:]...)
	// Optional parameters: capability (param 2) for 4-octet AS (code 65).
	cap4 := []byte{65, 4, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(cap4[2:], uint32(cfg.ASN))
	param := append([]byte{2, byte(len(cap4))}, cap4...)
	body = append(body, byte(len(param)))
	body = append(body, param...)
	return body
}

// parseOpen decodes an OPEN body into a Peer.
func parseOpen(body []byte) (Peer, error) {
	if len(body) < 10 {
		return Peer{}, ErrBadOpen
	}
	if body[0] != 4 {
		return Peer{}, fmt.Errorf("%w: %d", ErrBadVersion, body[0])
	}
	p := Peer{
		ASN:      bgp.ASN(binary.BigEndian.Uint16(body[1:3])),
		HoldTime: time.Duration(binary.BigEndian.Uint16(body[3:5])) * time.Second,
		BGPID:    netip.AddrFrom4([4]byte(body[5:9])),
	}
	optLen := int(body[9])
	opts := body[10:]
	if len(opts) < optLen {
		return Peer{}, ErrBadOpen
	}
	opts = opts[:optLen]
	for len(opts) >= 2 {
		ptype, plen := opts[0], int(opts[1])
		if len(opts) < 2+plen {
			return Peer{}, ErrBadOpen
		}
		val := opts[2 : 2+plen]
		opts = opts[2+plen:]
		if ptype != 2 {
			continue // non-capability parameter
		}
		for len(val) >= 2 {
			code, clen := val[0], int(val[1])
			if len(val) < 2+clen {
				return Peer{}, ErrBadOpen
			}
			if code == 65 && clen == 4 {
				p.ASN = bgp.ASN(binary.BigEndian.Uint32(val[2:6]))
			}
			val = val[2+clen:]
		}
	}
	return p, nil
}

// writeMessage frames and sends one BGP message.
func writeMessage(w io.Writer, msgType byte, body []byte) error {
	msg, err := bgp.AppendMessage(nil, msgType, body)
	if err != nil {
		return err
	}
	_, err = w.Write(msg)
	return err
}

// readMessage reads one framed message of at most bgp.MaxMessageLen
// bytes and returns its type and body.
func readMessage(r io.Reader) (byte, []byte, error) {
	var hdr [bgp.HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	typ, total, err := bgp.ParseHeader(hdr[:])
	if err != nil {
		return 0, nil, err
	}
	if total > bgp.MaxMessageLen {
		return 0, nil, bgp.ErrBadLength
	}
	body := make([]byte, total-bgp.HeaderLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return typ, body, nil
}

// notify sends a NOTIFICATION, best-effort and bounded by writeBound.
func notify(conn net.Conn, code, subcode byte) {
	_ = conn.SetWriteDeadline(time.Now().Add(writeBound))
	_ = writeMessage(conn, typeNotification, []byte{code, subcode})
}

// Establish performs the OPEN/KEEPALIVE handshake on conn. Both sides
// call Establish; the handshake is symmetric. Sends run concurrently
// with receives so the handshake also works over fully synchronous
// transports (net.Pipe). It either returns an established session or
// closes conn: a failed handshake leaves no socket open. Establish sets
// no deadline of its own; one the caller put on conn bounds it.
func Establish(conn net.Conn, cfg Config) (_ *Session, err error) {
	defer func() {
		if err != nil {
			conn.Close()
		}
	}()
	body, err := exchange(conn, typeOpen, marshalOpen(cfg))
	if err != nil {
		return nil, err
	}
	peer, err := parseOpen(body)
	if err != nil {
		notify(conn, 2, 0) // RFC behaviour: an OPEN error, then fail
		return nil, err
	}
	// Each side's KEEPALIVE confirms establishment.
	if _, err := exchange(conn, typeKeepalive, nil); err != nil {
		return nil, err
	}
	s := &Session{conn: conn, cfg: cfg, peer: peer, done: make(chan struct{})}
	s.hold = cfg.HoldTime
	if peer.HoldTime > 0 && (s.hold == 0 || peer.HoldTime < s.hold) {
		s.hold = peer.HoldTime
	}
	return s, nil
}

// exchange sends one handshake message while it reads the peer's,
// which must be of the same type, and returns the peer's body.
func exchange(conn net.Conn, msgType byte, body []byte) ([]byte, error) {
	sent := make(chan error, 1)
	go func() { sent <- writeMessage(conn, msgType, body) }()
	got, peerBody, err := readMessage(conn)
	if err == nil {
		err = <-sent
	}
	switch {
	case err != nil:
		return nil, err
	case got == typeNotification:
		return nil, notificationError(peerBody)
	case got != msgType:
		return nil, fmt.Errorf("bgpd: expected message type %d, got %d", msgType, got)
	}
	return peerBody, nil
}

func notificationError(body []byte) error {
	if len(body) >= 2 {
		return fmt.Errorf("%w: code %d subcode %d", ErrNotification, body[0], body[1])
	}
	return ErrNotification
}

// Peer returns the remote side's identity.
func (s *Session) Peer() Peer { return s.peer }

// HoldTime returns the negotiated hold time.
func (s *Session) HoldTime() time.Duration { return s.hold }

// SendUpdate transmits one UPDATE.
func (s *Session) SendUpdate(u *bgp.Update) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	wire, err := bgp.MarshalUpdate(u)
	if err != nil {
		return err
	}
	// MarshalUpdate emits a complete framed message already.
	_, err = s.conn.Write(wire)
	return err
}

// SendKeepalive transmits a KEEPALIVE. The write is bounded by
// writeBound: the session's lock is held across it, and a peer that
// has stopped reading must not hold a Close behind it.
func (s *Session) SendKeepalive() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	_ = s.conn.SetWriteDeadline(time.Now().Add(writeBound))
	defer s.conn.SetWriteDeadline(time.Time{})
	return writeMessage(s.conn, typeKeepalive, nil)
}

// ReadUpdate blocks until the next UPDATE arrives, transparently
// consuming keepalives. It honours the negotiated hold time: silence
// longer than the hold time fails with ErrHoldExpired. io.EOF reports
// an orderly remote close.
func (s *Session) ReadUpdate() (*bgp.Update, error) {
	for {
		if s.hold > 0 {
			_ = s.conn.SetReadDeadline(time.Now().Add(s.hold))
		}
		msgType, body, err := readMessage(s.conn)
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				return nil, ErrHoldExpired
			}
			return nil, err
		}
		switch msgType {
		case typeKeepalive:
			continue
		case typeNotification:
			return nil, notificationError(body)
		case typeUpdate:
			u := &bgp.Update{}
			if err := bgp.UnmarshalUpdateBody(u, body); err != nil {
				return nil, err
			}
			u.Time = time.Now().UTC()
			return u, nil
		default:
			return nil, fmt.Errorf("bgpd: unexpected message type %d", msgType)
		}
	}
}

// Receive is the receive loop of a collecting side. It keeps the
// peer's hold timer alive with a KEEPALIVE every third of the
// negotiated hold time, hands each UPDATE to deliver — stamped with the
// peer's AS and the connection's remote address — and returns the
// error that ended the session (io.EOF for an orderly remote close),
// with the session closed.
func (s *Session) Receive(deliver func(*bgp.Update)) error {
	var keepalive chan error // nil when the hold time runs no keepalives
	if s.hold > 0 {
		keepalive = make(chan error, 1)
		go func() {
			err := s.KeepaliveLoop(s.hold / 3)
			s.Close() // a keepalive that failed ends the session
			keepalive <- err
		}()
	}
	peerIP := remoteIP(s.conn)
	var err error
	for {
		var u *bgp.Update
		if u, err = s.ReadUpdate(); err != nil {
			break
		}
		u.PeerAS, u.PeerIP = s.peer.ASN, peerIP
		deliver(u)
	}
	s.Close()
	if keepalive != nil {
		if kerr := <-keepalive; !errors.Is(kerr, ErrClosed) {
			return fmt.Errorf("bgpd: keepalive: %w", kerr)
		}
	}
	return err
}

// remoteIP is the address of conn's remote end, or the zero Addr when
// it is no IP (net.Pipe).
func remoteIP(conn net.Conn) netip.Addr {
	ap, _ := netip.ParseAddrPort(conn.RemoteAddr().String())
	return ap.Addr()
}

// Notify sends a NOTIFICATION (code/subcode) and closes the session;
// it fails with ErrClosed on a session already closed.
func (s *Session) Notify(code, subcode byte) error {
	if !s.end(code, subcode) {
		return ErrClosed
	}
	return s.conn.Close()
}

// Close ends the session with the RFC "Cease" notification. Closing a
// closed session is a no-op.
func (s *Session) Close() error {
	if !s.end(6, 0) {
		return nil
	}
	return s.conn.Close()
}

// end marks the session closed, which stops KeepaliveLoop, and sends
// the teardown's NOTIFICATION, best-effort and bounded like a
// KEEPALIVE. It reports false when the session was closed already.
func (s *Session) end(code, subcode byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.closed = true
	close(s.done)
	notify(s.conn, code, subcode)
	return true
}

// KeepaliveLoop sends keepalives every interval until the session
// closes, returning the moment it does; run it in a goroutine on
// long-lived sessions. It returns the first send error (ErrClosed on
// orderly shutdown).
func (s *Session) KeepaliveLoop(interval time.Duration) error {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return ErrClosed
		case <-t.C:
			if err := s.SendKeepalive(); err != nil {
				return err
			}
		}
	}
}
