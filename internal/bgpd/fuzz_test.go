package bgpd

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"bgpblackholing/internal/bgp"
)

// endOfInput is the handshake's end of a net.Pipe, whose reads end in
// io.EOF once the peer's n bytes are read: a pipe has no half-close,
// and a peer that closed its end would fail the handshake's own writes.
type endOfInput struct {
	net.Conn
	n int
}

func (c *endOfInput) Read(p []byte) (int, error) {
	if c.n == 0 {
		return 0, io.EOF
	}
	n, err := c.Conn.Read(p[:min(len(p), c.n)])
	c.n -= n
	return n, err
}

// FuzzEstablish feeds arbitrary peer bytes into the handshake over
// net.Pipe. It must never panic and must return within its bound —
// nothing may wait on the deadline, since the peer's bytes end in EOF.
// A failed handshake closes its connection, so the peer reads EOF; an
// OPEN it accepts survives the OPEN codec: parseOpen(marshalOpen(peer))
// is peer.
func FuzzEstablish(f *testing.F) {
	msg := func(typ byte, body []byte) []byte {
		m, err := bgp.AppendMessage(nil, typ, body)
		if err != nil {
			f.Fatal(err)
		}
		return m
	}
	open := msg(typeOpen, marshalOpen(cfg(196615, "10.0.0.2")))
	keepalive := msg(typeKeepalive, nil)
	notification := msg(typeNotification, []byte{6, 0})
	f.Add(append(bytes.Clone(open), keepalive...)) // a peer that establishes
	f.Add(append(bytes.Clone(open), notification...))
	f.Add(open)
	f.Add(notification)
	f.Add(keepalive)
	f.Add(make([]byte, bgp.HeaderLen))
	f.Add(open[:bgp.HeaderLen+3])
	f.Add([]byte{})

	const bound = 5 * time.Second
	f.Fuzz(func(t *testing.T, peer []byte) {
		ca, cb := net.Pipe()
		defer cb.Close()
		ca.SetDeadline(time.Now().Add(bound))
		drained := make(chan struct{})
		go func() { io.Copy(io.Discard, cb); close(drained) }()
		go cb.Write(peer) // fails once the handshake's end closes

		start := time.Now()
		sess, err := Establish(&endOfInput{Conn: ca, n: len(peer)}, cfg(64900, "10.0.0.1"))
		if elapsed := time.Since(start); elapsed >= bound {
			t.Fatalf("handshake returned after %v, past its %v bound (err %v)", elapsed, bound, err)
		}
		if err == nil {
			p := sess.Peer()
			if got, err := parseOpen(marshalOpen(Config(p))); err != nil || got != p {
				t.Fatalf("accepted OPEN %+v does not round-trip: %+v, %v", p, got, err)
			}
			sess.Close()
		}
		select {
		case <-drained:
		case <-time.After(bound):
			t.Fatalf("the handshake's connection is still open (err %v)", err)
		}
	})
}
