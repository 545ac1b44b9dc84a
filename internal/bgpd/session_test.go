package bgpd

import (
	"errors"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"bgpblackholing/internal/bgp"
)

func TestNotifyTerminatesPeer(t *testing.T) {
	sa, sb := pipePair(t, cfg(1, "10.0.0.1"), cfg(2, "10.0.0.2"))
	defer sa.Close()
	done := make(chan error, 1)
	go func() {
		_, err := sa.ReadUpdate()
		done <- err
	}()
	if err := sb.Notify(6, 4); err != nil { // Cease / admin reset
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrNotification) {
		t.Fatalf("err = %v", err)
	}
	// Notify marked the session closed.
	if err := sb.Notify(6, 4); !errors.Is(err, ErrClosed) {
		t.Fatalf("second notify = %v", err)
	}
}

// TestKeepaliveLoopStopsOnClose: the loop returns when the session
// closes, not at its next tick.
func TestKeepaliveLoopStopsOnClose(t *testing.T) {
	sa, sb := pipePair(t, cfg(1, "10.0.0.1"), cfg(2, "10.0.0.2"))
	defer sa.Close()
	type stopped struct {
		err error
		at  time.Time
	}
	loopDone := make(chan stopped, 1)
	go func() {
		err := sb.KeepaliveLoop(time.Second)
		loopDone <- stopped{err, time.Now()}
	}()
	readDone := make(chan error, 1)
	go func() {
		_, err := sa.ReadUpdate()
		readDone <- err
	}()
	time.Sleep(30 * time.Millisecond)
	if err := sb.SendUpdate(&bgp.Update{
		Withdrawn: []netip.Prefix{netip.MustParsePrefix("31.0.0.1/32")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-readDone; err != nil {
		t.Fatalf("reader: %v", err)
	}
	closed := time.Now()
	sb.Close()
	select {
	case s := <-loopDone:
		if !errors.Is(s.err, ErrClosed) {
			t.Fatalf("loop err = %v", s.err)
		}
		if d := s.at.Sub(closed); d > 100*time.Millisecond {
			t.Fatalf("keepalive loop returned %v after Close, want within 100ms", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("keepalive loop did not stop")
	}
}

func TestEstablishRejectsGarbagePeer(t *testing.T) {
	ca, cb := net.Pipe()
	defer cb.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	var err error
	go func() {
		defer wg.Done()
		_, err = Establish(ca, cfg(1, "10.0.0.1"))
	}()
	// The "peer" writes garbage instead of a BGP message.
	go func() {
		buf := make([]byte, 64)
		cb.Read(buf) // consume the OPEN so the writer can proceed
		cb.Write(make([]byte, 19))
	}()
	wg.Wait()
	if err == nil {
		t.Fatal("handshake succeeded against garbage")
	}
}

func TestEstablishRejectsNonOpenFirstMessage(t *testing.T) {
	ca, cb := net.Pipe()
	defer cb.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	var err error
	go func() {
		defer wg.Done()
		_, err = Establish(ca, cfg(1, "10.0.0.1"))
	}()
	go func() {
		buf := make([]byte, 128)
		cb.Read(buf)
		writeMessage(cb, typeKeepalive, nil) // keepalive before OPEN
	}()
	wg.Wait()
	if err == nil {
		t.Fatal("handshake accepted KEEPALIVE as first message")
	}
}

func TestSendUpdateAfterClose(t *testing.T) {
	sa, sb := pipePair(t, cfg(1, "10.0.0.1"), cfg(2, "10.0.0.2"))
	sa.Close()
	sb.Close()
	err := sa.SendUpdate(&bgp.Update{Withdrawn: []netip.Prefix{netip.MustParsePrefix("31.0.0.1/32")}})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestPeerAccessors(t *testing.T) {
	sa, sb := pipePair(t, cfg(64900, "10.0.0.1"), cfg(2, "10.0.0.2"))
	defer sa.Close()
	defer sb.Close()
	if sa.Peer().HoldTime != 90*time.Second {
		t.Fatalf("peer hold = %v", sa.Peer().HoldTime)
	}
}
