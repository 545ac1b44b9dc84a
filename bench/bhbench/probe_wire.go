package main

// Live wire layers: the BGP codec, a bgpd session over a loopback
// socket pair and the live source's hand-off. They move live's burst
// rate and alert latency and nothing on detect or report. The engine's
// classification rides along because it wants the same decoded updates.

import (
	"errors"
	"io"
	"net"
	"net/netip"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/bgpd"
	"bgpblackholing/internal/stream"
)

func probeWire(tr *tracer, in *probeInputs) error {
	tr.chain = "wire"
	files, err := loadArchives(in.archives)
	if err != nil {
		return err
	}
	perFile, _, err := decodeArchives(files)
	if err != nil {
		return err
	}
	var elems []*stream.Elem
	var updates []*bgp.Update
	for _, f := range perFile {
		elems = append(elems, f...)
		for _, el := range f {
			updates = append(updates, el.Update)
		}
	}
	tr.do("wire.probes", 1, func() {
		classifyProbe(tr, in.gen.Dict, in.gen.Topo, elems)
		msgs := make([][]byte, 0, len(updates))
		tr.do("bgp.marshal", len(updates), func() {
			for _, u := range updates {
				b, merr := bgp.MarshalUpdate(u)
				if merr != nil {
					err = merr
					return
				}
				msgs = append(msgs, b)
			}
		})
		tr.do("bgp.unmarshal", len(msgs), func() {
			for _, b := range msgs {
				if _, uerr := bgp.UnmarshalUpdate(b); uerr != nil {
					err = uerr
				}
			}
		})
		if err != nil {
			return
		}
		err = sessionProbe(tr, updates)
		if err != nil {
			return
		}
		live := stream.NewLive()
		tr.do("stream.live", len(updates), func() {
			for _, u := range updates {
				live.Publish(&stream.Elem{Collector: "probe", Update: u})
				if _, nerr := live.Next(); nerr != nil {
					err = nerr
				}
			}
		})
		live.Close()
	})
	return err
}

// sessionProbe sends the updates over an established session on a
// loopback TCP pair and times the reading side end to end.
func sessionProbe(tr *tracer, updates []*bgp.Update) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	type accepted struct {
		sess *bgpd.Session
		err  error
	}
	acc := make(chan accepted, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			acc <- accepted{nil, err}
			return
		}
		s, err := bgpd.Establish(conn, bgpd.Config{ASN: 64900, BGPID: netip.MustParseAddr("10.255.0.1")})
		acc <- accepted{s, err}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	sender, err := bgpd.Establish(conn, bgpd.Config{ASN: 64999, BGPID: netip.MustParseAddr("10.0.0.9")})
	if err != nil {
		return err
	}
	a := <-acc
	if a.err != nil {
		return a.err
	}
	defer a.sess.Close()
	sendErr := make(chan error, 1)
	go func() {
		for _, u := range updates {
			if err := sender.SendUpdate(u); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- sender.Close()
	}()
	read := 0
	var rerr error
	tr.do("bgpd.read", len(updates), func() {
		for read < len(updates) {
			if _, err := a.sess.ReadUpdate(); err != nil {
				if !errors.Is(err, io.EOF) {
					rerr = err
				}
				return
			}
			read++
		}
	})
	if err := <-sendErr; err != nil && rerr == nil {
		rerr = err
	}
	if rerr == nil && read != len(updates) {
		rerr = errors.New("bgpd probe: session ended before every update was read")
	}
	return rerr
}
