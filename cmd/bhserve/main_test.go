package main

import (
	"flag"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestASNFlag: -asn is a 32-bit AS number other than 0 (RFC 7607). A
// value past 2^32-1 is refused, not wrapped onto a small AS, and so is 0,
// which an OPEN message may not carry.
func TestASNFlag(t *testing.T) {
	for _, tc := range []struct {
		arg     string
		want    uint32
		refused string // "" when accepted
	}{
		{"", 64900, ""},
		{"64900", 64900, ""},
		{"4294967295", 4294967295, ""},
		{"4294967297", 0, "out of range"},
		{"0", 0, "AS 0"},
		{"-1", 0, "invalid syntax"},
	} {
		var c config
		fs := flag.NewFlagSet("bhserve", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		flags(fs, &c)
		args := []string{}
		if tc.arg != "" {
			args = append(args, "-asn", tc.arg)
		}
		err := fs.Parse(args)
		switch {
		case tc.refused == "" && (err != nil || c.asn != tc.want):
			t.Errorf("-asn %q: AS %d, error %v; want AS %d", tc.arg, c.asn, err, tc.want)
		case tc.refused != "" && (err == nil || !strings.Contains(err.Error(), tc.refused)):
			t.Errorf("-asn %q: AS %d, error %v; want it refused (%s)", tc.arg, c.asn, err, tc.refused)
		}
	}
}

// TestNewServerTimeouts: the query API bounds slow headers and idle
// connections, and never the response write — /events NDJSON and /watch
// are unbounded streams.
func TestNewServerTimeouts(t *testing.T) {
	srv := newServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v > 0", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v > 0", srv.IdleTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0: a write deadline cuts streamed responses", srv.WriteTimeout)
	}
}
