package main

import (
	"context"
	"flag"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bgpblackholing"
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

// TestRunRefusesUnboundedByMistake: 0 is how a limit says "none"; a
// negative or non-finite -rate-limit, -live-buffer or -sub-queue is
// refused by name, not read as no limit (or, for +Inf, as a bucket that
// refills at once). A config built in code is held to the -asn flag's
// rule too: AS 0 is reserved (RFC 7607).
func TestRunRefusesUnboundedByMistake(t *testing.T) {
	for i, tc := range []struct {
		flag string
		cfg  config
	}{
		{"-rate-limit", config{rateLimit: -1}},
		{"-rate-limit", config{rateLimit: math.NaN()}},
		{"-rate-limit", config{rateLimit: math.Inf(1)}},
		{"-rate-limit", config{rateLimit: math.Inf(-1)}},
		{"-live-buffer", config{liveBuffer: -1}},
		{"-sub-queue", config{subQueue: -1}},
		{"-asn", config{}},
	} {
		// A run that let the value through stops at the policy instead
		// of serving.
		tc.cfg.policy = "?"
		if err := run(tc.cfg); err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("case %d: %v; want %s refused", i, err, tc.flag)
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

// TestLoadRules: a rules file is one compact rule a line; blank lines and
// #-comments are skipped, and a bad rule is reported by its line number.
func TestLoadRules(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	rules, err := loadRules(write("good", "# standing alerts\n\nname=dc prefix=10.1.0.0/16 mode=covered\n   # indented comment\n  name=slow min-duration=90s  \n\n"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rules {
		got = append(got, r.String())
	}
	if want := []string{"name=dc prefix=10.1.0.0/16 mode=covered", "name=slow min-duration=1m30s"}; !slices.Equal(got, want) {
		t.Errorf("rules %q, want %q", got, want)
	}
	_, err = loadRules(write("bad", "# one good rule, then a misspelt key\nname=a\n\nname=b prefixes=10.0.0.0/8\n"))
	if err == nil || !strings.HasPrefix(err.Error(), "line 4: ") || !strings.Contains(err.Error(), `"prefixes"`) {
		t.Errorf("bad rule on line 4: error %v", err)
	}
	if rules, err := loadRules(""); rules != nil || err != nil {
		t.Errorf("no rules file: %v, %v; want no rules and no error", rules, err)
	}
	if _, err := loadRules(filepath.Join(dir, "missing")); err == nil {
		t.Error("a missing rules file loaded")
	}
}

// TestIngestWindow: -ingest takes FROM:TO with TO after FROM, and a
// one-day window lands the detector's events in the store.
func TestIngestWindow(t *testing.T) {
	p, err := bgpblackholing.NewPipeline(bgpblackholing.SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	st, err := bgpblackholing.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, bad := range []string{"800", "810:800", "800:800", "a:b"} {
		if err := ingestWindow(p, st, bad); err == nil || !strings.Contains(err.Error(), "bad window") {
			t.Errorf("-ingest %q: %v, want it refused", bad, err)
		}
	}
	if st.Len() != 0 {
		t.Fatalf("refused windows left %d events in the store", st.Len())
	}
	if err := ingestWindow(p, st, "800:801"); err != nil {
		t.Fatal(err)
	}
	res, err := p.NewDetector().Run(context.Background(), p.Replay(800, 801))
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() == 0 || st.Len() != len(res.Events) {
		t.Errorf("ingested %d events, a detector run over the window finds %d", st.Len(), len(res.Events))
	}
}
