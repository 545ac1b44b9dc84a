package main

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bgpblackholing"
)

// update rewrites testdata/golden.sha256 from the -store answers. The
// committed digests were generated by the code at bbeabf9 (the commit
// before bhquery became a Backend client), so they pin the rewrite to
// the bytes the three hand-written modes printed; regenerate them only
// for a deliberate change of output. The all.*, lpm.{json,ndjson} and
// origin.{json,ndjson} digests were re-recorded when the replay became
// time-ordered: the same records, in another closing order (seq).
var update = flag.Bool("update", false, "rewrite testdata/golden.sha256")

const goldenPath = "testdata/golden.sha256"

// runCLI runs one bhquery invocation in-process.
func runCLI(c config) (stdout, stderr string, err error) {
	var out, errb bytes.Buffer
	err = run(&out, &errb, &c)
	return out.String(), errb.String(), err
}

// cliFixture is one detector run (SmallOptions, seed 42, days 800–810)
// persisted twice: one store holding everything, and the same events
// split over two shards. The three ways of reaching it — the directory,
// one server, a list of servers — are bhquery's three modes.
type cliFixture struct {
	storeDir string
	one      string // base URL of a server over the whole store
	list     string // "a,b": base URLs of the two shard servers
	partial  string // "a,<closed server>"
	shardA   string
	sample   *bgpblackholing.EventRecord
}

func newCLIFixture(t *testing.T) *cliFixture {
	t.Helper()
	p, err := bgpblackholing.NewPipeline(bgpblackholing.SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	open := func() (*bgpblackholing.Store, string) {
		dir := t.TempDir()
		st, err := bgpblackholing.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st, dir
	}
	single, dir := open()
	shardA, dirA := open()
	shardB, dirB := open()
	det := p.NewDetector()
	waitSingle := det.SinkToStore(single)
	waitShards := det.SinkToShards(bgpblackholing.TimeShardPlan{Width: 24 * time.Hour, N: 2},
		[]*bgpblackholing.Store{shardA, shardB})
	if _, err := det.Run(context.Background(), p.Replay(800, 810)); err != nil {
		t.Fatal(err)
	}
	for _, wait := range []func() error{waitSingle, waitShards} {
		if err := wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Close the writers: every mode below reads what is on disk.
	for _, st := range []*bgpblackholing.Store{single, shardA, shardB} {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	serve := func(dir string) string {
		st, err := bgpblackholing.OpenStoreReadOnly(dir)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(bgpblackholing.NewStoreHandler(st, p))
		t.Cleanup(func() { srv.Close(); st.Close() })
		return srv.URL
	}
	f := &cliFixture{storeDir: dir, one: serve(dir), shardA: serve(dirA)}
	f.list = f.shardA + "," + serve(dirB)
	down := httptest.NewServer(nil)
	down.Close()
	f.partial = f.shardA + "," + down.URL

	// The filters come from a real event, so each has matches.
	out, _, err := runCLI(f.config(config{storeDir: dir, format: "json"}))
	if err != nil {
		t.Fatal(err)
	}
	var all []*bgpblackholing.EventRecord
	if err := json.Unmarshal([]byte(out), &all); err != nil {
		t.Fatal(err)
	}
	if len(all) < 100 {
		t.Fatalf("fixture holds only %d events", len(all))
	}
	// The sample is the median event with an inferred user by start and
	// prefix, a key the detector's closing order (seq) cannot move.
	var withUser []*bgpblackholing.EventRecord
	for _, rec := range all {
		if len(rec.Users) > 0 {
			withUser = append(withUser, rec)
		}
	}
	if len(withUser) == 0 {
		t.Fatal("no event with an inferred user in the fixture")
	}
	slices.SortFunc(withUser, func(a, b *bgpblackholing.EventRecord) int {
		return cmp.Or(a.Start.Compare(b.Start), strings.Compare(a.Prefix, b.Prefix))
	})
	f.sample = withUser[len(withUser)/2]
	return f
}

// config fills the flag defaults main() would.
func (f *cliFixture) config(c config) config {
	if c.mode == "" {
		c.mode = "exact"
	}
	if c.format == "" {
		c.format = "table"
	}
	c.every = 30
	c.groupTO = bgpblackholing.DefaultGroupTimeout
	c.scale, c.seed = 0.15, 42
	return c
}

// modes returns c aimed at the store directory, one server, and the
// server list.
func (f *cliFixture) modes(c config) map[string]config {
	c = f.config(c)
	st, one, list := c, c, c
	st.storeDir = f.storeDir
	one.server = f.one
	list.server = f.list
	return map[string]config{"store": st, "server": one, "servers": list}
}

type goldens struct {
	t    *testing.T
	want map[string]string
	got  map[string]string
}

func loadGoldens(t *testing.T) *goldens {
	g := &goldens{t: t, want: map[string]string{}, got: map[string]string{}}
	data, err := os.ReadFile(goldenPath)
	if err != nil && !*update {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if name, sum, ok := strings.Cut(line, " "); ok {
			g.want[name] = sum
		}
	}
	return g
}

// check compares one case's stdout against its recorded digest.
func (g *goldens) check(name, stdout string) {
	g.t.Helper()
	sum := fmt.Sprintf("%x %d", sha256.Sum256([]byte(stdout)), len(stdout))
	g.got[name] = sum
	if *update {
		return
	}
	if want, ok := g.want[name]; !ok {
		g.t.Errorf("%s: no golden recorded", name)
	} else if want != sum {
		g.t.Errorf("%s: stdout digest %s, golden %s; output starts:\n%.400s", name, sum, want, stdout)
	}
}

func (g *goldens) write() {
	names := make([]string, 0, len(g.got))
	for name := range g.got {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %s\n", name, g.got[name])
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		g.t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		g.t.Fatal(err)
	}
}

// differ reports a stdout divergence between two modes. When the
// goldens are being regenerated a divergence is logged, not failed: it
// is a fact about the code the goldens come from.
func differ(t *testing.T, name, a, b, outA, outB string) {
	t.Helper()
	if outA == outB {
		return
	}
	la, lb := strings.Split(outA, "\n"), strings.Split(outB, "\n")
	i := 0
	for i < len(la) && i < len(lb) && la[i] == lb[i] {
		i++
	}
	var da, db string
	if i < len(la) {
		da = la[i]
	}
	if i < len(lb) {
		db = lb[i]
	}
	msg := fmt.Sprintf("%s: -%s and -%s stdout diverge at line %d:\n  %s: %.200s\n  %s: %.200s", name, a, b, i+1, a, da, b, db)
	if *update {
		t.Log(msg)
	} else {
		t.Error(msg)
	}
}

// TestThreeModesByteIdentical pins bhquery's stdout: for every format ×
// filter the store directory, one server and a two-server list print
// the same bytes, and those bytes are the ones bbeabf9 printed.
func TestThreeModesByteIdentical(t *testing.T) {
	f := newCLIFixture(t)
	g := loadGoldens(t)
	addr, _, _ := strings.Cut(f.sample.Prefix, "/")
	filters := []struct {
		name string
		c    config
	}{
		{"all", config{}},
		{"lpm", config{prefix: addr, mode: "lpm"}},
		{"origin", config{origin: fmt.Sprint(f.sample.Users[0])}},
		{"limit5", config{limit: "5"}},
		{"empty", config{minDur: "999999h"}},
	}
	for _, format := range []string{"table", "json", "csv", "ndjson"} {
		for _, flt := range filters {
			name := flt.name + "." + format
			c := flt.c
			c.format = format
			outs := map[string]string{}
			for mode, mc := range f.modes(c) {
				out, _, err := runCLI(mc)
				if err != nil {
					t.Fatalf("%s -%s: %v", name, mode, err)
				}
				outs[mode] = out
			}
			if flt.name != "empty" && strings.Count(outs["store"], "\n") < 2 {
				t.Errorf("%s: filter matched nothing:\n%s", name, outs["store"])
			}
			differ(t, name, "store", "server", outs["store"], outs["server"])
			differ(t, name, "store", "servers", outs["store"], outs["servers"])
			g.check(name, outs["store"])
		}
	}

	// -enrich over HTTP: the servers annotate from their own world.
	for _, format := range []string{"table", "json", "csv", "ndjson"} {
		name := "enrich." + format
		modes := f.modes(config{format: format, enrich: true, limit: "25"})
		one, _, err := runCLI(modes["server"])
		if err != nil {
			t.Fatalf("%s -server: %v", name, err)
		}
		list, _, err := runCLI(modes["servers"])
		if err != nil {
			t.Fatalf("%s -servers: %v", name, err)
		}
		if !strings.Contains(one, "legitim") && !strings.Contains(one, "LEGITIM") {
			t.Errorf("%s: no legitimacy column or field:\n%.300s", name, one)
		}
		differ(t, name, "server", "servers", one, list)
		g.check(name, one)
	}

	// -figure4 is the same series whichever way the store is reached.
	fig := f.modes(config{figure4: true})
	figStore, _, err := runCLI(fig["store"])
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"server", "servers"} {
		out, _, err := runCLI(fig[mode])
		if err != nil {
			t.Fatalf("figure4 -%s: %v", mode, err)
		}
		differ(t, "figure4", "store", mode, figStore, out)
	}
	g.check("figure4", figStore)

	// -figure8 prints the one summary line from the store and from the
	// server holding it; a server list cannot merge durations.
	f8 := f.modes(config{figure8: true})
	f8Store, _, err := runCLI(f8["store"])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(f8Store, "figure8: ") || strings.Count(f8Store, "\n") != 1 {
		t.Errorf("figure8 -store printed %q, want one summary line", f8Store)
	}
	f8Server, _, err := runCLI(f8["server"])
	if err != nil {
		t.Fatalf("figure8 -server: %v", err)
	}
	differ(t, "figure8", "store", "server", f8Store, f8Server)
	if _, _, err := runCLI(f8["servers"]); err == nil || !strings.Contains(err.Error(), "single -server") {
		t.Errorf("figure8 over a server list: err %v, want the single-server refusal", err)
	}

	// -stats agrees on the event count.
	var counts []int
	for mode, mc := range f.modes(config{stats: true}) {
		out, _, err := runCLI(mc)
		if err != nil {
			t.Fatalf("stats -%s: %v", mode, err)
		}
		var s struct{ Events int }
		if err := json.Unmarshal([]byte(out), &s); err != nil {
			t.Fatalf("stats -%s: %v\n%s", mode, err, out)
		}
		counts = append(counts, s.Events)
	}
	if counts[0] == 0 || counts[0] != counts[1] || counts[1] != counts[2] {
		t.Errorf("-stats event counts disagree across modes: %v", counts)
	}

	if *update {
		g.write()
	}
}

// TestDownServerYieldsPartialAnswer: a dead server in the list degrades
// the answer to the surviving shard's events, warns on stderr, and
// still exits 0.
func TestDownServerYieldsPartialAnswer(t *testing.T) {
	f := newCLIFixture(t)
	for _, format := range []string{"table", "ndjson"} {
		alone := f.config(config{server: f.shardA, format: format})
		want, _, err := runCLI(alone)
		if err != nil {
			t.Fatal(err)
		}
		partial := alone
		partial.server = f.partial
		got, stderr, err := runCLI(partial)
		if err != nil {
			t.Fatalf("%s: a down server failed the run: %v", format, err)
		}
		if got != want {
			t.Errorf("%s: partial answer is not the surviving shard's answer", format)
		}
		if !strings.Contains(stderr, "warning: 1 server(s) failed to answer; results are partial") {
			t.Errorf("%s: no partial-result warning on stderr: %q", format, stderr)
		}
	}
}

// TestRoutedFigure4WarnsOfPartialAnswer: -figure4 over a router with a
// dead shard behind it prints the surviving shard's series and the
// partial-result warning, as an events query over the same router does.
func TestRoutedFigure4WarnsOfPartialAnswer(t *testing.T) {
	f := newCLIFixture(t)
	var shards []bgpblackholing.Backend
	for _, u := range strings.Split(f.partial, ",") {
		rb, err := bgpblackholing.NewRemoteBackend([]string{u}, bgpblackholing.RemoteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, rb)
	}
	router := httptest.NewServer(bgpblackholing.NewRouterHandler(bgpblackholing.NewFederatedStore(shards...), bgpblackholing.RouterOptions{}))
	defer router.Close()

	want, _, err := runCLI(f.config(config{server: f.shardA, figure4: true}))
	if err != nil {
		t.Fatal(err)
	}
	got, stderr, err := runCLI(f.config(config{server: router.URL, figure4: true}))
	if err != nil {
		t.Fatalf("a dead shard behind the router failed the run: %v", err)
	}
	if got != want {
		t.Errorf("the routed series is not the surviving shard's:\n%s\nwant\n%s", got, want)
	}
	if !strings.Contains(stderr, "warning: 1 server(s) failed to answer; results are partial") {
		t.Errorf("no partial-result warning on stderr: %q", stderr)
	}
}

// TestQueryFlagsReadAsEvents: the query flags are the /events parameters
// under flag names, read by the API's reader, so a flag set means what
// its parameters mean and is refused where /events answers 400. Each row
// is one bhquery once read apart from /events: -origin in any base,
// truncated to 32 bits, and -limit -1 as "every event".
func TestQueryFlagsReadAsEvents(t *testing.T) {
	dir := t.TempDir()
	st, err := bgpblackholing.OpenStore(dir)
	if err == nil {
		err = st.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	ro, err := bgpblackholing.OpenStoreReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	srv := httptest.NewServer(bgpblackholing.NewStoreHandler(ro, nil))
	defer srv.Close()

	for _, row := range []struct {
		args   []string
		params string                // the same query in /events parameters
		want   *bgpblackholing.Query // nil: refused
	}{
		{[]string{"-origin", "0x10"}, "origin=0x10", nil},
		{[]string{"-origin", "4294967297"}, "origin=4294967297", nil},
		{[]string{"-origin", "010"}, "origin=010", &bgpblackholing.Query{OriginASN: 10}},
		{[]string{"-limit", "-1"}, "limit=-1", nil},
	} {
		name := strings.Join(row.args, " ")
		var c config
		fs := flag.NewFlagSet("bhquery", flag.ContinueOnError)
		flags(fs, &c)
		if err := fs.Parse(append([]string{"-store", dir, "-format", "ndjson"}, row.args...)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp, err := http.Get(srv.URL + "/events?" + row.params)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		q, qerr := c.query()
		_, _, runErr := runCLI(c)
		param, _, _ := strings.Cut(row.params, "=")
		switch {
		case row.want == nil && (qerr == nil || runErr == nil):
			t.Errorf("%s: read as %+v, run error %v; want it refused", name, q, runErr)
		case row.want == nil && !strings.HasPrefix(qerr.Error(), param+": "):
			t.Errorf("%s: error %q does not name the parameter %s", name, qerr, param)
		case row.want != nil && (qerr != nil || runErr != nil || q != *row.want):
			t.Errorf("%s: read as %+v (%v), run error %v; want %+v", name, q, qerr, runErr, *row.want)
		}
		if refused := resp.StatusCode == http.StatusBadRequest; refused != (row.want == nil) {
			t.Errorf("GET /events?%s: status %d, but bhquery %s refused=%v", row.params, resp.StatusCode, name, row.want == nil)
		}
	}
}

// TestOneServerFlagsRefuseAList: -watch, -metrics and -figure8 each read
// a route of one server, whose answer does not merge across servers.
// Given a server list, each returns the single-server refusal without
// dialing any of them.
func TestOneServerFlagsRefuseAList(t *testing.T) {
	var dialed atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		dialed.Add(1)
		http.Error(w, "unavailable", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	for name, c := range map[string]config{"-watch": {watch: true}, "-metrics": {metrics: true}, "-figure8": {figure8: true}} {
		c.server, c.format, c.groupTO = srv.URL+","+srv.URL, "table", time.Minute
		done := make(chan error, 1)
		go func() { _, _, err := runCLI(c); done <- err }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "single -server") {
				t.Errorf("%s over a server list: err %v, want the single-server refusal", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s over a server list: still running after 5s, want the single-server refusal", name)
		}
	}
	if n := dialed.Load(); n != 0 {
		t.Errorf("the refused runs dialed the servers %d times, want 0", n)
	}
}

// TestServerRoutesCarryTheToken: -metrics sends -auth-token and copies
// the exposition through; without the token -metrics fails with the
// server's 401, and -watch stops on it instead of reconnecting.
func TestServerRoutesCarryTheToken(t *testing.T) {
	dir := t.TempDir()
	st, err := bgpblackholing.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := httptest.NewServer(bgpblackholing.NewStoreHandlerWith(st, nil, bgpblackholing.HandlerOptions{
		AuthToken: "s3cret", Telemetry: bgpblackholing.NewTelemetry(),
	}))
	defer srv.Close()

	out, _, err := runCLI(config{server: srv.URL, metrics: true, authToken: "s3cret"})
	if err != nil || !strings.Contains(out, "# TYPE ") {
		t.Errorf("-metrics with the token: err %v, output %.200q; want the exposition", err, out)
	}
	for name, c := range map[string]config{"-metrics": {metrics: true}, "-watch": {watch: true, format: "table"}} {
		c.server = srv.URL
		done := make(chan error, 1)
		go func() { _, _, err := runCLI(c); done <- err }()
		select {
		case err := <-done:
			var re *bgpblackholing.RemoteError
			if !errors.As(err, &re) || re.Status != http.StatusUnauthorized {
				t.Errorf("%s without the token: err %v, want the server's 401", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s without the token: still running after 5s, want it to stop on the 401", name)
		}
	}
}

// TestAdminVerbs drives the admin verbs on a copy of the fixture's store.
// Each prints its summary line to the writer run is given and does what
// the line says: an erased prefix is gone from the reopened store, a
// bounded erasure keeps the prefix's later events, compaction keeps every
// live event, and the replica opens read-only with the store's Len.
func TestAdminVerbs(t *testing.T) {
	f := newCLIFixture(t)
	dir, replica := t.TempDir(), filepath.Join(t.TempDir(), "replica")
	if err := os.CopyFS(dir, os.DirFS(f.storeDir)); err != nil {
		t.Fatal(err)
	}
	under := func(dir string, p netip.Prefix) ([]*bgpblackholing.Event, int) {
		t.Helper()
		st, err := bgpblackholing.OpenStoreReadOnly(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		return st.Query(bgpblackholing.Query{Prefix: p, Mode: bgpblackholing.PrefixCovered}).Events, st.Len()
	}
	admin := func(c config, want string) {
		t.Helper()
		c.storeDir = dir
		out, _, err := runCLI(c)
		if err != nil {
			t.Fatal(err)
		}
		if !regexp.MustCompile(want).MatchString(out) {
			t.Errorf("printed %q, want a line matching %s", out, want)
		}
	}

	// The whole history of the sample's prefix.
	whole := netip.MustParsePrefix(f.sample.Prefix)
	gone, before := under(dir, whole)
	admin(config{deletePrefix: whole.String()}, fmt.Sprintf(`^bhquery: erased %d events under %s \(its whole history\); bytes leave the disk at the partition's next compaction\n$`,
		len(gone), regexp.QuoteMeta(whole.String())))

	// The events of another prefix ending at or before its first end.
	all, _ := under(dir, netip.MustParsePrefix("0.0.0.0/0"))
	var bounded netip.Prefix
	var upTo time.Time
	var erased, kept int
	for _, ev := range all {
		evs, _ := under(dir, ev.Prefix)
		first := slices.MinFunc(evs, func(a, b *bgpblackholing.Event) int { return a.End.Compare(b.End) }).End.Truncate(time.Second)
		erased = len(slices.DeleteFunc(slices.Clone(evs), func(e *bgpblackholing.Event) bool { return e.End.After(first) }))
		if kept = len(evs) - erased; kept > 0 {
			bounded, upTo = ev.Prefix, first
			break
		}
	}
	if kept == 0 {
		t.Fatal("no prefix in the fixture has events ending at two times")
	}
	admin(config{deletePrefix: bounded.String(), deleteUpTo: upTo.UTC().Format(time.RFC3339)},
		fmt.Sprintf(`^bhquery: erased %d events under %s \(events ending at/before %s\); `,
			erased, regexp.QuoteMeta(bounded.String()), upTo.UTC().Format(time.RFC3339)))

	admin(config{compact: "tiered"}, fmt.Sprintf(`^bhquery: compacted \d+ -> \d+ segments across \d+ partitions: 0 duplicates dropped, %d dead records erased, merged \[[\d ]*\], skipped \[[\d ]*\]\n$`,
		len(gone)+erased))
	left, after := under(dir, whole)
	if len(left) != 0 || after != before-len(gone)-erased {
		t.Errorf("reopened after erasure and compaction: %d events under %s and %d in all; want 0 and %d", len(left), whole, after, before-len(gone)-erased)
	}
	if evs, _ := under(dir, bounded); len(evs) != kept {
		t.Errorf("reopened: %d events under %s, want the %d ending after %s", len(evs), bounded, kept, upTo)
	}

	admin(config{replicateTo: replica}, fmt.Sprintf(`^bhquery: replicated %s -> %s: \d+ files copied \(\d+ bytes\), 0 unchanged, 0 retired\n$`,
		regexp.QuoteMeta(dir), regexp.QuoteMeta(replica)))
	if _, n := under(replica, netip.Prefix{}); n != after {
		t.Errorf("the replica opens with %d events, want the store's %d", n, after)
	}
}
