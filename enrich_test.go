package bgpblackholing

// Tests for the query-time legitimacy enrichment plane: the annotator
// wired through Query.Enrich, the /events?enrich=1 and /legitimacy HTTP
// surfaces with their error paths, the guarantee that un-enriched
// responses keep the pre-enrichment wire format byte for byte, the
// NDJSON streaming path (QuerySeq) matching the materialized path, and
// the ParseProviderRef casing fix.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	"bgpblackholing/internal/core"
	"bgpblackholing/internal/dictionary"
	"bgpblackholing/internal/rpki"
)

// fixtureAnnotator documents 3356:9999 (private, max /32) and caps
// 174:666 at /24; the registry validates 10.1/16 host routes for AS
// 65001 and strands AS 65002's more-specifics under 10.2/16.
func fixtureAnnotator() *Annotator {
	reg := &RPKIRegistry{}
	reg.Add(ROA{Prefix: netip.MustParsePrefix("10.1.0.0/16"), MaxLength: 32, ASN: 65001})
	reg.Add(ROA{Prefix: netip.MustParsePrefix("10.2.0.0/16"), MaxLength: 16, ASN: 65002})
	dict := dictionary.New()
	dict.AddPrivate(MakeCommunity(3356, 9999), 3356, 32)
	dict.AddPrivate(MakeCommunity(174, 666), 174, 24)
	return NewAnnotator(reg, dict)
}

func TestQueryEnrich(t *testing.T) {
	st := storeFixture(t)
	st.SetAnnotator(fixtureAnnotator())

	res := st.Query(Query{Enrich: true})
	if len(res.Events) != 3 || len(res.Annotations) != 3 {
		t.Fatalf("events/annotations = %d/%d, want 3/3", len(res.Events), len(res.Annotations))
	}
	// Event 0: 10.1.2.3/32, origin 65001 → valid, documented community.
	if got := res.Annotations[0]; got.Legitimacy != VerdictLegitimate || got.RPKISummary() != "valid" {
		t.Fatalf("annotation 0 = %+v", got)
	}
	// Event 1: 10.1.9.9/32 is covered by AS 65001's ROA but originated
	// by 65002 → invalid at its only origin → illegitimate.
	if got := res.Annotations[1]; got.Legitimacy != VerdictIllegitimate || got.RPKISummary() != "invalid" {
		t.Fatalf("annotation 1 = %+v", got)
	}
	// Event 2: 172.16.5.0/24 has no covering ROA → not-found, still
	// legitimate (absence of RPKI is not condemnation).
	if got := res.Annotations[2]; got.Legitimacy != VerdictLegitimate || got.RPKISummary() != "not-found" {
		t.Fatalf("annotation 2 = %+v", got)
	}

	// Enrich off, or no annotator: no annotations allocated.
	if res := st.Query(Query{}); res.Annotations != nil {
		t.Fatalf("unexpected annotations without Enrich: %+v", res.Annotations)
	}
	st.SetAnnotator(nil)
	if res := st.Query(Query{Enrich: true}); res.Annotations != nil {
		t.Fatalf("unexpected annotations without annotator: %+v", res.Annotations)
	}
}

func TestHTTPEventsEnriched(t *testing.T) {
	st := storeFixture(t)
	st.SetAnnotator(fixtureAnnotator())
	srv := httptest.NewServer(NewStoreHandler(st, nil))
	defer srv.Close()

	var resp struct {
		Total  int           `json:"total"`
		Events []EventRecord `json:"events"`
	}
	getJSON(t, srv.URL+"/events?enrich=1", &resp)
	if resp.Total != 3 {
		t.Fatalf("total = %d", resp.Total)
	}
	for i, rec := range resp.Events {
		if rec.Legitimacy == "" {
			t.Fatalf("event %d: no legitimacy field: %+v", i, rec)
		}
		if len(rec.RPKI) == 0 || len(rec.CommunityDoc) == 0 {
			t.Fatalf("event %d: missing enrichment sections: %+v", i, rec)
		}
	}
	if resp.Events[0].RPKI[0].State != "valid" || resp.Events[0].Legitimacy != VerdictLegitimate {
		t.Fatalf("event 0 enrichment: %+v", resp.Events[0])
	}

	// Enriched NDJSON carries the same fields.
	raw, ct := getRaw(t, srv.URL+"/events?enrich=true&format=ndjson")
	if ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(raw), "\n")
	if len(lines) != 3 {
		t.Fatalf("ndjson: %d lines", len(lines))
	}
	var rec EventRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil || rec.Legitimacy == "" {
		t.Fatalf("ndjson enrichment: %v %q", err, lines[0])
	}
}

// TestHTTPAnnotatorAttachedAfterHandler proves the handler resolves the
// store's annotator per request: SetAnnotator after NewStoreHandler
// still enables enrichment (the natural read-only-frontend order).
func TestHTTPAnnotatorAttachedAfterHandler(t *testing.T) {
	st := storeFixture(t)
	srv := httptest.NewServer(NewStoreHandler(st, nil))
	defer srv.Close()

	if resp := getJSON(t, srv.URL+"/events?enrich=1", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-attach: status %d, want 503", resp.StatusCode)
	}
	st.SetAnnotator(fixtureAnnotator())
	var resp struct {
		Events []EventRecord `json:"events"`
	}
	getJSON(t, srv.URL+"/events?enrich=1", &resp)
	if len(resp.Events) != 3 || resp.Events[0].Legitimacy == "" {
		t.Fatalf("post-attach enrichment missing: %+v", resp.Events)
	}
}

func TestHTTPLegitimacySummary(t *testing.T) {
	st := storeFixture(t)
	st.SetAnnotator(fixtureAnnotator())
	srv := httptest.NewServer(NewStoreHandler(st, nil))
	defer srv.Close()

	var sum struct {
		Total        int            `json:"total"`
		Legitimacy   map[string]int `json:"legitimacy"`
		RPKI         map[string]int `json:"rpki"`
		CommunityDoc map[string]int `json:"community_doc"`
	}
	getJSON(t, srv.URL+"/legitimacy", &sum)
	if sum.Total != 3 {
		t.Fatalf("total = %d", sum.Total)
	}
	if sum.Legitimacy[VerdictLegitimate] != 2 || sum.Legitimacy[VerdictIllegitimate] != 1 {
		t.Fatalf("verdicts = %+v", sum.Legitimacy)
	}
	if sum.RPKI["valid"] != 1 || sum.RPKI["invalid"] != 1 || sum.RPKI["not-found"] != 1 {
		t.Fatalf("rpki histogram = %+v", sum.RPKI)
	}
	if sum.CommunityDoc["private"] != 3 {
		t.Fatalf("community_doc histogram = %+v", sum.CommunityDoc)
	}

	// Filters narrow the summary like /events.
	getJSON(t, srv.URL+"/legitimacy?prefix=10.1.0.0/16&mode=covered", &sum)
	if sum.Total != 2 {
		t.Fatalf("filtered total = %d, want 2", sum.Total)
	}
}

func TestHTTPEnrichmentErrorPaths(t *testing.T) {
	st := storeFixture(t) // no annotator, no pipeline
	srv := httptest.NewServer(NewStoreHandler(st, nil))
	defer srv.Close()

	// Enrichment without a world: 503, mirroring the table endpoints.
	if resp := getJSON(t, srv.URL+"/events?enrich=1", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("enrich without world: status %d, want 503", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/legitimacy", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("legitimacy without world: status %d, want 503", resp.StatusCode)
	}
	// Bad enrich value: 400.
	if resp := getJSON(t, srv.URL+"/events?enrich=banana", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad enrich: status %d, want 400", resp.StatusCode)
	}
	// Non-positive grouping timeout: 400 instead of a nonsense grouping.
	for _, v := range []string{"-5s", "0s"} {
		if resp := getJSON(t, srv.URL+"/figure8?timeout="+v, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("figure8 timeout=%s: status %d, want 400", v, resp.StatusCode)
		}
	}
	// Negative duration bounds: 400.
	if resp := getJSON(t, srv.URL+"/events?min_duration=-1h", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative min_duration: status %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/events?max_duration=-1s", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative max_duration: status %d, want 400", resp.StatusCode)
	}
	// A legitimacy summary with a bad filter param is 400, not 503.
	stAnn := storeFixture(t)
	stAnn.SetAnnotator(fixtureAnnotator())
	srv2 := httptest.NewServer(NewStoreHandler(stAnn, nil))
	defer srv2.Close()
	if resp := getJSON(t, srv2.URL+"/legitimacy?from=yesterday", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("legitimacy bad filter: status %d, want 400", resp.StatusCode)
	}
}

// getRaw fetches a URL and returns the body and content type.
func getRaw(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// TestUnenrichedResponsesByteIdentical proves enrichment is invisible
// until asked for: with an annotator attached (but enrich off) every
// /events response — JSON and NDJSON — is byte-identical to the one a
// pre-enrichment handler (no annotator anywhere) serves.
func TestUnenrichedResponsesByteIdentical(t *testing.T) {
	plain := storeFixture(t)
	enrichable := storeFixture(t)
	enrichable.SetAnnotator(fixtureAnnotator())
	srvPlain := httptest.NewServer(NewStoreHandler(plain, nil))
	defer srvPlain.Close()
	srvEnrich := httptest.NewServer(NewStoreHandler(enrichable, nil))
	defer srvEnrich.Close()

	for _, path := range []string{
		"/events",
		"/events?prefix=10.1.0.0/16&mode=covered",
		"/events?format=ndjson",
		"/events?origin=65001&min_duration=1h",
	} {
		a, _ := getRaw(t, srvPlain.URL+path)
		b, _ := getRaw(t, srvEnrich.URL+path)
		// elapsed_us is wall-clock noise; everything else must match to
		// the byte, so mask just that field.
		if maskElapsed(a) != maskElapsed(b) {
			t.Fatalf("%s: responses differ with enrich off:\n%s\n---\n%s", path, a, b)
		}
		if strings.Contains(a, "legitimacy") || strings.Contains(a, `"rpki"`) {
			t.Fatalf("%s: enrichment keys leaked into un-enriched response:\n%s", path, a)
		}
	}
}

func maskElapsed(s string) string {
	out := []string{}
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, `"elapsed_us"`) {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// TestEventRecordWireFormatGolden pins the exact un-enriched JSON wire
// format: a serialized record must match the pre-enrichment shape byte
// for byte — no new keys, no reordering.
func TestEventRecordWireFormatGolden(t *testing.T) {
	pr := ProviderRef{Kind: ProviderAS, ASN: 3356}
	ev := &Event{
		Prefix:      netip.MustParsePrefix("10.1.2.3/32"),
		Start:       time.Date(2015, 3, 1, 12, 0, 0, 0, time.UTC),
		End:         time.Date(2015, 3, 1, 15, 0, 0, 0, time.UTC),
		Providers:   []ProviderRef{pr},
		Users:       []ASN{65001},
		Communities: []Community{MakeCommunity(3356, 9999)},
		Platforms:   []Platform{PlatformRIS},
		Peers:       []netip.Addr{netip.MustParseAddr("192.0.2.1")},
		Detections:  2,
	}
	got, err := json.Marshal(NewEventRecord(ev))
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"prefix":"10.1.2.3/32","start":"2015-03-01T12:00:00Z","end":"2015-03-01T15:00:00Z","duration_seconds":10800,"providers":["AS3356"],"users":[65001],"communities":["3356:9999"],"platforms":["RIS"],"peers":1,"detections":2}`
	if string(got) != want {
		t.Fatalf("wire format drifted:\n got %s\nwant %s", got, want)
	}
}

// TestNDJSONStreamsMatchMaterialized asserts the QuerySeq-driven NDJSON
// branch emits exactly what the materialized Query path would.
func TestNDJSONStreamsMatchMaterialized(t *testing.T) {
	st := storeFixture(t)
	srv := httptest.NewServer(NewStoreHandler(st, nil))
	defer srv.Close()

	for _, path := range []string{
		"/events?format=ndjson",
		"/events?format=ndjson&prefix=10.1.0.0/16&mode=covered",
		"/events?format=ndjson&limit=2",
		"/events?format=ndjson&origin=65002",
	} {
		raw, _ := getRaw(t, srv.URL+path)

		// Materialized reference: run the equivalent Query and encode
		// the records the way the JSON path does.
		q, err := ParseQuery(httptest.NewRequest("GET", path, nil).URL.Query())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, ev := range st.Query(q).Events {
			if err := enc.Encode(NewEventRecord(ev)); err != nil {
				t.Fatal(err)
			}
		}
		if raw != buf.String() {
			t.Fatalf("%s: streamed NDJSON differs from materialized:\n%q\n---\n%q", path, raw, buf.String())
		}
	}
}

// TestParseProviderRefCasing covers the prefix-cutting fix: exactly one
// case-insensitive "AS" prefix is accepted, the old double-trim
// artifact "ASas3356" is rejected.
func TestParseProviderRefCasing(t *testing.T) {
	want := ProviderRef{Kind: ProviderAS, ASN: 3356}
	for _, s := range []string{"AS3356", "as3356", "As3356", "aS3356", "3356"} {
		got, err := core.ParseProviderRef(s)
		if err != nil || got != want {
			t.Errorf("ParseProviderRef(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"ASas3356", "asAS3356", "AsAs3356", "ASAS3356", "AS", "as", "ASx", "A3356", ""} {
		if got, err := core.ParseProviderRef(s); err == nil {
			t.Errorf("ParseProviderRef(%q) = %v, want error", s, got)
		}
	}
	// IXP notation is untouched.
	if got, err := core.ParseProviderRef("ixp:4"); err != nil || got != (ProviderRef{Kind: ProviderIXP, IXPID: 4}) {
		t.Errorf("ParseProviderRef(ixp:4) = %v, %v", got, err)
	}
}

// TestQuerySeqFacade exercises the root-level streaming query: same
// events as Query, in order, limit honoured.
func TestQuerySeqFacade(t *testing.T) {
	st := storeFixture(t)
	var got []*Event
	for ev := range st.QuerySeq(Query{Prefix: netip.MustParsePrefix("10.1.0.0/16"), Mode: PrefixCovered}) {
		got = append(got, ev)
	}
	want := st.Query(Query{Prefix: netip.MustParsePrefix("10.1.0.0/16"), Mode: PrefixCovered}).Events
	if len(got) != len(want) {
		t.Fatalf("QuerySeq yielded %d, Query returned %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d differs", i)
		}
	}
	n := 0
	for range st.QuerySeq(Query{Limit: 1}) {
		n++
	}
	if n != 1 {
		t.Fatalf("limit: yielded %d, want 1", n)
	}
}

// legitimacyOracle is the /legitimacy summary counted the way it was
// before the tally: each event annotated whole — the verdict rules and
// the valid-wins fold spelt out again here, strings and all — and the
// strings counted.
func legitimacyOracle(reg *RPKIRegistry, dict *dictionary.Dictionary, events []*Event) *LegitimacySummary {
	sum := newLegitimacySummary()
	for _, ev := range events {
		var states, docs, reasons []string
		invalid, undocumented, overLen := 0, 0, 0
		if reg != nil {
			for _, origin := range ev.Users {
				st := reg.Validate(ev.Prefix, origin)
				states = append(states, st.String())
				if st == rpki.Invalid {
					invalid++
					reasons = append(reasons, fmt.Sprintf("rpki-invalid at origin AS%d", origin))
				}
			}
		}
		if dict != nil {
			for _, c := range ev.Communities {
				doc := "undocumented"
				if e := dict.Lookup(c); e != nil {
					if d := strings.ToLower(e.Doc.String()); d != "none" {
						doc = d
					}
					capLen := e.MaxPrefixLen
					if !ev.Prefix.Addr().Is4() && capLen <= 32 {
						capLen = 0
					}
					if capLen > 0 && ev.Prefix.Bits() > capLen {
						overLen++
						reasons = append(reasons, fmt.Sprintf("prefix /%d exceeds documented max /%d for community %s",
							ev.Prefix.Bits(), capLen, c))
					}
				}
				if doc == "undocumented" {
					undocumented++
					reasons = append(reasons, fmt.Sprintf("undocumented community %s", c))
				}
				docs = append(docs, doc)
			}
		}
		verdict := VerdictLegitimate
		switch {
		case len(states) > 0 && invalid == len(states), len(docs) > 0 && undocumented == len(docs):
			verdict = VerdictIllegitimate
		case invalid > 0 || undocumented > 0 || overLen > 0:
			verdict = VerdictQuestionable
		}
		sum.Total++
		sum.Legitimacy[verdict]++
		if len(states) > 0 {
			folded := "not-found"
			for _, s := range states {
				if s == "valid" {
					folded = s
					break
				}
				if s == "invalid" {
					folded = s
				}
			}
			sum.RPKI[folded]++
		}
		for _, d := range docs {
			sum.CommunityDoc[d]++
		}
		for _, r := range reasons {
			sum.Reasons[r]++
		}
	}
	return sum
}

// legitimacyBranches is a world and n events that take every branch of
// the legitimacy rules: no users, no communities, mixed and all-invalid
// origins, no covering ROA, an undocumented community alone and beside
// a documented one, an over-length v4 prefix, a v6 prefix under a ≤ /32
// cap (exempt) and one over a /48 cap.
func legitimacyBranches(n int) (*RPKIRegistry, *dictionary.Dictionary, []*Event) {
	reg := &RPKIRegistry{}
	reg.Add(ROA{Prefix: netip.MustParsePrefix("10.1.0.0/16"), MaxLength: 32, ASN: 65001})
	reg.Add(ROA{Prefix: netip.MustParsePrefix("10.2.0.0/16"), MaxLength: 16, ASN: 65002})
	reg.Add(ROA{Prefix: netip.MustParsePrefix("2001:db8::/32"), MaxLength: 128, ASN: 65001})
	dict := dictionary.New()
	dict.AddPrivate(MakeCommunity(3356, 9999), 3356, 32)
	dict.AddPrivate(MakeCommunity(174, 666), 174, 24)
	dict.AddPrivate(MakeCommunity(2914, 666), 2914, 48)
	documented, capped24, capped48, unknown := MakeCommunity(3356, 9999), MakeCommunity(174, 666), MakeCommunity(2914, 666), MakeCommunity(9, 9)
	templates := []struct {
		prefix string
		users  []ASN
		comms  []Community
	}{
		{"10.1.2.3/32", nil, []Community{documented}},                            // no users
		{"10.1.2.4/32", []ASN{65001}, nil},                                       // no communities
		{"10.1.2.5/32", []ASN{65001, 65002}, []Community{documented}},            // mixed origins
		{"10.2.0.9/32", []ASN{65002, 65003}, []Community{documented}},            // all origins invalid
		{"192.0.2.1/32", []ASN{65009}, []Community{documented}},                  // no covering ROA
		{"10.1.2.6/32", []ASN{65001}, []Community{unknown}},                      // undocumented alone
		{"10.1.2.7/32", []ASN{65001}, []Community{unknown, documented}},          // undocumented beside documented
		{"10.1.2.8/32", []ASN{65001}, []Community{capped24}},                     // over-length v4
		{"10.1.2.0/24", []ASN{65001}, []Community{capped24}},                     // at the cap
		{"2001:db8::1/128", []ASN{65001}, []Community{documented}},               // v6 under a /32 cap
		{"2001:db8::2/128", []ASN{65001, 65002}, []Community{unknown, capped48}}, // v6 over a /48 cap
	}
	base := time.Date(2015, 3, 1, 12, 0, 0, 0, time.UTC)
	events := make([]*Event, n)
	for i := range events {
		tpl := templates[i%len(templates)]
		start := base.Add(time.Duration(i) * time.Minute)
		events[i] = &Event{
			Prefix:      netip.MustParsePrefix(tpl.prefix),
			Start:       start,
			End:         start.Add(time.Hour),
			Providers:   []ProviderRef{{Kind: ProviderAS, ASN: 3356}},
			Users:       tpl.users,
			Communities: tpl.comms,
			Platforms:   []Platform{PlatformRIS},
			Peers:       []netip.Addr{netip.MustParseAddr("192.0.2.1")},
			Detections:  2,
		}
	}
	return reg, dict, events
}

// TestLegitimacyTallyMatchesAnnotate holds a store's and a three-shard
// federation's /legitimacy summary to the oracle's, byte for byte with
// elapsed_us masked: over a replayed fixture, and over hand-built events
// that take every branch in each of the four worlds a registry and a
// dictionary, either of them nil, make.
func TestLegitimacyTallyMatchesAnnotate(t *testing.T) {
	ctx := context.Background()
	masked := func(s *LegitimacySummary) []byte {
		c := *s
		c.ElapsedUS = 0
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	compare := func(t *testing.T, want *LegitimacySummary, q Query, backends map[string]Backend) {
		t.Helper()
		for name, be := range backends {
			got, err := be.LegitimacySummary(ctx, q)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !got.consistent() {
				t.Errorf("%s: inconsistent counts", name)
			}
			if g, w := masked(got), masked(want); !bytes.Equal(g, w) {
				t.Errorf("%s %+v:\n got %s\nwant %s", name, q, g, w)
			}
		}
	}

	t.Run("replayed", func(t *testing.T) {
		f := newFederationFixture(t)
		var shards []Backend
		for i, st := range f.shards["time-partition"] {
			shards = append(shards, NewStoreBackend(st, f.p).WithName(fmt.Sprint("shard-", i)))
		}
		backends := map[string]Backend{"store": NewStoreBackend(f.single, f.p), "federation": NewFederatedStore(shards...)}
		for _, q := range []Query{{}, {Prefix: netip.MustParsePrefix("24.0.0.0/8"), Mode: PrefixCovered}} {
			want := legitimacyOracle(f.p.RPKIRegistry(), f.p.Dict, f.single.Query(q).Events)
			if want.Total == 0 || len(want.Legitimacy) < 2 || len(want.Reasons) == 0 {
				t.Fatalf("fixture too thin for %+v: %s", q, masked(want))
			}
			compare(t, want, q, backends)
		}
	})

	reg, dict, events := legitimacyBranches(33)
	single := storeFixtureOf(t, events)
	var stores [3]*Store
	for i := range stores {
		var third []*Event
		for j := i; j < len(events); j += len(stores) {
			third = append(third, events[j])
		}
		stores[i] = storeFixtureOf(t, third)
	}
	for _, w := range []struct {
		name string
		reg  *RPKIRegistry
		dict *dictionary.Dictionary
	}{{"registry and dictionary", reg, dict}, {"nil registry", nil, dict}, {"nil dictionary", reg, nil}, {"neither", nil, nil}} {
		t.Run(w.name, func(t *testing.T) {
			ann := NewAnnotator(w.reg, w.dict)
			single.SetAnnotator(ann)
			shards := make([]Backend, len(stores))
			for i, st := range stores {
				st.SetAnnotator(ann)
				shards[i] = NewStoreBackend(st, nil)
			}
			compare(t, legitimacyOracle(w.reg, w.dict, events), Query{},
				map[string]Backend{"store": NewStoreBackend(single, nil), "federation": NewFederatedStore(shards...)})
		})
	}
}

// storeFixtureOf opens a store holding events.
func storeFixtureOf(t testing.TB, events []*Event) *Store {
	t.Helper()
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.Append(events...); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestLegitimacySummaryAllocsDoNotGrow: a store's summary allocates
// per distinct reason rendered, not per event — its bound is the same
// at N and 4N events.
func TestLegitimacySummaryAllocsDoNotGrow(t *testing.T) {
	const (
		// The store's read walk (6); the summary and its four maps (5);
		// Tally's closure, what it captures and its reason map (7); the
		// judgement's scratch slices growing to the largest event (8).
		fixedAllocs = 26
		// Rendering a reason: the sentence, the community's string and
		// its boxed argument, and its share of the maps' growth.
		allocsPerReason = 4
	)
	perReason := allocsPerReason
	if raceEnabled() {
		perReason += 3 // fmt's pooled printer and its buffer, which the race detector's pools drop at random
	}
	reg, dict, _ := legitimacyBranches(0)
	ann := NewAnnotator(reg, dict)
	for _, n := range []int{250, 1000} {
		_, _, events := legitimacyBranches(n)
		st := storeFixtureOf(t, events)
		st.SetAnnotator(ann)
		b := NewStoreBackend(st, nil)
		sum, err := b.LegitimacySummary(context.Background(), Query{})
		if err != nil || sum.Total != n {
			t.Fatalf("%d events: %+v, %v", n, sum, err)
		}
		allocs := testing.AllocsPerRun(5, func() { b.LegitimacySummary(context.Background(), Query{}) })
		if bound := fixedAllocs + perReason*len(sum.Reasons); allocs > float64(bound) {
			t.Errorf("%d events, %d distinct reasons: %.0f allocations per summary, want at most %d", n, len(sum.Reasons), allocs, bound)
		}
		t.Logf("%d events, %d distinct reasons: %.0f allocations", n, len(sum.Reasons), allocs)
	}
}
