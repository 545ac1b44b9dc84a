package bgpblackholing

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"reflect"
	"regexp"
	"testing"
	"time"

	"bgpblackholing/internal/core"
	"bgpblackholing/internal/enrich"
	"bgpblackholing/internal/store"
)

// This file holds the record line's hand-written code to the library
// code it replaced: appendEventLine to json.Marshal over the struct
// projection, scanLineKey to json.Unmarshal into recordLineKey, and the
// /events envelope written around the lines to json.Encoder over the
// decoded records.

// lineFixtureEvents is every event of SmallOptions seed 42, days
// 800–810, with the pipeline that annotates them.
func lineFixtureEvents(t testing.TB) (*Pipeline, []*Event) {
	t.Helper()
	p, err := NewPipeline(SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	res := replay(t, p, 800, 810)
	if len(res.Events) < 100 {
		t.Fatalf("fixture window produced only %d events", len(res.Events))
	}
	return p, res.Events
}

// keyOf is the merge key a wire record spells: the oracle for the one
// appendEventLine returns with the line.
func keyOf(rec *EventRecord) RecordKey {
	return RecordKey{End: rec.End.UnixNano(), Seq: rec.Seq, Start: rec.Start.UnixNano(), Prefix: rec.Prefix}
}

// sameAsMarshal checks one event's line against the struct projection
// handed to the library: the same bytes and merge key, or the same error.
func sameAsMarshal(t *testing.T, ev *Event, ann Annotation) {
	t.Helper()
	rec := NewEventRecordEnriched(ev, ann)
	want, wantErr := json.Marshal(rec)
	got, key, gotErr := appendEventLine([]byte("kept:"), ev, ann)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("appendEventLine error %v, json.Marshal error %v\nevent %+v", gotErr, wantErr, ev)
	}
	if string(got) != "kept:"+string(want) {
		t.Fatalf("appendEventLine diverges from json.Marshal:\n got %s\nwant kept:%s", got, want)
	}
	if key != keyOf(&rec) {
		t.Fatalf("appendEventLine key %+v, the record's %+v", key, keyOf(&rec))
	}
}

// TestRecordLineMatchesJSON holds appendEventLine to json.Marshal of
// NewEventRecordEnriched byte for byte: over real events plain and
// enriched, over a seeded set of events and annotations built to hit
// every list size, order, escape, float format, omitempty edge and
// refused value, and — by reflection — over the struct shapes it has
// hard-coded.
func TestRecordLineMatchesJSON(t *testing.T) {
	t.Run("shape", func(t *testing.T) {
		// The encoder spells these fields out. A field added, removed,
		// reordered or re-tagged must be taught to it (and to this list).
		for _, c := range []struct {
			typ  any
			want string
		}{
			{EventRecord{}, `Prefix string "prefix"; Start time.Time "start"; End time.Time "end"; ` +
				`DurationSeconds float64 "duration_seconds"; StartUnknown bool "start_unknown,omitempty"; ` +
				`Providers []string "providers,omitempty"; Users []uint32 "users,omitempty"; ` +
				`Communities []string "communities,omitempty"; Platforms []string "platforms,omitempty"; ` +
				`Peers int "peers"; Detections int "detections"; DirectFeed bool "direct_feed,omitempty"; ` +
				`SawNoExport bool "saw_no_export,omitempty"; Seq uint64 "seq,omitempty"; ` +
				`RPKI []enrich.OriginValidity "rpki,omitempty"; CommunityDoc []enrich.CommunityDoc "community_doc,omitempty"; ` +
				`Legitimacy string "legitimacy,omitempty"; LegitimacyReasons []string "legitimacy_reasons,omitempty"; `},
			{OriginValidity{}, `Origin bgp.ASN "origin"; State string "state"; `},
			{CommunityDoc{}, `Community string "community"; Doc string "doc"; ` +
				`MaxPrefixLen int "max_prefix_len,omitempty"; WithinMaxLen bool "within_max_len"; `},
		} {
			typ, got := reflect.TypeOf(c.typ), ""
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				got += fmt.Sprintf("%s %s %q; ", f.Name, f.Type, f.Tag.Get("json"))
			}
			if got != c.want {
				t.Errorf("%s changed shape; teach appendEventLine the new one:\n got %s\nwant %s", typ, got, c.want)
			}
		}
	})

	t.Run("events", func(t *testing.T) {
		p, events := lineFixtureEvents(t)
		ann := p.Annotator()
		for _, ev := range events {
			sameAsMarshal(t, ev, Annotation{})
			sameAsMarshal(t, ev, ann.Annotate(ev))
		}
	})

	t.Run("adversarial", func(t *testing.T) {
		events, anns := adversarialEvents(42, 4000)
		for i, ev := range events {
			sameAsMarshal(t, ev, anns[i])
		}
	})
}

// TestAlertRecordMatchesJSON holds EncodeAlertRecord to json.Marshal of
// the AlertRecord the facade used to build for an alert, byte for byte:
// over the record-line corpus, plain and enriched, under a plain rule
// name and one that needs escaping.
func TestAlertRecordMatchesJSON(t *testing.T) {
	check := func(a *Alert) {
		t.Helper()
		rec := AlertRecord{ID: a.ID, Rule: a.Rule, Event: NewEventRecord(a.Event)}
		if a.Ann != nil {
			rec.Event = NewEventRecordEnriched(a.Event, *a.Ann)
		}
		want, wantErr := json.Marshal(rec)
		got, gotErr := EncodeAlertRecord(a)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("EncodeAlertRecord error %v, json.Marshal error %v\nevent %+v", gotErr, wantErr, a.Event)
		}
		if string(got) != string(want) {
			t.Fatalf("EncodeAlertRecord diverges from json.Marshal:\n got %s\nwant %s", got, want)
		}
	}
	rules := []string{"ddos", `<"rule">\&` + " \xff\x01"}
	p, events := lineFixtureEvents(t)
	ann := p.Annotator()
	for i, ev := range events {
		check(&Alert{ID: uint64(i + 1), Rule: rules[i%2], Event: ev})
		a := ann.Annotate(ev)
		check(&Alert{ID: uint64(i + 1), Rule: rules[(i+1)%2], Event: ev, Ann: &a})
	}
	adversarial, anns := adversarialEvents(42, 4000)
	for i, ev := range adversarial {
		a := &Alert{ID: math.MaxUint64 - uint64(i), Rule: rules[i%2], Event: ev, Ann: &anns[i]}
		if i%3 == 0 {
			a.Ann = nil
		}
		check(a)
	}
}

// TestEventLineAndEncodeAllocations are the deterministic walls under
// what the benchmark shows: a plain line written into a reused buffer
// costs one allocation, the merge key's prefix string, and an event
// encoded into a reused buffer costs none — whatever the sizes of the
// sets, since neither sorts, hashes or collects them.
func TestEventLineAndEncodeAllocations(t *testing.T) {
	_, events := lineFixtureEvents(t)
	var buf []byte
	for _, ev := range events { // grow the buffer to the largest line first
		buf, _, _ = appendEventLine(buf[:0], ev, Annotation{})
		buf = store.EncodeEvent(buf[:0], ev)
	}
	for _, ev := range events {
		if n := testing.AllocsPerRun(10, func() { buf, _, _ = appendEventLine(buf[:0], ev, Annotation{}) }); n > 1 {
			t.Fatalf("a plain line for %s costs %.0f allocations, want at most 1", ev.Prefix, n)
		}
		if n := testing.AllocsPerRun(10, func() { buf = store.EncodeEvent(buf[:0], ev) }); n != 0 {
			t.Fatalf("encoding %s costs %.0f allocations, want 0", ev.Prefix, n)
		}
	}
}

// adversarialAtoms are what adversarial strings are made of: every
// escape class and every way of being invalid UTF-8.
var adversarialAtoms = []string{"", "AS3356", `"`, `\`, "<", ">", "&", "/", "\x00", "\x1f", "\b", "\f", "\n", "\r", "\t", "\x7f",
	"\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80", "é", "\u2028", "\u2029", "\u2027", "\ufffd", "𝄞", "</script>"}

// adversarialTimes run from representable to refused, in several zones.
var adversarialTimes = []time.Time{{}, time.Unix(0, 0).UTC(), time.Date(2015, 3, 1, 12, 0, 0, 0, time.UTC),
	time.Date(2016, 1, 2, 3, 4, 5, 678, time.FixedZone("", 3*3600+1800)),
	time.Date(2016, 1, 2, 3, 4, 5, 120000000, time.FixedZone("w", -7*3600)),
	time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC), time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
	time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2016, 1, 1, 0, 0, 0, 0, time.FixedZone("far", 24*3600))}

// adversarialEvents draws n events, and an annotation for each, built to
// hit every list size from empty to past the writer's on-stack scratch,
// members whose numeric and string orders disagree, times json.Marshal
// refuses, durations zero, negative, below a microsecond and at the
// int64 limit (an Event cannot spell more; 1e21 s is out of its reach),
// and annotation strings of every escape class.
func adversarialEvents(seed int64, n int) ([]*Event, []Annotation) {
	r := rand.New(rand.NewSource(seed))
	str := func() string {
		s := ""
		for n := r.Intn(4); n >= 0; n-- {
			s += adversarialAtoms[r.Intn(len(adversarialAtoms))]
		}
		return s
	}
	size := func() int { return []int{0, 0, 1, 2, 3, 9, 40}[r.Intn(7)] }
	set := func(n, span int) []uint32 { // n draws from a span narrow enough to collide or as wide as the type
		out := make([]uint32, n)
		for i := range out {
			if out[i] = uint32(r.Intn(span)); r.Intn(8) == 0 {
				out[i] = r.Uint32()
			}
		}
		return out
	}
	prefixes := []netip.Prefix{{}, netip.MustParsePrefix("10.1.2.3/32"), netip.MustParsePrefix("0.0.0.0/0"),
		netip.MustParsePrefix("2001:db8::/48"), netip.MustParsePrefix("::ffff:10.0.0.1/128"), netip.PrefixFrom(netip.MustParseAddr("10.0.0.1"), 99)}
	spans := []time.Duration{0, 1, 999, time.Microsecond, -1, -100, 3 * time.Hour, math.MaxInt64, math.MinInt64}
	events, anns := make([]*Event, n), make([]Annotation, n)
	for i := range events {
		ev := &Event{
			Prefix:       prefixes[r.Intn(len(prefixes))],
			Start:        adversarialTimes[r.Intn(len(adversarialTimes))],
			StartUnknown: r.Intn(2) == 0,
			Peers:        make([]netip.Addr, r.Intn(3)),
			Detections:   r.Intn(1<<20) - 1,
			DirectFeed:   r.Intn(2) == 0,
			SawNoExport:  r.Intn(2) == 0,
			Seq:          uint64(r.Intn(3)) * math.MaxUint64 / 2,
		}
		if i%8 != 0 { // most events carry a representable time, so the rest of the line is compared too
			ev.Start = adversarialTimes[1+r.Intn(5)]
		}
		if ev.End = ev.Start.Add(spans[r.Intn(len(spans))]); r.Intn(4) == 0 {
			ev.End = adversarialTimes[r.Intn(len(adversarialTimes))]
		}
		for _, v := range set(size(), 1200) {
			pr := ProviderRef{Kind: ProviderAS, ASN: ASN(v)}
			if v%3 == 0 {
				pr = ProviderRef{Kind: ProviderIXP, IXPID: int(int32(v)) - 5}
			}
			ev.Providers = core.SetOf(core.ProviderRefCompare, append(ev.Providers, pr)...)
		}
		for _, v := range set(size(), 1200) {
			ev.Users = core.SetOf(cmp.Compare[ASN], append(ev.Users, ASN(v))...)
		}
		for _, v := range set(size(), 1<<17) {
			ev.Communities = core.SetOf(cmp.Compare[Community], append(ev.Communities, Community(v))...)
		}
		for _, v := range set(min(size(), 6), 6) {
			ev.Platforms = core.SetOf(cmp.Compare[Platform], append(ev.Platforms, Platform(int32(v))-1)...)
		}
		events[i] = ev
		if r.Intn(3) == 0 {
			continue // a plain line
		}
		ann := Annotation{Legitimacy: str()}
		for n := r.Intn(3); n > 0; n-- {
			ann.RPKI = append(ann.RPKI, OriginValidity{Origin: ASN(r.Uint32()), State: str()})
			ann.Communities = append(ann.Communities, CommunityDoc{Community: str(), Doc: str(),
				MaxPrefixLen: r.Intn(3) - 1, WithinMaxLen: r.Intn(2) == 0})
			ann.Reasons = append(ann.Reasons, str())
		}
		if r.Intn(4) == 0 {
			ann.RPKI, ann.Communities, ann.Reasons = []enrich.OriginValidity{}, []enrich.CommunityDoc{}, []string{}
		}
		anns[i] = ann
	}
	return events, anns
}

// adversarialRecords draws n records built to hit every escape, float
// format, omitempty edge and value json.Marshal refuses.
func adversarialRecords(seed int64, n int) []EventRecord {
	r := rand.New(rand.NewSource(seed))
	atoms := adversarialAtoms
	str := func() string {
		s := ""
		for n := r.Intn(4); n >= 0; n-- {
			s += atoms[r.Intn(len(atoms))]
		}
		return s
	}
	strs := func() []string {
		switch n := r.Intn(4); n {
		case 0:
			return nil
		case 1:
			return []string{}
		default:
			out := make([]string, n-1)
			for i := range out {
				out[i] = str()
			}
			return out
		}
	}
	durations := []float64{0, math.Copysign(0, -1), 1e-7, 9.99e-7, 1e-6, 1e-9, 1.5e-10, 1, 10800, 0.1, 1e20, 1e21, 1.5e300,
		-1, -1e-7, -1e21, math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
	times := adversarialTimes
	records := make([]EventRecord, n)
	for i := range records {
		rec := EventRecord{
			Prefix:            str(),
			Start:             times[r.Intn(len(times))],
			End:               times[r.Intn(len(times))],
			DurationSeconds:   durations[r.Intn(len(durations))],
			StartUnknown:      r.Intn(2) == 0,
			Providers:         strs(),
			Communities:       strs(),
			Platforms:         strs(),
			Peers:             r.Intn(3) - 1,
			Detections:        r.Intn(1 << 20),
			DirectFeed:        r.Intn(2) == 0,
			SawNoExport:       r.Intn(2) == 0,
			Seq:               uint64(r.Intn(3)) * math.MaxUint64 / 2,
			Legitimacy:        str(),
			LegitimacyReasons: strs(),
		}
		if i%8 != 0 { // most records carry a representable time, so the rest of the line is compared too
			rec.Start, rec.End = times[1+r.Intn(5)], times[1+r.Intn(5)]
		}
		switch r.Intn(3) {
		case 1:
			rec.Users = []uint32{}
		case 2:
			rec.Users = []uint32{0, uint32(r.Int63()), math.MaxUint32}
		}
		for n := r.Intn(3); n > 0; n-- {
			rec.RPKI = append(rec.RPKI, OriginValidity{Origin: ASN(r.Uint32()), State: str()})
			rec.CommunityDoc = append(rec.CommunityDoc, CommunityDoc{Community: str(), Doc: str(),
				MaxPrefixLen: r.Intn(3) - 1, WithinMaxLen: r.Intn(2) == 0})
		}
		if r.Intn(4) == 0 {
			rec.RPKI, rec.CommunityDoc = []enrich.OriginValidity{}, []enrich.CommunityDoc{}
		}
		records[i] = rec
	}
	return records
}

// TestEnrichedLinesProjectOnce began as the regression test for a double
// projection (an enriched stream built NewEventRecord(ev), threw it away
// and projected again); the line is now written from the event with no
// projection at all. A streamed enriched line may allocate what one
// annotation does, plus the key's prefix and the iterator's and the
// buffer's small change — nothing per member of any set.
func TestEnrichedLinesProjectOnce(t *testing.T) {
	p, events := lineFixtureEvents(t)
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(events...); err != nil {
		t.Fatal(err)
	}
	ann := p.Annotator()
	floor := testing.AllocsPerRun(1, func() {
		for _, ev := range events {
			ann.Annotate(ev)
		}
	})
	be := NewStoreBackend(st, p)
	lines := 0
	streamed := testing.AllocsPerRun(1, func() {
		rs, err := be.RecordLines(context.Background(), Query{Enrich: true})
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
		for lines = 0; ; lines++ {
			if _, err := rs.Next(); err != nil {
				break
			}
		}
	})
	if lines != len(events) {
		t.Fatalf("streamed %d lines, want %d", lines, len(events))
	}
	// One allocation per line is the key's prefix; the rest covers the
	// iterator and buffer growth. A projection costs at least five.
	if ceiling := floor + float64(len(events)) + 64; streamed > ceiling {
		t.Errorf("enriched stream: %.0f allocations for %d lines; one annotation each is %.0f",
			streamed, lines, floor)
	}
}

// recordLineKey is the reflective decode RemoteBackend.RecordLines used
// before scanLineKey, kept as its oracle.
type recordLineKey struct {
	Prefix string    `json:"prefix"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Seq    uint64    `json:"seq"`
}

func oracleLineKey(line []byte) (RecordKey, error) {
	var key recordLineKey
	if err := json.Unmarshal(line, &key); err != nil {
		return RecordKey{}, err
	}
	return RecordKey{End: key.End.UnixNano(), Seq: key.Seq, Start: key.Start.UnixNano(), Prefix: key.Prefix}, nil
}

// lineKeySeeds are lines of every kind scanLineKey must read or refuse
// exactly as encoding/json does.
var lineKeySeeds = []string{
	// real shapes: plain, enriched, IPv6, seq-less legacy
	`{"prefix":"10.1.2.3/32","start":"2015-03-01T12:00:00Z","end":"2015-03-01T15:00:00Z","duration_seconds":10800,"providers":["AS3356"],"users":[65001],"communities":["3356:9999"],"platforms":["RIS"],"peers":1,"detections":2,"seq":17}`,
	`{"prefix":"10.1.2.3/32","start":"2015-03-01T12:00:00.5Z","end":"2015-03-01T15:00:00.123456789+02:00","duration_seconds":1e-7,"start_unknown":true,"peers":1,"detections":2,"seq":18446744073709551615,"rpki":[{"origin":65001,"state":"valid"}],"community_doc":[{"community":"3356:9999","doc":"irr","max_prefix_len":32,"within_max_len":true}],"legitimacy":"legitimate","legitimacy_reasons":["a","b"]}`,
	`{"prefix":"2001:db8::/48","start":"2016-01-01T00:00:00Z","end":"2016-01-02T00:00:00Z","duration_seconds":86400,"peers":0,"detections":1,"seq":3}`,
	`{"prefix":"192.0.2.0/24","start":"2014-12-01T00:00:00Z","end":"2014-12-01T00:05:00Z","duration_seconds":300,"peers":2,"detections":2}`,
	// key matching: case folding (ASCII and the long s), escapes, duplicates
	`{"PREFIX":"a","Start":"2015-03-01T12:00:00Z","eNd":"2015-03-01T12:00:00Z","SEQ":4}`,
	`{"ſeq":5,"ſtart":"2015-03-01T12:00:00Z","prefiX":"x"}`,
	`{"\u0073eq":6,"pre\u0066ix":"a\u0062c","\u0053TART":"2015-03-01T12:00:00Z","s\u0065q\u0000":1,"\u212aey":1}`,
	`{"s\u0065q":"6"}`, `{"\u017feq":7}`, "{\"se\xffq\":8,\"seq\":9}",
	`{"seq":1,"seq":2,"prefix":"a","prefix":"b","start":"2015-03-01T12:00:00Z","start":"2016-03-01T12:00:00Z"}`,
	`{"seq":7,"seq":null,"prefix":"kept","prefix":null,"end":"2015-03-01T12:00:00Z","end":null}`,
	`{"seq":null,"prefix":null,"start":null,"end":null}`,
	// values in strings and nested containers that only look like keys
	`{"note":"\"seq\":99,\"prefix\":\"no\"","nested":{"seq":98,"prefix":"no","deep":[{"seq":97}]},"seq":1}`,
	`{"prefix":"esc\"aped\\ é 𝄞 \ud800 </ ","seq":2}`,
	"{\"prefix\":\"caf\xc3\xa9 \xff\xfe bad utf8\",\"seq\":3}",
	// mistyped key fields
	`{"seq":"5"}`, `{"seq":-1}`, `{"seq":1.0}`, `{"seq":1e2}`, `{"seq":18446744073709551616}`, `{"seq":true}`, `{"seq":[1]}`, `{"seq":{}}`,
	`{"prefix":5}`, `{"prefix":true}`, `{"prefix":["a"]}`, `{"prefix":{"a":1}}`,
	`{"start":5}`, `{"start":"yesterday"}`, `{"start":"2015-03-01T12:00:00"}`, `{"start":"2015-03-01 12:00:00Z"}`, `{"start":"2015-03-01T12:00:00Z "}`,
	`{"start":"2015-03-01T12:00:00Z"}`, `{"start":["2015-03-01T12:00:00Z"]}`, `{"start":{}}`, `{"end":false}`, `{"end":"2015-02-30T12:00:00Z"}`,
	`{"start":"0000-01-01T00:00:00Z","end":"9999-12-31T23:59:59.999999999Z"}`, `{"start":"10000-01-01T00:00:00Z"}`, `{"start":"2015-03-01T12:00:00+24:00"}`,
	// not objects
	`null`, ` null `, `true`, `false`, `0`, `-0`, `1.5e+3`, `"seq"`, `[]`, `[{"seq":1}]`, `{}`, ` { } `, "\t{\"seq\" : 1 ,\r\n\"prefix\" : \"a\" }\n",
	// malformed
	``, ` `, `{`, `}`, `{"seq"}`, `{"seq":}`, `{"seq":1,}`, `{,"seq":1}`, `{"seq":1 "prefix":"a"}`, `{"seq":1}}`, `{"seq":1}{`, `{"seq":1} x`, `{seq:1}`, `{'seq':1}`,
	`{"seq":01}`, `{"seq":1.}`, `{"seq":.5}`, `{"seq":1e}`, `{"seq":+1}`, `{"seq":-}`, `{"a":tru}`, `{"a":nul}`, `{"a":nulll}`, `{"a":truefalse}`, `nullnull`,
	`{"a":"unterminated}`, `{"a":"bad \x escape"}`, `{"a":"bad \u12g4"}`, `{"a":"short \u12"}`, "{\"a\":\"raw\ncontrol\"}", "{\"a\":\"tab\tinside\"}", `{"a":"trailing backslash\`,
	`{"a":[1,2,]}`, `{"a":[1 2]}`, `{"a":[}`, `{"a":{]}`, `[1,2`, `{"a":{"b":{"c":[[[]]]}}}`, `{"a":[[[[`,
}

// FuzzRecordLineKey is the differential test for scanLineKey against
// the reflective decode it replaced: the two must fail on the same
// inputs and, when they succeed, agree on all four key fields.
func FuzzRecordLineKey(f *testing.F) {
	for _, s := range lineKeySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		want, wantErr := oracleLineKey(line)
		got, gotErr := scanLineKey(line)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("scanLineKey error %v, json.Unmarshal error %v\nline %q", gotErr, wantErr, line)
		}
		if got != want {
			t.Fatalf("scanLineKey %+v, json.Unmarshal %+v\nline %q", got, want, line)
		}
	})
}

// FuzzIndentJSON is the differential test for appendIndented against
// json.Indent(…, "", "  "): the two must refuse the same inputs and,
// when they accept, write the same bytes.
func FuzzIndentJSON(f *testing.F) {
	for _, s := range lineKeySeeds {
		f.Add([]byte(s))
	}
	// Two real /events envelopes, compact as json.Indent was given them:
	// a point answer and an enriched covered one.
	p, err := NewPipeline(SmallOptions())
	if err != nil {
		f.Fatal(err)
	}
	h := NewStoreHandler(storeFixture(f), p)
	for _, path := range []string{"/events?prefix=10.1.2.3", "/events?mode=covered&enrich=1&prefix=10.0.0.0/8"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		var compact bytes.Buffer
		if err := json.Compact(&compact, w.Body.Bytes()); err != nil || w.Code != http.StatusOK {
			f.Fatalf("%s: status %d: %v", path, w.Code, err)
		}
		f.Add(compact.Bytes())
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		var want bytes.Buffer
		wantErr := json.Indent(&want, src, "", "  ")
		got, gotErr := appendIndented(nil, src)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("appendIndented error %v, json.Indent error %v\nsrc %q", gotErr, wantErr, src)
		}
		if wantErr == nil && !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendIndented wrote\n%s\njson.Indent\n%s\nsrc %q", got, want.Bytes(), src)
		}
	})
}

// TestScanLineKeyNesting pins the one limit no short seed reaches:
// encoding/json refuses nesting deeper than 10000, and so must the scan
// and the indenter.
func TestScanLineKeyNesting(t *testing.T) {
	var laid []byte
	for _, depth := range []int{9999, 10000, 10001} {
		line := []byte(`{"seq":1,"a":`)
		for i := 1; i < depth; i++ { // the line's own object is level one
			line = append(line, '[')
		}
		for i := 1; i < depth; i++ {
			line = append(line, ']')
		}
		line = append(line, '}')
		_, wantErr := oracleLineKey(line)
		if _, gotErr := scanLineKey(line); (gotErr == nil) != (wantErr == nil) {
			t.Errorf("depth %d: scanLineKey error %v, json.Unmarshal error %v", depth, gotErr, wantErr)
		}
		// json.Indent refuses what json.Valid does. Laid out, such a line
		// is ≈ 200 MB, so one buffer serves all three, and the bytes are
		// left to FuzzIndentJSON's shapes.
		var gotErr error
		if laid, gotErr = appendIndented(laid[:0], line); (gotErr == nil) != json.Valid(line) {
			t.Errorf("depth %d: appendIndented error %v, json.Valid %v", depth, gotErr, json.Valid(line))
		}
	}
}

// fixedBackend answers every events read with one prepared set; the
// rest of Backend is never asked.
type fixedBackend struct {
	Backend
	set *RecordSet
}

func (b fixedBackend) RecordLines(context.Context, Query) (*RecordStream, error) {
	return setStream(b.set), nil
}

// setStream is a counted stream over a set's lines, with its head.
func setStream(rs *RecordSet) *RecordStream {
	lines := rs.Records
	return &RecordStream{ShardsFailed: rs.ShardsFailed, total: rs.Total, scanned: rs.Scanned, next: func() (RecordLine, error) {
		if len(lines) == 0 {
			return RecordLine{}, io.EOF
		}
		rl := lines[0]
		lines = lines[1:]
		return rl, nil
	}}
}

var elapsedUS = regexp.MustCompile(`"elapsed_us": \d+`)

// TestEventsEnvelopeMatchesEncodingJSON is the envelope law: the JSON
// /events body, written around the backend's lines and indented, is byte
// for byte what the path it replaced wrote — json.Encoder with
// SetIndent over a map[string]any holding the []*EventRecord — once
// elapsed_us is normalised. That path is kept here as the reference, fed
// records projected straight from the events, never decoded from a line.
func TestEventsEnvelopeMatchesEncodingJSON(t *testing.T) {
	reference := func(records []*EventRecord, total, scanned int) string {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{
			"total":      total,
			"returned":   len(records),
			"scanned":    scanned,
			"elapsed_us": 0,
			"events":     records,
		}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	// check serves path from each handler and compares. Scanned is
	// shard-local (a federation sums it), so the reference takes the
	// body's own.
	check := func(handlers map[string]http.Handler, path string, records []*EventRecord, total int) {
		t.Helper()
		for name, h := range handlers {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
			var envelope struct {
				Scanned int `json:"scanned"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &envelope); err != nil {
				t.Fatalf("%s %s: status %d: %v", name, path, w.Code, err)
			}
			got := elapsedUS.ReplaceAllString(w.Body.String(), `"elapsed_us": 0`)
			if want := reference(records, total, envelope.Scanned); got != want {
				t.Errorf("%s %s: the envelope diverges from json.Encoder:\n got %s\nwant %s", name, path, got, want)
			}
		}
	}
	remoteOf := func(h http.Handler) Backend {
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		rb, err := NewRemoteBackend([]string{srv.URL}, RemoteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return rb
	}

	t.Run("events", func(t *testing.T) {
		f := newFederationFixture(t)
		_, router := f.startShardServers(t, "prefix-split")
		store := NewStoreHandler(f.single, f.p)
		handlers := map[string]http.Handler{
			"store":      store,
			"remote":     newHandler(remoteOf(store), HandlerOptions{}),
			"federation": router,
		}
		ann := f.p.Annotator()
		for _, combo := range f.queryCombos(t) { // an empty match, limit cuts and enriched records among them
			path := "/events?" + combo
			q, err := ParseQuery(httptest.NewRequest(http.MethodGet, path, nil).URL.Query())
			if err != nil {
				t.Fatal(err)
			}
			if q.Limit <= 0 {
				q.Limit = defaultJSONLimit
			}
			res := f.single.s.Query(q.filter())
			records := make([]*EventRecord, len(res.Events))
			for i, ev := range res.Events {
				rec := NewEventRecord(ev)
				if q.Enrich {
					rec = NewEventRecordEnriched(ev, ann.Annotate(ev))
				}
				records[i] = &rec
			}
			check(handlers, path, records, res.Total)
		}
	})

	t.Run("adversarial", func(t *testing.T) {
		// Lines only the library writes: strings that need escaping,
		// durations outside [1e-6, 1e21).
		strs := []string{`<script>&amp;</script>`, "é  𝄞", `"quoted\"`, "\x00\x1f\t\n\x7f", "\xff\xc3", "AS3356"}
		durs := []float64{1e-7, 1e21, 1.5e300, -1e-9, 9.99e-7, 0}
		base := time.Date(2016, 1, 2, 3, 4, 5, 678, time.FixedZone("", 3*3600+1800))
		var records []*EventRecord
		for i := range strs {
			str := func(k int) string { return strs[(i+k)%len(strs)] }
			records = append(records, &EventRecord{
				Prefix:            str(0),
				Start:             base,
				End:               base.Add(time.Duration(i) * time.Hour),
				DurationSeconds:   durs[i],
				Providers:         []string{str(1), str(2)},
				Users:             []uint32{0, math.MaxUint32},
				Communities:       []string{str(3)},
				Platforms:         []string{str(4)},
				Seq:               uint64(i + 1),
				RPKI:              []OriginValidity{{Origin: 65001, State: str(5)}},
				CommunityDoc:      []CommunityDoc{{Community: str(1), Doc: str(2), MaxPrefixLen: i % 2}},
				Legitimacy:        str(3),
				LegitimacyReasons: []string{str(4), str(5)},
			})
		}
		fixed := func(records []*EventRecord) Backend {
			lines := make([]RecordLine, len(records))
			for i, rec := range records {
				line, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				lines[i] = RecordLine{Key: keyOf(rec), Line: line}
			}
			return fixedBackend{set: &RecordSet{Records: lines, Total: len(records), Scanned: len(records)}}
		}
		var thirds [3][]*EventRecord
		for i, rec := range records {
			thirds[i%3] = append(thirds[i%3], rec)
		}
		var shards []Backend
		for _, third := range thirds {
			shards = append(shards, remoteOf(newHandler(fixed(third), HandlerOptions{})))
		}
		all := newHandler(fixed(records), HandlerOptions{})
		check(map[string]http.Handler{
			"fixed":      all,
			"remote":     newHandler(remoteOf(all), HandlerOptions{}),
			"federation": newHandler(NewFederatedStore(shards...), HandlerOptions{}),
		}, "/events", records, len(records))
	})
}

// TestRecordSetCrossesTheHop is the inverse property of the set hop:
// what the handler writes for format=lines, RemoteBackend.Records reads
// back as the set it was — accounting, lines, and the keys the lines
// spell — over one hop and over two, whatever the records hold.
func TestRecordSetCrossesTheHop(t *testing.T) {
	var lines []RecordLine
	for _, rec := range adversarialRecords(7, 600) {
		line, err := json.Marshal(&rec)
		if err != nil {
			continue // what json.Marshal refuses is on no line
		}
		key, err := oracleLineKey(line)
		if err != nil {
			t.Fatalf("a line encoding/json does not read back: %v\n%s", err, line)
		}
		lines = append(lines, RecordLine{Key: key, Line: line})
	}
	if len(lines) < 300 {
		t.Fatalf("only %d of 600 adversarial records encode", len(lines))
	}
	remoteOf := func(be Backend) Backend {
		srv := httptest.NewServer(newHandler(be, HandlerOptions{}))
		t.Cleanup(srv.Close)
		rb, err := NewRemoteBackend([]string{srv.URL}, RemoteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return rb
	}
	for _, n := range []int{0, 1, len(lines)} {
		want := &RecordSet{Records: lines[:n], Total: n + 5, Scanned: n + 9}
		oneHop := remoteOf(fixedBackend{set: want})
		for hops, be := range map[string]Backend{"one hop": oneHop, "two hops": remoteOf(oneHop)} {
			got, err := collectRecords(context.Background(), be, Query{Limit: n})
			if err != nil {
				t.Fatalf("%d records, %s: %v", n, hops, err)
			}
			if got.Total != want.Total || got.Scanned != want.Scanned || len(got.Records) != n {
				t.Fatalf("%d records, %s: total %d scanned %d returned %d, want %d %d %d",
					n, hops, got.Total, got.Scanned, len(got.Records), want.Total, want.Scanned, n)
			}
			for i, rl := range got.Records {
				if !bytes.Equal(rl.Line, lines[i].Line) || rl.Key != lines[i].Key {
					t.Fatalf("%d records, %s: record %d is %+v\n%s\nwant %+v\n%s", n, hops, i, rl.Key, rl.Line, lines[i].Key, lines[i].Line)
				}
			}
		}
	}
}
