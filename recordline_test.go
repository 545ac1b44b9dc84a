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
	"strings"
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
	rec := newEventRecordEnriched(ev, ann)
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
// newEventRecordEnriched byte for byte: over real events plain and
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
			rec.Event = newEventRecordEnriched(a.Event, *a.Ann)
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
// encoded into a reused buffer costs none — for sets of up to 32
// members, which the line orders on a stack copy; neither hashes or
// collects them.
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
var lineKeySeeds = append([]string{
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
}, layoutEdgeLines()...)

// canonicalLine is a line as appendEventLine writes it, its start, end,
// seq and tail put in from the arguments.
func canonicalLine(start, end, seq, tail string) string {
	return `{"prefix":"10.1.2.3/32","start":"` + start + `","end":"` + end + `","duration_seconds":10800,"providers":["AS3356"],` +
		`"users":[65001],"communities":["3356:9999"],"platforms":["RIS"],"peers":1,"detections":2,"seq":` + seq + tail + "}"
}

// layoutEdgeLines are the edges of layoutKey's layout: stamps at the
// leap day, month lengths, the year range and the clock's, fractions of
// a second at their width limits, seq numbers
// at the width and leading-zero limits, and canonical lines spoilt by
// one member or byte.
func layoutEdgeLines() (lines []string) {
	const t = "2015-03-01T12:00:00Z"
	for _, stamp := range []string{"2016-02-29T00:00:00Z", "2015-02-29T00:00:00Z", "2100-02-29T00:00:00Z", "2000-02-29T00:00:00Z",
		"2015-04-31T00:00:00Z", "2015-04-30T00:00:00Z", "1969-12-31T23:59:59Z", "1970-01-01T00:00:00Z", "2200-12-31T23:59:59Z",
		"2201-01-01T00:00:00Z", "2015-03-01T23:59:59Z", "2015-03-01T24:00:00Z", "2015-03-01T12:60:00Z", "2015-03-01T12:00:60Z",
		"2015-13-01T00:00:00Z", "2015-00-01T00:00:00Z", "2015-03-00T00:00:00Z", "2015-03-01t12:00:00Z", "2015-03-01T12:00:00z", "2O15-03-01T12:00:00Z",
		"0000-01-01T00:00:00Z", "9999-12-31T23:59:59.999999999Z", "2015-03-01T12:00:00.5Z", "2015-03-01T12:00:00.50Z", "2015-03-01T12:00:00.000000001Z",
		"2015-03-01T12:00:00.123456789Z", "2015-03-01T12:00:00.1234567891Z", "2015-03-01T12:00:00.99999999999999999999Z", "2015-03-01T12:00:00.Z", "2015-03-01T12:00:00.5", "2015-03-01T12:00:00.5x"} {
		lines = append(lines, canonicalLine(stamp, t, "1", ""), canonicalLine(t, stamp, "1", ""))
	}
	for _, seq := range []string{"0", "01", "00", "1234567890123456789", "9999999999999999999", "12345678901234567890", "18446744073709551616", "-1", "1.0", "1e2"} {
		lines = append(lines, canonicalLine(t, t, seq, ""))
	}
	canonical := canonicalLine(t, t, "17", "")
	return append(lines,
		canonicalLine(t, t, "17", `,"Seq":5`), canonicalLine(t, t, "17", `,"PREFIX":"x"`), canonicalLine(t, t, "17", `,"seq":5`),
		canonical+" ", canonical+"x", canonical+"}", " "+canonical, canonical[:len(canonical)-1],
		strings.Replace(canonical, `"AS3356"`, `"AS\u0033356"`, 1), strings.Replace(canonical, `.3/32"`, `.3\/32"`, 1), strings.Replace(canonical, `:10800,`, `:-10800,`, 1),
		strings.Replace(canonical, `:10800,`, `:1.08e4,`, 1), strings.Replace(canonical, `:10800,`, `:010800,`, 1),
		strings.Replace(canonical, `"users":[65001]`, `"users":[]`, 1), strings.Replace(canonical, `"peers":1`, `"peers":"1"`, 1),
		canonicalLine(t, t, "17", `,"rpki":[{"origin":65001,"state":"valid"}],"community_doc":[{"community":"3356:666","doc":"irr",`+
			`"max_prefix_len":32,"within_max_len":true},{"community":"3356:9999","doc":"none","within_max_len":false}],`+
			`"legitimacy":"questionable","legitimacy_reasons":["a","b"]`),
		canonicalLine(t, t, "17", `,"community_doc":[{"community":"3356:666","doc":"irr","within_max_len":null}]`),
		canonicalLine(t, t, "17", `,"rpki":[{"origin":65001,"state":"valid"},]`))
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

// FuzzEventLine is the differential test for appendEventLine against
// json.Marshal of newEventRecordEnriched: an event and an annotation
// built from the fuzz arguments must be written byte for byte as the
// library writes the projection, or refused with its error, and every
// plain line must be read by layoutKey to keyOf's key. sets is a run of
// five-byte members, a kind byte and a big-endian value (see eventLineSet);
// the seeds put side by side the ASNs, IXP ids and community halves whose
// digits begin one another's, platforms known and not, and stamps and
// durations at the edges of the writer's arithmetic.
func FuzzEventLine(f *testing.F) {
	member := func(kind byte, v int64) []byte {
		return []byte{kind, byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
	}
	var sets []byte
	for _, asn := range []int64{1, 10, 100, 19, 2} {
		sets = append(append(append(sets, member(0, asn)...), member(2, asn)...), member(2, asn*1000)...)
	}
	for _, id := range []int64{0, 5, 10, -1} {
		sets = append(sets, member(1, id)...)
	}
	for _, c := range []int64{1<<16 | 7, 14<<16 | 2, 14142<<16 | 9, 65535<<16 | 666, 14<<16 | 10, 1<<16 | 65535} {
		sets = append(sets, member(3, c)...)
	}
	for _, pl := range []int64{0, 1, 2, 3, -1, 4, 7} {
		sets = append(sets, member(4, pl)...)
	}
	stamps := []int64{-62135596800, -1, 0, 1456704000, 1456790399, 253402300799} // 0001-01-01, 1969-12-31T23:59:59, 1970, 2016-02-29 and its last second, 9999-12-31T23:59:59
	spans := []int64{0, int64(time.Hour), 1500 * int64(time.Millisecond), -int64(time.Second), -1}
	for i, start := range stamps {
		for j, span := range spans {
			f.Add(start, int64((i+j)%3*250000000), span, uint64(0x0a010200_18), uint64(i*j), byte(i+j), sets[:(i+j)%4*len(sets)/3], "")
		}
	}
	f.Add(int64(1456704000), int64(1), int64(999), uint64(0x0a010203_40), uint64(17), byte(0xff), sets, `needs "escaping" <&>`)
	f.Fuzz(func(t *testing.T, start, nanos, span int64, prefix, seq uint64, flags byte, sets []byte, text string) {
		ev := &Event{
			Prefix:       netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(prefix >> 24), byte(prefix >> 16), byte(prefix >> 8), byte(prefix)}), int(prefix>>32%40)),
			Start:        time.Unix(start, nanos),
			StartUnknown: flags&1 != 0,
			Peers:        make([]netip.Addr, flags>>6),
			Detections:   int(int16(prefix >> 48)),
			DirectFeed:   flags&2 != 0,
			SawNoExport:  flags&4 != 0,
			Seq:          seq,
		}
		if flags&8 != 0 {
			ev.Start = ev.Start.In(time.FixedZone("", -5400))
		}
		ev.End = ev.Start.Add(time.Duration(span))
		eventLineSet(ev, sets)
		var ann Annotation
		if flags&16 != 0 {
			ann = Annotation{RPKI: []OriginValidity{{Origin: ASN(seq), State: text}}, Legitimacy: text, Reasons: []string{text},
				Communities: []CommunityDoc{{Community: text, Doc: text, MaxPrefixLen: int(flags >> 5), WithinMaxLen: flags&32 != 0}}}
		}
		sameAsMarshal(t, ev, ann)
		if line, key, err := appendEventLine(nil, ev, ann); err == nil && flags&16 == 0 {
			if got, ok := layoutKey(line); !ok || got != key {
				t.Fatalf("layoutKey %+v, read %v; the writer's key %+v\nline %s", got, ok, key, line)
			}
		}
	})
}

// eventLineSet fills ev's sets from b, five bytes a member: a kind byte
// (mod 5: an AS provider, an IXP provider, a user, a community, a
// platform) and a big-endian 32-bit value, signed for an IXP id and a
// platform. Each set is ordered and deduplicated as the engine keeps it.
func eventLineSet(ev *Event, b []byte) {
	for ; len(b) >= 5; b = b[5:] {
		v := uint32(b[1])<<24 | uint32(b[2])<<16 | uint32(b[3])<<8 | uint32(b[4])
		switch b[0] % 5 {
		case 0:
			ev.Providers = append(ev.Providers, ProviderRef{Kind: ProviderAS, ASN: ASN(v)})
		case 1:
			ev.Providers = append(ev.Providers, ProviderRef{Kind: ProviderIXP, IXPID: int(int32(v))})
		case 2:
			ev.Users = append(ev.Users, ASN(v))
		case 3:
			ev.Communities = append(ev.Communities, Community(v))
		case 4:
			ev.Platforms = append(ev.Platforms, Platform(int32(v)))
		}
	}
	ev.Providers = core.SetOf(core.ProviderRefCompare, ev.Providers...)
	ev.Users = core.SetOf(cmp.Compare[ASN], ev.Users...)
	ev.Communities = core.SetOf(cmp.Compare[Community], ev.Communities...)
	ev.Platforms = core.SetOf(cmp.Compare[Platform], ev.Platforms...)
}

// TestLayoutKeyReadsEveryWrittenLine holds the writer and the layout
// reader together: every line appendEventLine writes without enrichment
// — the fixture's events, and hand-built ones switching each optional
// member on and off — must be read by layoutKey itself, with the key
// json.Unmarshal reads and appendEventLine returned. A member the writer
// learns fails here rather than sending every line to the general scan.
// So must a live detector's, stamped to the nanosecond. An enriched line,
// or one with an escaped string, is the scan's, and still keyed as
// json.Unmarshal keys it.
func TestLayoutKeyReadsEveryWrittenLine(t *testing.T) {
	check := func(ev *Event, ann Annotation, layout bool) {
		t.Helper()
		line, key, err := appendEventLine(nil, ev, ann)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleLineKey(line)
		if err != nil || want != key {
			t.Fatalf("oracle key %+v, %v; appendEventLine's %+v\nline %s", want, err, key, line)
		}
		if got, ok := layoutKey(line); ok != layout || ok && got != want {
			t.Fatalf("layoutKey %+v, read %v, want %+v read %v\nline %s", got, ok, want, layout, line)
		}
		if got, err := scanLineKey(line); err != nil || got != want {
			t.Fatalf("scanLineKey %+v, %v; want %+v\nline %s", got, err, want, line)
		}
	}
	p, events := lineFixtureEvents(t)
	ann := p.Annotator()
	plain := func(a Annotation) bool {
		return len(a.RPKI) == 0 && len(a.Communities) == 0 && a.Legitimacy == "" && len(a.Reasons) == 0
	}
	for _, ev := range events {
		check(ev, Annotation{}, true)
		a := ann.Annotate(ev)
		check(ev, a, plain(a))
	}

	start := time.Date(2016, 2, 29, 23, 0, 0, 0, time.UTC)
	full := Annotation{
		RPKI: []OriginValidity{{Origin: 65001, State: "valid"}, {Origin: 65002, State: "not-found"}},
		Communities: []CommunityDoc{{Community: "3356:666", Doc: "irr", MaxPrefixLen: 32, WithinMaxLen: true},
			{Community: "3356:9999", Doc: "undocumented", WithinMaxLen: false}},
		Legitimacy: "questionable",
		Reasons:    []string{"rpki-invalid", "community-undocumented"},
	}
	anns := []Annotation{{}, full, {RPKI: full.RPKI}, {Communities: full.Communities[1:]}, {Legitimacy: "legitimate"}, {Reasons: full.Reasons[:1]}}
	for mask := 0; mask < 1<<9; mask++ {
		on := func(bit int) bool { return mask&(1<<bit) != 0 }
		ev := &Event{
			Prefix: netip.MustParsePrefix("10.1.2.0/24"), Start: start, End: start.Add(90 * time.Minute),
			StartUnknown: on(0), DirectFeed: on(1), SawNoExport: on(2),
			Peers: make([]netip.Addr, 2), Detections: 3, Seq: 17,
		}
		if !on(3) {
			ev.Providers = []ProviderRef{{Kind: ProviderAS, ASN: 3356}, {Kind: ProviderIXP, IXPID: 0}}
		}
		if !on(4) {
			ev.Users = []ASN{9, 65001}
		}
		if !on(5) {
			ev.Communities = []Community{MakeCommunity(3356, 666)}
		}
		if !on(6) {
			ev.Platforms = []Platform{PlatformRIS, PlatformCDN}
		}
		if on(7) {
			ev.Seq = 0
		}
		if on(8) {
			ev.Prefix = netip.MustParsePrefix("2001:db8::/48")
		}
		for _, a := range anns {
			check(ev, a, plain(a))
		}
	}

	ev := &Event{Prefix: netip.MustParsePrefix("10.1.2.0/24"), Start: start, End: start.Add(time.Hour), Seq: 1}
	check(ev, Annotation{Legitimacy: `needs "escaping"`}, false)
	check(ev, Annotation{Communities: []CommunityDoc{{Community: "3356:666", Doc: "a<b"}}}, false)
	for _, frac := range []time.Duration{time.Millisecond, 500 * time.Millisecond, time.Nanosecond, time.Second - time.Nanosecond, 123456789} {
		ev.End = start.Add(time.Hour + frac)
		check(ev, Annotation{}, true)
		check(ev, full, false)
	}
	now := time.Now().UTC() // what a live feed stamps an update with
	check(&Event{Prefix: netip.MustParsePrefix("10.1.2.0/24"), Start: now, End: now.Add(1234567 * time.Microsecond), Seq: 9}, Annotation{}, true)
}

// TestScanLineKeyAllocations is the wall under BenchmarkScanLineKey:
// keying a canonical line, plain or enriched, allocates once, the
// prefix's string.
func TestScanLineKeyAllocations(t *testing.T) {
	for _, line := range []string{lineKeySeeds[0], canonicalLine("2015-03-01T12:00:00Z", "2015-03-01T15:00:00Z", "17",
		`,"rpki":[{"origin":65001,"state":"valid"}],"legitimacy":"legitimate"`)} {
		b := []byte(line)
		if n := testing.AllocsPerRun(100, func() { scanLineKey(b) }); n != 1 {
			t.Errorf("scanLineKey costs %.0f allocations, want 1\nline %s", n, line)
		}
	}
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
					rec = newEventRecordEnriched(ev, ann.Annotate(ev))
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
