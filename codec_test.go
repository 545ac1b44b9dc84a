package bgpblackholing

import (
	"math/rand"
	"net/netip"
	"net/url"
	"reflect"
	"testing"
	"time"
)

// roundTrip sends q through the codec the way a router forwards it to a
// remote shard: rendered as parameters, encoded onto a URL, parsed back.
func roundTrip(q Query) (Query, error) {
	return ParseQuery((&url.URL{RawQuery: queryParams(q).Encode()}).Query())
}

// sameQuery is Query equality with times compared as instants and the
// provider by value.
func sameQuery(a, b Query) bool {
	if (a.Provider == nil) != (b.Provider == nil) || (a.Provider != nil && *a.Provider != *b.Provider) {
		return false
	}
	if !a.From.Equal(b.From) || !a.To.Equal(b.To) {
		return false
	}
	a.Provider, b.Provider = nil, nil
	a.From, a.To, b.From, b.To = time.Time{}, time.Time{}, time.Time{}, time.Time{}
	return a == b
}

// randomQuery draws a query with every field independently set or left
// zero: both address families, all four modes, sub-second times.
func randomQuery(rng *rand.Rand) Query {
	var q Query
	set := func() bool { return rng.Intn(2) == 0 }
	instant := func() time.Time {
		return time.Unix(1417392000+rng.Int63n(3*365*86400), rng.Int63n(1e9)).UTC()
	}
	if set() {
		q.From = instant()
	}
	if set() {
		q.To = instant()
	}
	if set() {
		var addr netip.Addr
		if set() {
			var b [4]byte
			rng.Read(b[:])
			addr = netip.AddrFrom4(b)
		} else {
			var b [16]byte
			rng.Read(b[:])
			addr = netip.AddrFrom16(b)
		}
		q.Prefix = netip.PrefixFrom(addr, rng.Intn(addr.BitLen()+1))
	}
	q.Mode = PrefixMode(rng.Intn(4))
	if set() {
		q.OriginASN = ASN(rng.Uint32())
	}
	if set() {
		pr := ProviderRef{Kind: ProviderAS, ASN: ASN(rng.Uint32())}
		if set() {
			pr = ProviderRef{Kind: ProviderIXP, IXPID: rng.Intn(1000)}
		}
		q.Provider = &pr
	}
	if set() {
		q.Community = MakeCommunity(uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16)))
	}
	if set() {
		q.MinDuration = time.Duration(rng.Int63n(int64(1000 * time.Hour)))
	}
	if set() {
		q.MaxDuration = time.Duration(rng.Int63n(int64(1000 * time.Hour)))
	}
	if set() {
		q.Limit = rng.Intn(1 << 20)
	}
	q.Enrich = set()
	return q
}

// TestQueryCodecRoundTrip is the codec's law: ParseQuery(queryParams(q))
// is q, for every field — so a router forwards exactly the query it was
// asked, sub-second filter boundaries included.
func TestQueryCodecRoundTrip(t *testing.T) {
	half := Query{
		From: time.Date(2015, 3, 1, 12, 0, 5, 500_000_000, time.UTC),
		To:   time.Date(2015, 3, 2, 12, 0, 5, 1, time.UTC),
	}
	if got, err := roundTrip(half); err != nil || !sameQuery(got, half) {
		t.Errorf("sub-second bounds moved in transit: sent %v..%v, arrived %v..%v (err %v)",
			half.From, half.To, got.From, got.To, err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		q := randomQuery(rng)
		got, err := roundTrip(q)
		if err != nil {
			t.Fatalf("query %d %+v: parse of own rendering %q: %v", i, q, queryParams(q).Encode(), err)
		}
		if !sameQuery(got, q) {
			t.Fatalf("query %d: sent %+v, arrived %+v via %q", i, q, got, queryParams(q).Encode())
		}
	}
}

// TestQueryCodecCoversEveryField holds queryFields to Query by
// reflection: set alone, every field is printed by exactly one row, and
// that row reads its text back into that field alone, unchanged. A field
// no row reads and prints fails here — randomQuery sets fields by hand,
// so the round trip would carry a new one as its zero value and pass.
func TestQueryCodecCoversEveryField(t *testing.T) {
	samples := map[reflect.Type]any{ // a set value of each field type
		reflect.TypeFor[time.Time]():     time.Date(2015, 3, 1, 12, 0, 5, 500, time.UTC),
		reflect.TypeFor[netip.Prefix]():  netip.MustParsePrefix("10.1.0.0/16"),
		reflect.TypeFor[PrefixMode]():    PrefixCovered,
		reflect.TypeFor[ASN]():           ASN(65001),
		reflect.TypeFor[*ProviderRef]():  &ProviderRef{Kind: ProviderIXP, IXPID: 4},
		reflect.TypeFor[Community]():     MakeCommunity(3356, 666),
		reflect.TypeFor[time.Duration](): 90 * time.Second,
		reflect.TypeFor[int]():           5,
		reflect.TypeFor[bool]():          true,
	}
	typ := reflect.TypeFor[Query]()
	rowOf := map[string]string{} // row name -> the field it prints
	for i := range typ.NumField() {
		field := typ.Field(i)
		sample, ok := samples[field.Type]
		if !ok {
			t.Errorf("Query.%s: no sample value of type %s", field.Name, field.Type)
			continue
		}
		var q Query
		reflect.ValueOf(&q).Elem().Field(i).Set(reflect.ValueOf(sample))
		var printers []int
		for r, row := range queryFields {
			if row.print(&q) != "" {
				printers = append(printers, r)
			}
		}
		if len(printers) != 1 {
			t.Errorf("Query.%s is printed by %d rows, want exactly one", field.Name, len(printers))
			continue
		}
		row := queryFields[printers[0]]
		rowOf[row.name] = field.Name
		var got Query
		if err := row.read(&got, row.print(&q)); err != nil || !sameQuery(got, q) {
			t.Errorf("row %s reads its own %q as %+v (%v), want %+v", row.name, row.print(&q), got, err, q)
		}
	}
	for _, row := range queryFields {
		if _, ok := rowOf[row.name]; !ok {
			t.Errorf("row %s prints no field of Query", row.name)
		}
	}
}

// querySeeds are query strings over the /events parameter set, well and
// badly spelled: FuzzParseQuery's seeds, and what TestEveryRouteFederates
// asks every route.
var querySeeds = []string{
	"",
	"prefix=10.1.2.3&mode=lpm",
	"prefix=2001:db8::/32&mode=covered&limit=5",
	"from=2015-03-01T12:00:05.5Z&to=2015-03-02T00:00:00%2B02:00",
	"origin=65001&provider=AS3356&community=3356:9999",
	"provider=ixp:4&min_duration=90s&max_duration=1h30m&enrich=1",
	"mode=covering&enrich=banana",
	"from=yesterday",
	"limit=-1",
}

// FuzzParseQuery: ParseQuery never panics on an arbitrary query string,
// and every query it accepts survives the codec unchanged.
func FuzzParseQuery(f *testing.F) {
	for _, seed := range querySeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := ParseQuery((&url.URL{RawQuery: raw}).Query())
		if err != nil {
			return
		}
		got, err := roundTrip(q)
		if err != nil {
			t.Fatalf("%q parsed to %+v, whose rendering %q is rejected: %v", raw, q, queryParams(q).Encode(), err)
		}
		if !sameQuery(got, q) {
			t.Fatalf("%q parsed to %+v, which arrives as %+v via %q", raw, q, got, queryParams(q).Encode())
		}
	})
}
