package alert

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseRule asserts two properties on arbitrary input: the parser
// never panics, and any accepted rule renders to a canonical form that
// reparses to the same canonical form (parse/format round-trip).
func FuzzParseRule(f *testing.F) {
	f.Add("name=a")
	f.Add("name=dc prefix=10.1.0.0/16,10.2.0.0/16 mode=covered")
	f.Add("name=x prefix=10.0.0.1 mode=lpm origin=65001,65002 provider=AS3356,ixp:4")
	f.Add("name=x community=3356:9999,65535:666 min-duration=90s verdict=illegitimate,questionable")
	f.Add("name=v6 prefix=2001:db8::/32 mode=covered")
	f.Add("name=a name=a")
	f.Add("prefix=10.0.0.0/8")
	f.Add("name=a min-duration=-1s")
	f.Fuzz(func(t *testing.T, s string) {
		r, err := ParseRule(s)
		if err != nil {
			return
		}
		canon := r.String()
		r2, err := ParseRule(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not reparse: %v", canon, s, err)
		}
		if got := r2.String(); got != canon {
			t.Fatalf("round trip unstable: %q -> %q -> %q", s, canon, got)
		}
	})
}

// FuzzRuleJSON holds the /rules JSON spelling to the compact one: decoding
// never panics; an accepted rule's String reparses through ParseRule to
// itself and its MarshalJSON decodes back to the same rule; and an object
// with a key encoding/json would match to no wire-form field is refused.
func FuzzRuleJSON(f *testing.F) {
	for _, seed := range []string{
		`{"name":"dc","prefixes":["10.1.0.0/16"],"mode":"covered","origins":[65001],"min_duration":"1m30s","verdicts":["questionable"]}`,
		`{"name":"x","verdicts":["maybe"]}`,
		`{"name":"dc","prefix":["10.0.0.0/8"],"mode":"covered"}`,
		`{"name":"v6","prefixes":["2001:db8::1/32"],"providers":["ixp:4","as174"],"communities":["65535:666"]}`,
		`{"NAME":"a","Mode":"LPM","origins":[0]}`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	var fields []string
	for _, sf := range reflect.VisibleFields(reflect.TypeFor[ruleJSON]()) {
		fields = append(fields, strings.Split(sf.Tag.Get("json"), ",")[0])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Rule
		if json.Unmarshal(data, &r) != nil {
			return
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(data, &keys); err != nil {
			t.Fatalf("accepted %q, which is no JSON object: %v", data, err)
		}
		for k := range keys {
			known := false
			for _, name := range fields {
				known = known || strings.EqualFold(k, name)
			}
			if !known {
				t.Fatalf("accepted %q, whose key %q is no wire-form field", data, k)
			}
		}
		canon := r.String()
		r2, err := ParseRule(canon)
		if err != nil || r2.String() != canon {
			t.Fatalf("String %q of %q reparses to %q, %v", canon, data, r2.String(), err)
		}
		wire, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var r3 Rule
		if err := json.Unmarshal(wire, &r3); err != nil {
			t.Fatalf("MarshalJSON %s of %q does not decode: %v", wire, data, err)
		}
		if again, _ := json.Marshal(r3); r3.String() != canon || !bytes.Equal(again, wire) {
			t.Fatalf("JSON round trip: %s -> %s (%q, want %q)", wire, again, r3.String(), canon)
		}
	})
}
