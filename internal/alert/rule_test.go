package alert

import (
	"cmp"
	"encoding/json"
	"net/netip"
	"strings"
	"testing"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/core"
	"bgpblackholing/internal/store"
)

func TestParseRuleFull(t *testing.T) {
	r, err := ParseRule("name=dc prefix=10.2.0.0/16,10.1.0.0/16 mode=covered origin=65002,65001 provider=AS3356,ixp:4 community=3356:9999 min-duration=90s verdict=questionable,illegitimate")
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "dc" || r.Mode != store.PrefixCovered {
		t.Fatalf("name/mode: %+v", r)
	}
	if len(r.Prefixes) != 2 || r.Prefixes[0] != netip.MustParsePrefix("10.1.0.0/16") {
		t.Fatalf("prefixes not sorted: %v", r.Prefixes)
	}
	if len(r.Origins) != 2 || r.Origins[0] != 65001 {
		t.Fatalf("origins not sorted: %v", r.Origins)
	}
	if len(r.Providers) != 2 || len(r.Communities) != 1 {
		t.Fatalf("providers/communities: %+v", r)
	}
	if r.MinDuration != 90*time.Second {
		t.Fatalf("min-duration: %v", r.MinDuration)
	}
	if len(r.Verdicts) != 2 || r.Verdicts[0] != "illegitimate" {
		t.Fatalf("verdicts not sorted: %v", r.Verdicts)
	}
}

func TestParseRuleErrors(t *testing.T) {
	for _, bad := range []string{
		"",                              // no name
		"prefix=10.0.0.0/8",             // no name
		"name=a name=b",                 // duplicate key
		"name=a bogus=1",                // unknown key
		"name=a prefix=nonsense",        // bad prefix
		"name=a mode=upward",            // bad mode
		"name=a origin=xyz",             // bad ASN
		"name=a verdict=maybe",          // bad verdict
		"name=a min-duration=-5s",       // negative duration
		"name=a min-duration=yesterday", // bad duration
		"name=a,b",                      // comma in name
		"name=a prefix=",                // empty value
	} {
		if _, err := ParseRule(bad); err == nil {
			t.Errorf("ParseRule(%q): expected error", bad)
		}
	}
}

// TestRuleModeVocabulary: a rule's mode is the query's PrefixMode, named
// as the query names it in any case; a value that is no mode prints as
// mode(N); and covering, whose stream meaning lpm already has, is no
// rule mode.
func TestRuleModeVocabulary(t *testing.T) {
	for _, c := range []struct {
		mode     store.PrefixMode
		name     string
		ruleMode bool
	}{
		{store.PrefixExact, "exact", true},
		{store.PrefixLPM, "lpm", true},
		{store.PrefixCovered, "covered", true},
		{store.PrefixCovering, "covering", false},
		{store.PrefixMode(4), "mode(4)", false},
		{store.PrefixMode(-1), "mode(-1)", false},
	} {
		if got := c.mode.String(); got != c.name {
			t.Errorf("PrefixMode(%d) prints %q, want %q", int(c.mode), got, c.name)
		}
		inRange := c.mode >= store.PrefixExact && c.mode <= store.PrefixCovering
		for _, spelled := range []string{c.name, strings.ToUpper(c.name), strings.ToUpper(c.name[:1]) + c.name[1:]} {
			m, err := store.ParsePrefixMode(spelled)
			if inRange != (err == nil) || inRange && m != c.mode {
				t.Errorf("ParsePrefixMode(%q) = %v, %v", spelled, m, err)
			}
			_, err = ParseRule("name=r prefix=10.0.0.0/8 mode=" + spelled)
			if c.ruleMode != (err == nil) {
				t.Errorf("rule mode=%s: err = %v, want a rule mode: %v", spelled, err, c.ruleMode)
			}
			if c.mode == store.PrefixCovering && (err == nil || !strings.Contains(err.Error(), "lpm")) {
				t.Errorf("rule mode=%s: refused with %v, which does not point at lpm", spelled, err)
			}
		}
		r := Rule{Name: "r", Prefixes: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}, Mode: c.mode}
		if err := r.Validate(); c.ruleMode != (err == nil) {
			t.Errorf("Rule{Mode: %v}.Validate() = %v", c.mode, err)
		}
	}
}

func TestRuleStringRoundTrip(t *testing.T) {
	for _, src := range []string{
		"name=a",
		"name=a prefix=10.0.0.1 mode=lpm",
		"name=a prefix=10.1.2.0/24 mode=covered origin=65001 min-duration=1m30s",
		"name=a provider=ixp:4,AS3356 community=65535:666 verdict=illegitimate",
	} {
		r, err := ParseRule(src)
		if err != nil {
			t.Fatalf("ParseRule(%q): %v", src, err)
		}
		s := r.String()
		r2, err := ParseRule(s)
		if err != nil {
			t.Fatalf("reparse %q: %v", s, err)
		}
		if got := r2.String(); got != s {
			t.Fatalf("round trip: %q -> %q", s, got)
		}
	}
}

func TestRuleJSONRoundTrip(t *testing.T) {
	r, err := ParseRule("name=dc prefix=10.1.0.0/16 mode=covered origin=65001 verdict=questionable min-duration=90s")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var r2 Rule
	if err := json.Unmarshal(data, &r2); err != nil {
		t.Fatal(err)
	}
	if r2.String() != r.String() {
		t.Fatalf("JSON round trip: %q -> %q", r.String(), r2.String())
	}
	// A JSON rule failing validation must not unmarshal.
	if err := json.Unmarshal([]byte(`{"name":"x","verdicts":["maybe"]}`), &r2); err == nil {
		t.Fatal("bad verdict unmarshalled")
	}
}

// TestRuleRefusesASZero: AS 0 is no event's origin (RFC 7607), so a rule
// that names it is refused in the compact syntax, in JSON and by Compile,
// where it could only ever match AS 0.
func TestRuleRefusesASZero(t *testing.T) {
	for _, spec := range []string{"name=z origin=0", "name=z origin=65001,0"} {
		if _, err := ParseRule(spec); err == nil || !strings.Contains(err.Error(), "AS 0") {
			t.Errorf("ParseRule(%q) = %v, want AS 0 refused", spec, err)
		}
	}
	var r Rule
	if err := json.Unmarshal([]byte(`{"name":"z","origins":[65001,0]}`), &r); err == nil || !strings.Contains(err.Error(), "AS 0") {
		t.Errorf("JSON origins [65001,0]: %v, want AS 0 refused", err)
	}
	if _, err := Compile([]Rule{{Name: "z", Origins: []bgp.ASN{0}}}); err == nil || !strings.Contains(err.Error(), "AS 0") {
		t.Errorf("Compile of origin AS 0: %v, want it refused", err)
	}
}

// testEvent builds a closed event for match tests.
func testEvent(prefix string, dur time.Duration, users []uint32, provs []core.ProviderRef, comms []string) *core.Event {
	start := time.Date(2016, 9, 20, 12, 0, 0, 0, time.UTC)
	ev := &core.Event{
		Prefix:    netip.MustParsePrefix(prefix),
		Start:     start,
		End:       start.Add(dur),
		Providers: core.SetOf(core.ProviderRefCompare, provs...),
	}
	for _, u := range users {
		ev.Users = core.SetOf(cmp.Compare[bgp.ASN], append(ev.Users, bgp.ASN(u))...)
	}
	for _, c := range comms {
		cc, err := bgp.ParseCommunity(c)
		if err != nil {
			panic(err)
		}
		ev.Communities = core.SetOf(cmp.Compare[bgp.Community], append(ev.Communities, cc)...)
	}
	return ev
}

func mustRules(t *testing.T, specs ...string) []Rule {
	t.Helper()
	out := make([]Rule, len(specs))
	for i, s := range specs {
		r, err := ParseRule(s)
		if err != nil {
			t.Fatalf("ParseRule(%q): %v", s, err)
		}
		out[i] = r
	}
	return out
}

func matchNames(ix *Index, ev *core.Event, verdict func() string) []string {
	var out []string
	for _, ord := range ix.Match(ev, verdict) {
		out = append(out, ix.Rules()[ord].Name)
	}
	return out
}

func TestIndexMatchModes(t *testing.T) {
	ix, err := Compile(mustRules(t,
		"name=exact prefix=10.1.2.3/32 mode=exact",
		"name=covered prefix=10.1.0.0/16 mode=covered",
		"name=lpm prefix=10.1.2.3/32 mode=lpm",
		"name=other prefix=192.168.0.0/16 mode=covered",
	))
	if err != nil {
		t.Fatal(err)
	}

	got := matchNames(ix, testEvent("10.1.2.3/32", time.Minute, nil, nil, nil), nil)
	want := []string{"exact", "covered", "lpm"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("host event matched %v, want %v", got, want)
	}

	// A /24 inside 10.1/16 covering the lpm target: no exact match.
	got = matchNames(ix, testEvent("10.1.2.0/24", time.Minute, nil, nil, nil), nil)
	if len(got) != 2 || got[0] != "covered" || got[1] != "lpm" {
		t.Fatalf("/24 event matched %v", got)
	}

	// Outside every rule prefix.
	if got = matchNames(ix, testEvent("172.16.0.1/32", time.Minute, nil, nil, nil), nil); got != nil {
		t.Fatalf("unrelated event matched %v", got)
	}
}

func TestIndexMatchDimensions(t *testing.T) {
	ix, err := Compile(mustRules(t,
		"name=byorigin origin=65001",
		"name=byprovider provider=AS3356",
		"name=bycomm community=3356:9999",
		"name=longonly min-duration=1h",
		"name=all",
	))
	if err != nil {
		t.Fatal(err)
	}
	provider := core.ProviderRef{Kind: core.ProviderAS, ASN: 3356}

	ev := testEvent("10.0.0.1/32", time.Minute, []uint32{65001}, []core.ProviderRef{provider}, []string{"3356:9999"})
	got := matchNames(ix, ev, nil)
	if len(got) != 4 || got[3] != "all" {
		t.Fatalf("matched %v", got)
	}

	// Long event picks up the duration rule too.
	ev = testEvent("10.0.0.1/32", 2*time.Hour, []uint32{65001}, []core.ProviderRef{provider}, []string{"3356:9999"})
	if got = matchNames(ix, ev, nil); len(got) != 5 {
		t.Fatalf("long event matched %v", got)
	}

	// Nothing but the unconstrained rule.
	ev = testEvent("10.0.0.1/32", time.Minute, []uint32{64999}, nil, nil)
	if got = matchNames(ix, ev, nil); len(got) != 1 || got[0] != "all" {
		t.Fatalf("bare event matched %v", got)
	}
}

func TestIndexVerdictLazy(t *testing.T) {
	ix, err := Compile(mustRules(t,
		"name=bad verdict=illegitimate",
		"name=sus verdict=questionable,illegitimate",
		"name=all",
	))
	if err != nil {
		t.Fatal(err)
	}
	if !ix.NeedsVerdict() {
		t.Fatal("NeedsVerdict = false")
	}
	ev := testEvent("10.0.0.1/32", time.Minute, nil, nil, nil)

	calls := 0
	verdict := func() string { calls++; return "illegitimate" }
	got := matchNames(ix, ev, verdict)
	if len(got) != 3 {
		t.Fatalf("matched %v", got)
	}
	if calls != 1 {
		t.Fatalf("verdict computed %d times, want 1 (lazy, memoized)", calls)
	}

	// Legitimate event: only the unconstrained rule.
	got = matchNames(ix, ev, func() string { return "legitimate" })
	if len(got) != 1 || got[0] != "all" {
		t.Fatalf("legitimate event matched %v", got)
	}

	// No verdict source: verdict-conditioned rules never fire.
	got = matchNames(ix, ev, nil)
	if len(got) != 1 || got[0] != "all" {
		t.Fatalf("nil-verdict matched %v", got)
	}
}

func TestCompileRejectsDuplicates(t *testing.T) {
	_, err := Compile(mustRules(t, "name=a", "name=a"))
	if err == nil {
		t.Fatal("duplicate names compiled")
	}
}

func TestIndexDedupesAcrossPrefixes(t *testing.T) {
	// One rule, two nested prefixes both covering the event: the rule
	// must fire once, not twice.
	ix, err := Compile(mustRules(t, "name=a prefix=10.0.0.0/8,10.1.0.0/16 mode=covered"))
	if err != nil {
		t.Fatal(err)
	}
	got := ix.Match(testEvent("10.1.2.3/32", time.Minute, nil, nil, nil), nil)
	if len(got) != 1 {
		t.Fatalf("matched ordinals %v, want exactly one", got)
	}
}
