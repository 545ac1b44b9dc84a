package bgpblackholing

// Alert rules speak the query's vocabulary: a rule's mode is a
// PrefixMode, so a caller outside the module names it with the query's
// constants, and the rules' two wire forms — the compact syntax and the
// /rules JSON — keep their bytes.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"
)

// TestAlertRuleModeFromFacade: a rule built as a struct literal through
// the facade, its mode one of the query's constants, is the rule the
// compact syntax spells, and fires on exactly the same events.
func TestAlertRuleModeFromFacade(t *testing.T) {
	built := AlertRule{Name: "built", Prefixes: []netip.Prefix{mustPrefix("10.1.0.0/16")}, Mode: PrefixCovered}
	parsed, err := ParseRule("name=parsed prefix=10.1.0.0/16 mode=covered")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Replace(built.String(), "built", "parsed", 1), parsed.String(); got != want {
		t.Fatalf("built rule renders %q, the parsed one %q", got, want)
	}
	hub, err := NewAlertHub([]AlertRule{built, parsed}, AlertHubConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	w, err := hub.Watch(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	prefixes := []string{"10.1.2.3/32", "10.1.0.0/16", "10.0.0.0/8", "10.2.0.1/32", "10.1.128.0/17", "2001:db8::/48"}
	for i, p := range prefixes {
		ev := stallEvent(i)
		ev.Prefix = mustPrefix(p)
		hub.Publish(ev)
	}
	fired := map[string][]string{}
	for n := hub.Stats().Alerts; n > 0; n-- {
		select {
		case a := <-w.C():
			fired[a.Rule] = append(fired[a.Rule], a.Event.Prefix.String())
		case <-time.After(5 * time.Second):
			t.Fatalf("watcher delivered %v, %d alerts short", fired, n)
		}
	}
	want := "10.1.2.3/32 10.1.0.0/16 10.1.128.0/17"
	for _, rule := range []string{"built", "parsed"} {
		if got := strings.Join(fired[rule], " "); got != want {
			t.Errorf("rule %s fired on %q, want %q", rule, got, want)
		}
	}
}

// TestRulesRefuseMisspeltField: a /rules JSON body that spells a field
// the wire form does not know — the compact key "prefix" for "prefixes"
// — is a 400 naming the field, not a rule with that dimension left
// unconstrained that fires on every event. Spelt right, the same body
// adds a rule that fires only inside its prefix.
func TestRulesRefuseMisspeltField(t *testing.T) {
	hub, err := NewAlertHub(nil, AlertHubConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := httptest.NewServer(NewStoreHandlerWith(st, nil, HandlerOptions{Hub: hub}))
	defer srv.Close()
	post := func(body string) (int, map[string]any) {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/rules", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var answer map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&answer); err != nil {
			t.Fatalf("POST /rules %s: the answer is no JSON object: %v", body, err)
		}
		return resp.StatusCode, answer
	}
	fires := func(prefix string) bool {
		ev := stallEvent(0)
		ev.Prefix = mustPrefix(prefix)
		before := hub.Stats().Alerts
		hub.Publish(ev)
		return hub.Stats().Alerts > before
	}

	code, answer := post(`{"name":"dc","prefix":["10.0.0.0/8"],"mode":"covered"}`)
	if msg, _ := answer["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, `"prefix"`) {
		t.Errorf("misspelt rule answered %d %v, want 400 with an error naming \"prefix\"", code, answer)
	}
	if n := len(hub.Rules()); n != 0 {
		t.Errorf("the refused rule left %d rules in the hub", n)
	}
	if fires("192.0.2.1/32") {
		t.Fatal("192.0.2.1/32 fired an alert after the misspelt rule was refused")
	}

	if code, answer = post(`{"name":"dc","prefixes":["10.0.0.0/8"],"mode":"covered"}`); code != http.StatusOK {
		t.Fatalf("the rule spelt right answered %d %v", code, answer)
	}
	if fires("192.0.2.1/32") || !fires("10.1.2.3/32") {
		t.Fatal("the rule spelt right does not fire exactly inside 10.0.0.0/8")
	}
}

// ruleCorpus is rules as operators write them, in both syntaxes: mixed
// case modes, bare addresses, unmasked and duplicate prefixes, a mode
// with no prefix to apply to, every dimension.
var ruleCorpus = []string{
	"name=all",
	"name=host prefix=10.0.0.1",
	"name=lpm prefix=10.0.0.1 mode=LPM",
	"name=dc prefix=10.2.0.0/16,10.1.0.0/16,10.1.0.0/16 mode=Covered origin=65002,65001",
	"name=v6 prefix=2001:db8::1/32,2001:db8::/48 mode=covered provider=ixp:4,AS3356,as174 community=65535:666,3356:9999",
	"name=slow min-duration=90s verdict=questionable,illegitimate",
	"name=modeless mode=lpm origin=64500",
	"name=x prefix=192.0.2.7/24 mode=exact min-duration=1h30m verdict=legitimate",
	`{"name":"json","prefixes":["10.9.0.1","10.9.0.0/16"],"mode":"Covered","origins":[3,1],"providers":["3356"],"min_duration":"5m"}`,
	`{"name":"json-lpm","prefixes":["198.51.100.1"],"mode":"lpm","communities":["3356:9999"],"verdicts":["illegitimate"]}`,
}

// ruleCorpusSyntax is each corpus rule's String, recorded before rule
// modes became PrefixModes.
var ruleCorpusSyntax = []string{
	"name=all",
	"name=host prefix=10.0.0.1/32 mode=exact",
	"name=lpm prefix=10.0.0.1/32 mode=lpm",
	"name=dc prefix=10.1.0.0/16,10.2.0.0/16 mode=covered origin=65001,65002",
	"name=v6 prefix=2001:db8::/32,2001:db8::/48 mode=covered provider=AS174,AS3356,ixp:4 community=3356:9999,65535:666",
	"name=slow min-duration=1m30s verdict=illegitimate,questionable",
	"name=modeless origin=64500",
	"name=x prefix=192.0.2.0/24 mode=exact min-duration=1h30m0s verdict=legitimate",
	"name=json prefix=10.9.0.0/16,10.9.0.1/32 mode=covered origin=1,3 provider=AS3356 min-duration=5m0s",
	"name=json-lpm prefix=198.51.100.1/32 mode=lpm community=3356:9999 verdict=illegitimate",
}

// TestAlertRuleWireBytes: the corpus renders, in the compact syntax and
// as the /rules JSON, byte for byte as it did when rules had a mode type
// of their own.
func TestAlertRuleWireBytes(t *testing.T) {
	rules := make([]AlertRule, len(ruleCorpus))
	for i, spec := range ruleCorpus {
		var err error
		if strings.HasPrefix(spec, "{") {
			err = json.Unmarshal([]byte(spec), &rules[i])
		} else {
			rules[i], err = ParseRule(spec)
		}
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if got := rules[i].String(); got != ruleCorpusSyntax[i] {
			t.Errorf("%s renders\n  %s\nwant\n  %s", spec, got, ruleCorpusSyntax[i])
		}
	}
	hub, err := NewAlertHub(rules, AlertHubConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := httptest.NewServer(NewStoreHandlerWith(st, nil, HandlerOptions{Hub: hub}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/rules")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != ruleCorpusJSON {
		t.Errorf("GET /rules answers\n%s\nwant\n%s", body, ruleCorpusJSON)
	}
}

// ruleCorpusJSON is GET /rules over the corpus, recorded before rule
// modes became PrefixModes.
const ruleCorpusJSON = `{
  "rules": [
    {
      "rule": {
        "name": "all"
      },
      "syntax": "name=all"
    },
    {
      "rule": {
        "name": "host",
        "prefixes": [
          "10.0.0.1/32"
        ],
        "mode": "exact"
      },
      "syntax": "name=host prefix=10.0.0.1/32 mode=exact"
    },
    {
      "rule": {
        "name": "lpm",
        "prefixes": [
          "10.0.0.1/32"
        ],
        "mode": "lpm"
      },
      "syntax": "name=lpm prefix=10.0.0.1/32 mode=lpm"
    },
    {
      "rule": {
        "name": "dc",
        "prefixes": [
          "10.1.0.0/16",
          "10.2.0.0/16"
        ],
        "mode": "covered",
        "origins": [
          65001,
          65002
        ]
      },
      "syntax": "name=dc prefix=10.1.0.0/16,10.2.0.0/16 mode=covered origin=65001,65002"
    },
    {
      "rule": {
        "name": "v6",
        "prefixes": [
          "2001:db8::/32",
          "2001:db8::/48"
        ],
        "mode": "covered",
        "providers": [
          "AS174",
          "AS3356",
          "ixp:4"
        ],
        "communities": [
          "3356:9999",
          "65535:666"
        ]
      },
      "syntax": "name=v6 prefix=2001:db8::/32,2001:db8::/48 mode=covered provider=AS174,AS3356,ixp:4 community=3356:9999,65535:666"
    },
    {
      "rule": {
        "name": "slow",
        "min_duration": "1m30s",
        "verdicts": [
          "illegitimate",
          "questionable"
        ]
      },
      "syntax": "name=slow min-duration=1m30s verdict=illegitimate,questionable"
    },
    {
      "rule": {
        "name": "modeless",
        "origins": [
          64500
        ]
      },
      "syntax": "name=modeless origin=64500"
    },
    {
      "rule": {
        "name": "x",
        "prefixes": [
          "192.0.2.0/24"
        ],
        "mode": "exact",
        "min_duration": "1h30m0s",
        "verdicts": [
          "legitimate"
        ]
      },
      "syntax": "name=x prefix=192.0.2.0/24 mode=exact min-duration=1h30m0s verdict=legitimate"
    },
    {
      "rule": {
        "name": "json",
        "prefixes": [
          "10.9.0.0/16",
          "10.9.0.1/32"
        ],
        "mode": "covered",
        "origins": [
          1,
          3
        ],
        "providers": [
          "AS3356"
        ],
        "min_duration": "5m0s"
      },
      "syntax": "name=json prefix=10.9.0.0/16,10.9.0.1/32 mode=covered origin=1,3 provider=AS3356 min-duration=5m0s"
    },
    {
      "rule": {
        "name": "json-lpm",
        "prefixes": [
          "198.51.100.1/32"
        ],
        "mode": "lpm",
        "communities": [
          "3356:9999"
        ],
        "verdicts": [
          "illegitimate"
        ]
      },
      "syntax": "name=json-lpm prefix=198.51.100.1/32 mode=lpm community=3356:9999 verdict=illegitimate"
    }
  ]
}
`
