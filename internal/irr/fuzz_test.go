package irr

import (
	"strings"
	"testing"
)

// FuzzParseRPSL: ParseRPSL never panics and yields at most one attribute
// per input line, each name trimmed and lower-cased.
func FuzzParseRPSL(f *testing.F) {
	f.Add("aut-num: AS3356\nremarks: 3356:9999 blackhole\n")
	f.Add("no colon here\n:\n::\n\r\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, text string) {
		attrs := ParseRPSL(text)
		if lines := strings.Count(text, "\n") + 1; len(attrs) > lines {
			t.Fatalf("%d attributes from %d lines", len(attrs), lines)
		}
		for _, a := range attrs {
			if a.Name != strings.TrimSpace(a.Name) || a.Name != strings.ToLower(a.Name) {
				t.Fatalf("attribute name %q is not trimmed and lower-cased", a.Name)
			}
		}
	})
}
