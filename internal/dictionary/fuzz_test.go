package dictionary

import (
	"bytes"
	"strings"
	"testing"

	"bgpblackholing/internal/bgp"
)

// FuzzLoadDictionary: Load never panics, and what it accepts Save writes
// back in a form Load reads as the same dictionary — Save(Load(x)) is a
// fixed point of Load then Save.
func FuzzLoadDictionary(f *testing.F) {
	d := New()
	d.AddPrivate(bgp.MakeCommunity(3356, 9999), 3356, 32)
	d.AddNonBlackhole(bgp.MakeCommunity(3356, 100), 3356)
	var saved bytes.Buffer
	if err := d.Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.String())
	f.Add(`{"version":1,"entries":[{"community":"0:666","providers":[1,2],"ixps":[3],"doc":"IRR","shared":true}],` +
		`"large_entries":[{"community":"1:2:3","doc":"Web"}],"non_blackhole":[{"community":"1:1","ases":[]}]}`)
	f.Add(`{"version":9}`)
	f.Add(`{broken`)
	f.Fuzz(func(t *testing.T, in string) {
		first, err := Load(strings.NewReader(in))
		if err != nil {
			return
		}
		var a bytes.Buffer
		if err := first.Save(&a); err != nil {
			t.Fatalf("Save of a loaded dictionary: %v", err)
		}
		again, err := Load(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("Load refuses what Save wrote: %v\n%s", err, a.Bytes())
		}
		var b bytes.Buffer
		if err := again.Save(&b); err != nil {
			t.Fatalf("Save of a reloaded dictionary: %v", err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("Load(Save(Load(x))) differs from Load(x):\n%s\nvs\n%s", a.Bytes(), b.Bytes())
		}
	})
}
