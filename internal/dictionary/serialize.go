package dictionary

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/topology"
)

// fileFormat is the on-disk JSON shape of a dictionary. Communities use
// their canonical string notation so dumps stay human-readable and
// diffable — the dictionary is the kind of artefact researchers publish
// alongside a study.
type fileFormat struct {
	Entries      []entryJSON `json:"entries"`
	Large        []largeJSON `json:"large_entries,omitempty"`
	NonBlackhole []nonBHJSON `json:"non_blackhole,omitempty"`
	Version      int         `json:"version"`
}

type entryJSON struct {
	Community    string    `json:"community"`
	Providers    []bgp.ASN `json:"providers,omitempty"`
	IXPs         []int     `json:"ixps,omitempty"`
	Doc          string    `json:"doc"`
	MaxPrefixLen int       `json:"max_prefix_len,omitempty"`
	Scope        string    `json:"scope,omitempty"`
	Shared       bool      `json:"shared,omitempty"`
}

type largeJSON struct {
	Community string    `json:"community"`
	Providers []bgp.ASN `json:"providers,omitempty"`
	Doc       string    `json:"doc"`
}

type nonBHJSON struct {
	Community string    `json:"community"`
	ASes      []bgp.ASN `json:"ases"`
}

func docToString(d topology.DocSource) string { return d.String() }

func docFromString(s string) (topology.DocSource, error) {
	switch s {
	case "IRR":
		return topology.DocIRR, nil
	case "Web":
		return topology.DocWeb, nil
	case "Private":
		return topology.DocPrivate, nil
	case "None", "":
		return topology.DocNone, nil
	}
	return 0, fmt.Errorf("dictionary: unknown doc source %q", s)
}

// Save writes the dictionary as JSON.
func (d *Dictionary) Save(w io.Writer) error {
	ff := fileFormat{Version: 1}
	for _, e := range d.Entries() {
		ff.Entries = append(ff.Entries, entryJSON{
			Community:    e.Community.String(),
			Providers:    e.Providers,
			IXPs:         e.IXPs,
			Doc:          docToString(e.Doc),
			MaxPrefixLen: e.MaxPrefixLen,
			Scope:        e.Scope,
			Shared:       e.Shared,
		})
	}
	for _, e := range d.LargeEntries() {
		ff.Large = append(ff.Large, largeJSON{
			Community: e.Community.String(),
			Providers: e.Providers,
			Doc:       docToString(e.Doc),
		})
	}
	// Deterministic order for the non-blackhole dictionary.
	for _, c := range slices.Sorted(maps.Keys(d.nonBlackhole)) {
		ff.NonBlackhole = append(ff.NonBlackhole, nonBHJSON{
			Community: c.String(),
			ASes:      d.nonBlackhole[c],
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ff)
}

// Load reads a dictionary written by Save.
func Load(r io.Reader) (*Dictionary, error) {
	var ff fileFormat
	if err := json.NewDecoder(r).Decode(&ff); err != nil {
		return nil, fmt.Errorf("dictionary: decode: %w", err)
	}
	if ff.Version != 1 {
		return nil, fmt.Errorf("dictionary: unsupported version %d", ff.Version)
	}
	d := New()
	for _, e := range ff.Entries {
		c, err := bgp.ParseCommunity(e.Community)
		if err != nil {
			return nil, err
		}
		doc, err := docFromString(e.Doc)
		if err != nil {
			return nil, err
		}
		entry := &Entry{
			Community:    c,
			Providers:    e.Providers,
			IXPs:         e.IXPs,
			Doc:          doc,
			MaxPrefixLen: e.MaxPrefixLen,
			Scope:        e.Scope,
			Shared:       e.Shared,
		}
		d.entries[c] = entry
	}
	for _, e := range ff.Large {
		lc, err := bgp.ParseLargeCommunity(e.Community)
		if err != nil {
			return nil, err
		}
		doc, err := docFromString(e.Doc)
		if err != nil {
			return nil, err
		}
		d.large[lc] = &LargeEntry{Community: lc, Providers: e.Providers, Doc: doc}
	}
	for _, n := range ff.NonBlackhole {
		c, err := bgp.ParseCommunity(n.Community)
		if err != nil {
			return nil, err
		}
		d.nonBlackhole[c] = n.ASes
	}
	return d, nil
}
