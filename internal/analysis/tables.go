package analysis

import (
	"fmt"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/core"
	"bgpblackholing/internal/dictionary"
	"bgpblackholing/internal/topology"
)

// Table1Row re-exports the collector visibility stats with a label.
type Table1Row struct {
	Source string
	collector.VisibilityStats
}

// Table1 labels the deployment's dataset overview (Table 1).
func Table1(d *collector.Deployment) []Table1Row {
	rows := d.Table1()
	out := make([]Table1Row, len(rows))
	for i, r := range rows {
		label := "Total"
		if r.Platform >= 0 {
			label = r.Platform.String()
		}
		out[i] = Table1Row{Source: label, VisibilityStats: r}
	}
	return out
}

// FormatTable1 renders Table 1 in the paper's column layout.
func FormatTable1(rows []Table1Row) string {
	header := []string{"Source", "#IP peers", "#AS peers", "#Unique AS peers", "#Prefixes", "#Unique prefixes"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Source,
			fmt.Sprint(r.IPPeers), fmt.Sprint(r.ASPeers), fmt.Sprint(r.UniqueASPeers),
			fmt.Sprint(r.Prefixes), fmt.Sprint(r.UniquePrefixes),
		})
	}
	return FormatTable(header, cells)
}

// Table2Row is one network-type row of the communities dictionary
// distribution (documented, with inferred-undocumented in parentheses).
type Table2Row struct {
	Type                topology.Kind
	Networks            int
	Communities         int
	InferredNetworks    int
	InferredCommunities int
}

// Table2 computes the documented blackhole communities distribution per
// network type (Table 2), plus the inferred/undocumented counts from the
// Figure 2 extension.
func Table2(dict *dictionary.Dictionary, inferred *dictionary.InferenceResult, topo *topology.Topology) []Table2Row {
	kindOf := func(asn bgp.ASN) topology.Kind {
		if as := topo.AS(asn); as != nil {
			return as.Kind()
		}
		return topology.KindUnknown
	}

	docNets := map[topology.Kind]map[bgp.ASN]bool{}
	docComms := map[topology.Kind]map[bgp.Community]bool{}
	add := func(k topology.Kind, asn bgp.ASN, c bgp.Community) {
		if docNets[k] == nil {
			docNets[k] = map[bgp.ASN]bool{}
			docComms[k] = map[bgp.Community]bool{}
		}
		if asn != 0 {
			docNets[k][asn] = true
		}
		docComms[k][c] = true
	}
	ixpNets := map[int]bool{}
	for _, e := range dict.Entries() {
		for _, p := range e.Providers {
			add(kindOf(p), p, e.Community)
		}
		for _, x := range e.IXPs {
			ixpNets[x] = true
			add(topology.KindIXP, 0, e.Community)
		}
	}
	for _, e := range dict.LargeEntries() {
		for _, p := range e.Providers {
			k := kindOf(p)
			if docNets[k] == nil {
				docNets[k] = map[bgp.ASN]bool{}
				docComms[k] = map[bgp.Community]bool{}
			}
			docNets[k][p] = true
		}
	}

	infNets := map[topology.Kind]map[bgp.ASN]bool{}
	infComms := map[topology.Kind]int{}
	if inferred != nil {
		for _, e := range inferred.Inferred {
			for _, p := range e.Providers {
				k := kindOf(p)
				if infNets[k] == nil {
					infNets[k] = map[bgp.ASN]bool{}
				}
				infNets[k][p] = true
				infComms[k]++
			}
		}
	}

	var out []Table2Row
	for _, k := range topology.Kinds() {
		row := Table2Row{Type: k}
		row.Networks = len(docNets[k])
		if k == topology.KindIXP {
			row.Networks = len(ixpNets)
		}
		row.Communities = len(docComms[k])
		row.InferredNetworks = len(infNets[k])
		row.InferredCommunities = infComms[k]
		out = append(out, row)
	}
	return out
}

// FormatTable2 renders Table 2.
func FormatTable2(rows []Table2Row) string {
	header := []string{"Network Type", "#Networks", "#Blackhole communities"}
	var cells [][]string
	totN, totC, totIN, totIC := 0, 0, 0, 0
	for _, r := range rows {
		cells = append(cells, []string{
			r.Type.String(),
			fmt.Sprintf("%d (%d)", r.Networks, r.InferredNetworks),
			fmt.Sprintf("%d (%d)", r.Communities, r.InferredCommunities),
		})
		totN += r.Networks
		totC += r.Communities
		totIN += r.InferredNetworks
		totIC += r.InferredCommunities
	}
	cells = append(cells, []string{"TOTAL", fmt.Sprintf("%d (%d)", totN, totIN), fmt.Sprintf("%d (%d)", totC, totIC)})
	return FormatTable(header, cells)
}

// Table3Row is one dataset row of the blackhole visibility overview.
type Table3Row struct {
	Source          string
	Providers       int
	UniqueProviders int
	Users           int
	UniqueUsers     int
	Prefixes        int
	UniquePrefixes  int
	DirectFeedFrac  float64
}

// Table3 computes the per-source blackhole visibility overview (Table 3)
// from closed events. A platform is credited only with the providers and
// users its own observations evidenced. The direct-feed column is the
// static deployment property the paper uses — the fraction of a
// platform's visible providers that maintain a BGP session with one of
// its collectors — when deploy is non-nil; otherwise it falls back to
// the per-event DirectProviders evidence.
func Table3(events []*core.Event, deploy *collector.Deployment) []Table3Row {
	p := NewTable3Partial(deploy)
	for _, ev := range events {
		p.Observe(ev)
	}
	return p.Finalize()
}

// FormatTable3 renders Table 3.
func FormatTable3(rows []Table3Row) string {
	header := []string{"Source", "#Bh providers", "#Unique", "#Bh users", "#Unique", "#Bh prefixes", "#Unique", "Direct feeds"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Source,
			fmt.Sprint(r.Providers), fmt.Sprint(r.UniqueProviders),
			fmt.Sprint(r.Users), fmt.Sprint(r.UniqueUsers),
			fmt.Sprint(r.Prefixes), fmt.Sprint(r.UniquePrefixes),
			fmt.Sprintf("%.1f%%", r.DirectFeedFrac*100),
		})
	}
	return FormatTable(header, cells)
}

// Table4Row is one provider-type row of the visibility table.
type Table4Row struct {
	Type           topology.Kind
	Providers      int
	Users          int
	Prefixes       int
	DirectFeedFrac float64
}

// Table4 groups blackhole visibility by provider network type (IXP
// providers form their own class). When deploy is non-nil the
// direct-feed column uses the static deployment sessions.
func Table4(events []*core.Event, topo *topology.Topology, deploy *collector.Deployment) []Table4Row {
	p := NewTable4Partial(topo, deploy)
	for _, ev := range events {
		p.Observe(ev)
	}
	return p.Finalize()
}

// FormatTable4 renders Table 4.
func FormatTable4(rows []Table4Row) string {
	header := []string{"Network Type", "#Bh prov.", "#Bh users", "#Bh pref.", "Direct feed"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Type.String(),
			fmt.Sprint(r.Providers), fmt.Sprint(r.Users), fmt.Sprint(r.Prefixes),
			fmt.Sprintf("%.0f%%", r.DirectFeedFrac*100),
		})
	}
	return FormatTable(header, cells)
}
