// lookingglass is a historical blackholing looking glass: it persists a
// replay window into the event store once, then answers the questions a
// public looking glass (or the paper's longitudinal analysis) asks —
// from the store's indexes, in microseconds, without replaying BGP data:
//
//   - point lookup: has this address ever been blackholed, when, by whom
//     (longest-prefix-match over the patricia trie), each hit annotated
//     with its legitimacy — RPKI validity of the victim prefix at the
//     inferred origins and the documentation status of the matched
//     communities (Query.Enrich through the world's annotator);
//   - aggregate sweep: every blackholed more-specific inside a /8
//     (covered-prefix query);
//   - per-origin history: all events for one blackholing user ASN.
//
// It closes with the §5.2 Cogent case: blackholing triggered through an
// out-of-band customer portal never appears in any BGP feed — so it is
// absent from the store too — but a looking glass inside the provider
// reveals the null route.
//
//	go run ./examples/lookingglass
package main

import (
	"cmp"
	"context"
	"fmt"
	"log"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"bgpblackholing"
)

func main() {
	p, err := bgpblackholing.NewPipeline(bgpblackholing.SmallOptions())
	if err != nil {
		log.Fatal(err)
	}

	// Ingest once: replay a week through the detector with a store
	// sink. A real deployment does this continuously (bhserve -store).
	dir := filepath.Join(os.TempDir(), "bhstore-lookingglass")
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	st, err := bgpblackholing.OpenStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	det := p.NewDetector()
	wait := det.SinkToStore(st)
	day := 843
	res, err := det.Run(context.Background(), p.Replay(day, day+7))
	if err != nil {
		log.Fatal(err)
	}
	if err := wait(); err != nil {
		log.Fatal(err)
	}
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}
	if len(res.Events) == 0 {
		log.Fatalf("replay days [%d,%d) closed no events; widen the window", day, day+7)
	}
	fmt.Printf("ingested %d events from replay days [%d,%d) into %s\n\n",
		len(res.Events), day, day+7, filepath.Base(dir))
	// The subject is the median event by (start, end, prefix), a key the
	// order events close in cannot move.
	subject := slices.SortedFunc(slices.Values(res.Events), func(a, b *bgpblackholing.Event) int {
		return cmp.Or(a.Start.Compare(b.Start), a.End.Compare(b.End), strings.Compare(a.Prefix.String(), b.Prefix.String()))
	})[len(res.Events)/2]

	// Query-many: reopen read-only, as a looking-glass frontend would.
	glass, err := bgpblackholing.OpenStoreReadOnly(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer glass.Close()
	// The world's ROA registry and dictionary power per-event
	// legitimacy annotation on enriched queries.
	glass.SetAnnotator(p.Annotator())
	stats := glass.Stats()
	fmt.Printf("store: %d events, %d distinct prefixes, %d segments, span %s – %s\n\n",
		stats.Events, stats.Prefixes, stats.Segments,
		stats.MinStart.Format("2006-01-02"), stats.MaxEnd.Format("2006-01-02"))

	// 1. Point lookup: was this address blackholed? (LPM, enriched with
	// the legitimacy verdict per hit.)
	victim := subject.Prefix.Addr()
	qr := glass.Query(bgpblackholing.Query{
		Prefix: netip.PrefixFrom(victim, victim.BitLen()),
		Mode:   bgpblackholing.PrefixLPM,
		Enrich: true,
	})
	fmt.Printf("LPM lookup %s: %d events (scanned %d candidates)\n", victim, qr.Total, qr.Scanned)
	fmt.Fprintf(os.Stderr, "LPM lookup in %s\n", qr.Elapsed) // timings vary: stdout stays reproducible
	for i, ev := range qr.Events {
		ann := qr.Annotations[i]
		fmt.Printf("  %s  %s – %s  via %v  rpki=%s legitimacy=%s\n", ev.Prefix,
			ev.Start.Format("2006-01-02 15:04"), ev.End.Format("2006-01-02 15:04"), ev.Providers,
			ann.RPKISummary(), ann.Legitimacy)
		for _, reason := range ann.Reasons {
			fmt.Printf("    ! %s\n", reason)
		}
	}

	// 2. Aggregate sweep: every blackholed more-specific inside the
	// victim's /8 (covered-prefix query over the trie).
	slash8 := netip.PrefixFrom(victim, 8)
	qr = glass.Query(bgpblackholing.Query{Prefix: slash8, Mode: bgpblackholing.PrefixCovered})
	fmt.Printf("\ncovered sweep %s: %d events on more-specifics\n", slash8.Masked(), qr.Total)
	fmt.Fprintf(os.Stderr, "covered sweep in %s\n", qr.Elapsed)

	// 3. Per-origin history: the blackholing user's full record.
	var user bgpblackholing.ASN
	for _, u := range subject.Users {
		user = u
		break
	}
	if user != 0 {
		qr = glass.Query(bgpblackholing.Query{OriginASN: user})
		fmt.Printf("per-origin history AS%d: %d events\n", user, qr.Total)
		fmt.Fprintf(os.Stderr, "per-origin history in %s\n", qr.Elapsed)
	}

	// The §5.2 portal case: a provider null-routes a prefix with no BGP
	// announcement at all — invisible to collectors, and therefore to
	// the store.
	glasses := bgpblackholing.DeployLookingGlasses(p.Topo)
	provider := p.Topo.BlackholingProviders()[0]
	hidden := netip.MustParsePrefix("198.41.128.4/32")
	glasses.RecordBlackhole(provider.ASN, hidden,
		[]bgpblackholing.Community{provider.Blackholing.Communities[0]})

	qr = glass.Query(bgpblackholing.Query{Prefix: hidden, Mode: bgpblackholing.PrefixExact})
	fmt.Printf("\nportal-blackholed %s in the BGP-derived store: %d events\n", hidden, qr.Total)
	g := glasses.Glass(provider.ASN)
	ann := p.Annotator()
	for _, e := range g.QueryPrefix(hidden) {
		if !e.Blackholed {
			continue
		}
		// Even an out-of-band null route gets the legitimacy treatment:
		// annotate a synthetic event carrying what the glass shows —
		// the prefix and the trigger community.
		verdict := ann.Annotate(&bgpblackholing.Event{
			Prefix:      e.Prefix,
			Communities: []bgpblackholing.Community{e.Communities[0]},
		})
		fmt.Printf("looking glass inside AS%d: %s -> next-hop %s (null route, community %s, legitimacy=%s)\n",
			provider.ASN, e.Prefix, e.NextHop, e.Communities[0], verdict.Legitimacy)
	}
}
