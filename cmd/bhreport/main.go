// Command bhreport runs the full reproduction end to end and prints
// every table and figure of the paper's evaluation: the dataset overview
// (Table 1), the communities dictionary (Table 2), blackhole visibility
// (Tables 3-4), the community prefix-length profile (Figure 2), the
// longitudinal growth series (Figure 4), prefix CDFs (Figure 5), country
// distributions (Figure 6), services / providers-per-event / AS-distance
// (Figure 7), durations (Figure 8) and data-plane efficacy (Figure 9).
//
// Usage:
//
//	bhreport [-scale 0.2] [-events 0.3] [-seed 42] [-full]
//
// -full replays the entire Dec 2014 – Mar 2017 timeline for Figure 4;
// otherwise only the Aug 2016 – Mar 2017 analysis window runs.
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"bgpblackholing"
)

func main() {
	var (
		scale  = flag.Float64("scale", 0.2, "world scale (1.0 = paper scale)")
		events = flag.Float64("events", 0.3, "event volume scale")
		seed   = flag.Int64("seed", 42, "deterministic seed")
		full   = flag.Bool("full", false, "replay the full Dec 2014 - Mar 2017 timeline")
		csvDir = flag.String("csv", "", "also write plottable CSVs for the figure series into this directory")
	)
	flag.Parse()
	if err := run(os.Stdout, *scale, *events, *seed, *full, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "bhreport:", err)
		os.Exit(1)
	}
}

// writeCSVs exports the figure series for plotting.
func writeCSVs(dir string, res *bgpblackholing.RunResult, full bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type csvFile struct {
		name  string
		write func(w io.Writer) error
	}
	var files []csvFile
	if full {
		series := bgpblackholing.Figure4(res.Events, bgpblackholing.TimelineStart, 850)
		files = append(files, csvFile{"figure4_daily.csv", func(w io.Writer) error { return bgpblackholing.WriteFigure4CSV(w, series) }})
	}
	ungrouped, grouped := bgpblackholing.Figure8(res.Events, bgpblackholing.DefaultGroupTimeout)
	files = append(files,
		csvFile{"figure8_durations.csv", func(w io.Writer) error { return bgpblackholing.WriteDurationsCSV(w, ungrouped, grouped) }},
		csvFile{"figure7b_providers_per_event.csv", func(w io.Writer) error {
			return bgpblackholing.WriteHistogramCSV(w, "providers", bgpblackholing.Figure7b(res.Events))
		}},
		csvFile{"figure7c_as_distance.csv", func(w io.Writer) error {
			return bgpblackholing.WriteHistogramCSV(w, "distance", bgpblackholing.Figure7c(res.Events))
		}},
		csvFile{"events.csv", func(w io.Writer) error { return bgpblackholing.WriteEventsCSV(w, res.Events) }})
	for _, f := range files {
		fh, err := os.Create(filepath.Join(dir, f.name))
		if err != nil {
			return err
		}
		err = f.write(fh)
		if cerr := fh.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// run renders the whole report through one buffered writer; bufio keeps
// the first write error and Flush returns it, so a full disk or a closed
// pipe fails the run instead of passing silently.
func run(out io.Writer, scale, events float64, seed int64, full bool, csvDir string) error {
	w := bufio.NewWriterSize(out, 64<<10)
	opts := bgpblackholing.Options{
		Seed: seed, TopoScale: scale, CollectorScale: scale,
		EventScale: events, Days: 850,
	}
	p, err := bgpblackholing.NewPipeline(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "world: %d ASes, %d IXPs, %d blackholing providers (+%d IXPs), dictionary: %d communities\n",
		len(p.Topo.Order), len(p.Topo.IXPs),
		len(p.Topo.BlackholingProviders()), len(p.Topo.BlackholingIXPs()),
		len(p.Dict.Entries()))

	from, to := 640, 850
	if full {
		from = 0
	}
	fmt.Fprintf(w, "replaying timeline days [%d,%d)...\n", from, to)
	res, err := p.NewDetector().Run(context.Background(), p.Replay(from, to))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "inferred %d blackholing events\n", len(res.Events))

	writeSections(w, sections(p, res, seed, full))

	if csvDir != "" {
		if err := writeCSVs(csvDir, res, full); err != nil {
			return fmt.Errorf("write CSVs: %w", err)
		}
		fmt.Fprintf(w, "\nwrote figure CSVs to %s\n", csvDir)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}

// section is one titled part of the report. Its body only reads the
// pipeline and the run's result, so sections render concurrently.
type section struct {
	title string
	body  func(w io.Writer)
}

// writeSections renders each section into its own buffer, at most
// GOMAXPROCS at once, and copies the buffers to w in order; w keeps the
// first write error for run's Flush.
func writeSections(w *bufio.Writer, secs []section) {
	bufs := make([]bytes.Buffer, len(secs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, s := range secs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			fmt.Fprintf(&bufs[i], "\n=== %s ===\n", s.title)
			s.body(&bufs[i])
		}()
	}
	wg.Wait()
	for i := range bufs {
		w.Write(bufs[i].Bytes())
	}
}

// sections lists the report's tables and figures in print order.
func sections(p *bgpblackholing.Pipeline, res *bgpblackholing.RunResult, seed int64, full bool) []section {
	secs := []section{
		{"Table 1: BGP dataset overview (March 2017)", func(w io.Writer) { fmt.Fprint(w, bgpblackholing.FormatTable1(p.Table1())) }},
		{"Table 2: blackhole communities dictionary", func(w io.Writer) { fmt.Fprint(w, bgpblackholing.FormatTable2(p.Table2(res.InferStats))) }},
		{"Table 3: blackhole dataset overview", func(w io.Writer) { fmt.Fprint(w, bgpblackholing.FormatTable3(p.Table3(res.Events))) }},
		{"Table 4: blackhole visibility by provider type", func(w io.Writer) { fmt.Fprint(w, bgpblackholing.FormatTable4(p.Table4(res.Events))) }},
		{"Figure 2: community prefix-length profile", func(w io.Writer) {
			for _, r := range bgpblackholing.SummarizeFigure2(res.InferStats.Stats, p.Dict) {
				label := "non-blackhole"
				if r.IsBlackhole {
					label = "blackhole"
				}
				fmt.Fprintf(w, "%-14s communities=%-4d mean frac on /32 = %.2f, on <=/24 = %.2f\n",
					label, r.Communities, r.MeanFracAt32, r.MeanFracAtOrPre24)
			}
			fmt.Fprintf(w, "inferred undocumented blackhole communities: %d\n", len(res.InferStats.Inferred))
		}},
	}
	if full {
		secs = append(secs, section{"Figure 4: longitudinal growth (sampled)", func(w io.Writer) {
			fmt.Fprint(w, bgpblackholing.FormatFigure4(bgpblackholing.Figure4(res.Events, bgpblackholing.TimelineStart, 850), 60))
		}})
	}
	return append(secs,
		section{"Figure 5: blackholed prefixes per provider / user type", func(w io.Writer) {
			transit, ixp := bgpblackholing.Figure5a(res.Events, p.Topo)
			tc, xc := bgpblackholing.NewCDFInts(transit), bgpblackholing.NewCDFInts(ixp)
			fmt.Fprintf(w, "transit/access providers: n=%d median=%.0f p90=%.0f max=%.0f\n",
				tc.Len(), tc.Quantile(0.5), tc.Quantile(0.9), tc.Quantile(1))
			fmt.Fprintf(w, "IXPs:                     n=%d median=%.0f p90=%.0f max=%.0f\n",
				xc.Len(), xc.Quantile(0.5), xc.Quantile(0.9), xc.Quantile(1))
			byKind := bgpblackholing.Figure5b(res.Events, p.Topo)
			for _, k := range bgpblackholing.Kinds() {
				if len(byKind[k]) == 0 {
					continue
				}
				c := bgpblackholing.NewCDFInts(byKind[k])
				fmt.Fprintf(w, "users %-22s n=%-5d median=%.0f p90=%.0f\n", k, c.Len(), c.Quantile(0.5), c.Quantile(0.9))
			}
		}},
		section{"Figure 6: per-country distribution", func(w io.Writer) {
			provs, users := bgpblackholing.Figure6(res.Events, p.Topo)
			fmt.Fprint(w, "top provider countries: ")
			for _, c := range bgpblackholing.TopCountries(provs, 6) {
				fmt.Fprintf(w, "%s=%d ", c.Country, c.Count)
			}
			fmt.Fprint(w, "\ntop user countries:     ")
			for _, c := range bgpblackholing.TopCountries(users, 6) {
				fmt.Fprintf(w, "%s=%d ", c.Country, c.Count)
			}
			fmt.Fprintln(w)
		}},
		section{"Figure 7a: services on blackholed prefixes", func(w io.Writer) {
			svcCounts := bgpblackholing.Figure7a(res.Events, seed)
			for _, svc := range []string{"HTTP", "HTTPS", "SSH", "FTP", "Telnet", "DNS", "NTP", "SMTP", "IMAP", "NONE"} {
				fmt.Fprintf(w, "%-7s %d\n", svc, svcCounts[bgpblackholing.Service(svc)])
			}
		}},
		section{"Figure 7b: providers per blackholing event", func(w io.Writer) {
			h := bgpblackholing.Figure7b(res.Events)
			multi := 0.0
			for _, k := range h.Keys() {
				if k > 1 {
					multi += h.Fraction(k)
				}
			}
			fmt.Fprintf(w, "single-provider: %.0f%%  multi-provider: %.0f%%  max: %d\n",
				100*h.Fraction(1), 100*multi, h.Keys()[len(h.Keys())-1])
		}},
		section{"Figure 7c: collector-provider AS distance", func(w io.Writer) {
			hc := bgpblackholing.Figure7c(res.Events)
			for _, k := range hc.Keys() {
				label := fmt.Sprint(k)
				if k == bgpblackholing.NoPath {
					label = "no-path"
				}
				fmt.Fprintf(w, "%-8s %.1f%%\n", label, 100*hc.Fraction(k))
			}
		}},
		section{"Figure 8: blackholing durations", func(w io.Writer) {
			ungrouped, grouped := bgpblackholing.Figure8(res.Events, bgpblackholing.DefaultGroupTimeout)
			cu, cg := bgpblackholing.NewCDFDurations(ungrouped), bgpblackholing.NewCDFDurations(grouped)
			fmt.Fprintf(w, "ungrouped: n=%d  <=1min: %.0f%%\n", cu.Len(), 100*cu.FractionAtOrBelow(60))
			fmt.Fprintf(w, "grouped:   n=%d  <=1min: %.0f%%  >16h: %.0f%%\n",
				cg.Len(), 100*cg.FractionAtOrBelow(60), 100*(1-cg.FractionAtOrBelow(16*3600)))
		}},
		section{"Figure 9a/9b: data-plane efficacy (traceroute campaign)", func(w io.Writer) {
			sim := &bgpblackholing.TraceSimulator{Topo: p.Topo}
			r := rand.New(rand.NewSource(seed))
			var ms []bgpblackholing.PathMeasurement
			n := 0
			for _, pr := range res.LastDayResults {
				if n >= 60 || !pr.Prefix.IsValid() || !pr.Prefix.Addr().Is4() {
					continue
				}
				if len(pr.DroppingASes) == 0 {
					continue
				}
				bh := &bgpblackholing.BlackholeState{
					Prefix: pr.Prefix, DroppingASes: pr.DroppingASes,
					DroppingIXPMembers: pr.DroppingIXPMembers,
				}
				ms = append(ms, sim.MeasureEvent(pr.User, pr.Prefix, bh, r, 4)...)
				n++
			}
			sample := bgpblackholing.Figure9ab(ms)
			ci := bgpblackholing.NewCDFInts(sample.IPDiffs)
			ca := bgpblackholing.NewCDFInts(sample.ASDiffs)
			fmt.Fprintf(w, "paths: n=%d  mean IP shortening=%.1f hops  shorter-during=%.0f%%  mean AS shortening=%.1f\n",
				ci.Len(), ci.Mean(), 100*(1-ci.FractionAtOrBelow(0)), ca.Mean())
		}},
		section{"Figure 9c: IXP traffic to blackholed prefixes (one week)", func(w io.Writer) {
			var x *bgpblackholing.IXP
			for _, cand := range p.Topo.BlackholingIXPs() {
				if x == nil || len(cand.Members) > len(x.Members) {
					x = cand
				}
			}
			if x != nil {
				var victims []bgpblackholing.VictimSpec
				seen := map[netip.Prefix]bool{}
				for _, pr := range res.LastDayResults {
					if drops, ok := pr.DroppingIXPMembers[x.ID]; ok && !seen[pr.Prefix] && len(victims) < 3 {
						seen[pr.Prefix] = true
						victims = append(victims, bgpblackholing.VictimSpec{Prefix: pr.Prefix, Honoring: drops})
					}
				}
				start := time.Date(2017, 3, 20, 0, 0, 0, 0, time.UTC)
				series := bgpblackholing.SimulateIXPTraffic(x, victims, start, 7*24*time.Hour, bgpblackholing.DefaultIPFIXConfig())
				for i, s := range series {
					fmt.Fprintf(w, "prefix %-18s drop fraction: %.0f%%\n", victims[i].Prefix, 100*bgpblackholing.DropFraction(s))
				}
			}
		}},
		section{"RFC 7999 / RFC 5635 compliance scorecard (§11)", func(w io.Writer) { fmt.Fprint(w, bgpblackholing.AuditCompliance(res.Events).Format()) }},
		section{"Validation against ground truth (§10 passive validation)", func(w io.Writer) {
			cutoff := res.WindowEnd.AddDate(0, 0, -7)
			var weekEvents []*bgpblackholing.Event
			for _, ev := range res.Events {
				if !ev.Start.Before(cutoff) {
					weekEvents = append(weekEvents, ev)
				}
			}
			v := bgpblackholing.Validate(weekEvents, res.LastDayIntents)
			fmt.Fprintf(w, "last-week intents: %d  detected: %d (recall %.0f%%)\n",
				v.Intents, v.DetectedPrefixOnsets, 100*v.Recall())
			fmt.Fprintf(w, "route-server intents: %d  detected: %d (recall %.0f%%; paper confirms 99.5%% RS visibility)\n",
				v.IXPIntents, v.DetectedIXPIntents, 100*v.IXPRecall())
		}},
	)
}
