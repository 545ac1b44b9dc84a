// Command bhquery answers longitudinal blackholing queries from a
// persistent event store — either by opening a store directory
// read-only, or by talking to a running bhserve's HTTP API. No BGP
// data is replayed: answers come from the store's indexes.
//
//	bhquery -store ./bhstore                          # all events, table
//	bhquery -store ./bhstore -prefix 10.1.2.3 -mode lpm
//	bhquery -store ./bhstore -prefix 10.1.0.0/16 -mode covered -format csv
//	bhquery -store ./bhstore -origin 65001 -min-duration 1h
//	bhquery -store ./bhstore -community 3356:9999 -from 2015-03-01T00:00:00Z
//	bhquery -store ./bhstore -stats
//	bhquery -store ./bhstore -figure4 -every 30
//	bhquery -store ./bhstore -figure8 -group-timeout 5m
//	bhquery -server http://127.0.0.1:8080 -provider AS3356 -format ndjson
//
// A comma-separated -server list federates the servers client-side:
// every server is queried concurrently and the answers merge in global
// event order, exactly as a bhroute router would serve them —
//
//	bhquery -server http://shard-a:8080,http://shard-b:8080,http://shard-c:8080 -origin 65001
//
// With -enrich every returned event carries its legitimacy view — RPKI
// validity per inferred origin, documentation status per matched
// community, and a combined verdict (legitimate | questionable |
// illegitimate). Direct -store mode rebuilds the deployment's registry
// and dictionary deterministically from -scale/-seed (match the values
// the store was ingested with); -server mode asks the server, which
// annotates from its own world:
//
//	bhquery -store ./bhstore -enrich -scale 0.15 -seed 42 -prefix 10.1.2.3 -mode lpm
//	bhquery -server http://127.0.0.1:8080 -enrich -origin 65001
//
// Admin verbs (they open the store read-write, so stop any writer
// first — stores are single-writer):
//
//	bhquery -store ./bhstore -delete-prefix 10.2.0.0/16              # GDPR-style erasure
//	bhquery -store ./bhstore -delete-prefix 10.2.0.0/16 -delete-up-to 2016-01-01T00:00:00Z
//	bhquery -store ./bhstore -compact tiered,partition=30d,ratio=4,min-run=4
//	bhquery -store ./bhstore -replicate-to /var/bh/replicas/a        # ship segments to a read replica
//
// A deleted prefix disappears from queries immediately; its bytes
// leave the disk at the next compaction of its partition (run -compact
// to force one).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"bgpblackholing"
)

func main() {
	var c config
	flags(flag.CommandLine, &c)
	flag.Parse()
	if err := run(os.Stdout, os.Stderr, &c); err != nil {
		fmt.Fprintln(os.Stderr, "bhquery:", err)
		os.Exit(1)
	}
}

// flags defines bhquery's flags on fs, each setting its field of c.
func flags(fs *flag.FlagSet, c *config) {
	fs.StringVar(&c.storeDir, "store", "", "open this store directory (read-only)")
	fs.StringVar(&c.server, "server", "", "query a running bhserve/bhroute at this base URL instead; a comma-separated list federates the servers client-side, merging answers in global event order")

	fs.StringVar(&c.from, "from", "", "events overlapping at/after this RFC 3339 time")
	fs.StringVar(&c.to, "to", "", "events overlapping at/before this RFC 3339 time")
	fs.StringVar(&c.prefix, "prefix", "", "IP prefix or address to match")
	fs.StringVar(&c.mode, "mode", "exact", "prefix match mode: exact, lpm, covered, covering")
	fs.StringVar(&c.origin, "origin", "", "blackholing user (origin) ASN, base 10")
	fs.StringVar(&c.provider, "provider", "", "provider (AS3356 or ixp:4)")
	fs.StringVar(&c.community, "community", "", "dictionary community (high:low)")
	fs.StringVar(&c.minDur, "min-duration", "", "minimum event duration")
	fs.StringVar(&c.maxDur, "max-duration", "", "maximum event duration")
	fs.StringVar(&c.limit, "limit", "0", "cap returned events (0 = all)")

	fs.StringVar(&c.format, "format", "table", "output: table, json, ndjson, csv")
	fs.BoolVar(&c.stats, "stats", false, "print store statistics instead of events")
	fs.BoolVar(&c.figure4, "figure4", false, "print the daily longitudinal series (Figure 4)")
	fs.IntVar(&c.every, "every", 30, "sample the figure4 series every N days")
	fs.BoolVar(&c.figure8, "figure8", false, "print the duration distribution summary (Figure 8)")
	fs.DurationVar(&c.groupTO, "group-timeout", bgpblackholing.DefaultGroupTimeout, "event-grouping timeout for -figure8 (must be positive)")

	fs.BoolVar(&c.enrich, "enrich", false, "annotate events with RPKI validity, community documentation and a legitimacy verdict")
	fs.Float64Var(&c.scale, "scale", 0.15, "world scale for -enrich in direct -store mode (must match ingestion)")
	fs.Int64Var(&c.seed, "seed", 42, "world seed for -enrich in direct -store mode (must match ingestion)")

	fs.StringVar(&c.deletePrefix, "delete-prefix", "", "admin: erase this prefix's history (opens the store read-write)")
	fs.StringVar(&c.deleteUpTo, "delete-up-to", "", "admin: bound -delete-prefix to events ending at/before this RFC 3339 time")
	fs.StringVar(&c.compact, "compact", "", "admin: run a compaction pass (merge-all, or tiered[,partition=30d,ratio=4,min-run=4])")
	fs.StringVar(&c.replicateTo, "replicate-to", "", "admin: one-shot sync the -store directory into this replica directory (sealed segments + sidecars; re-run to catch up)")

	fs.BoolVar(&c.watch, "watch", false, "stream live alerts from the server's /watch SSE endpoint (requires -server)")
	fs.BoolVar(&c.metrics, "metrics", false, "scrape the server's /metrics Prometheus exposition to stdout (requires -server)")
	fs.StringVar(&c.authToken, "auth-token", "", "bearer token for -server requests")
	fs.Func("rule", "filter -watch to this rule (repeatable; default all rules)", func(v string) error {
		c.watchRules = append(c.watchRules, v)
		return nil
	})
}

type config struct {
	storeDir, server string

	// The query flags keep their text: query reads them as the /events
	// parameters they stand for.
	from, to, prefix, mode, origin, provider, community string
	minDur, maxDur, limit                               string

	format         string
	stats, figure4 bool
	every          int
	figure8        bool
	groupTO        time.Duration
	enrich         bool
	scale          float64
	seed           int64

	deletePrefix, deleteUpTo, compact string
	replicateTo                       string

	watch      bool
	watchRules []string
	metrics    bool
	authToken  string
}

func run(stdout, stderr io.Writer, c *config) error {
	if (c.storeDir == "") == (c.server == "") {
		return fmt.Errorf("exactly one of -store or -server is required")
	}
	if c.deleteUpTo != "" && c.deletePrefix == "" {
		return fmt.Errorf("-delete-up-to requires -delete-prefix")
	}
	// A non-positive grouping timeout would silently merge nothing (or
	// everything) in core.Group.
	if c.figure8 && c.groupTO <= 0 {
		return fmt.Errorf("-group-timeout: grouping timeout must be positive, got %v", c.groupTO)
	}
	if c.deletePrefix != "" || c.compact != "" || c.replicateTo != "" {
		if c.server != "" {
			return fmt.Errorf("admin verbs need direct store access; use -store, not -server")
		}
		return runAdmin(stdout, c)
	}
	figure8 := c.figure8 && !c.stats && !c.figure4 // -stats and -figure4 win, as they always have
	var rb *bgpblackholing.RemoteBackend
	if c.watch || c.metrics || figure8 && c.server != "" {
		var err error
		if rb, err = oneServer(c); err != nil {
			return err
		}
	}
	switch {
	case c.watch:
		return runWatch(stdout, stderr, c, rb)
	case c.metrics:
		resp, err := rb.Get(context.Background(), "/metrics", nil, nil)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, err = io.Copy(stdout, resp.Body)
		return err
	case figure8:
		return runFigure8(stdout, c, rb)
	}
	be, err := openBackend(c)
	if err != nil {
		return err
	}
	defer be.Close()
	return runQuery(context.Background(), stdout, stderr, c, be)
}

// splitServers splits the comma-separated -server list.
func splitServers(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, strings.TrimSuffix(part, "/"))
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Admin verbs: tombstone a prefix's history, force a compaction pass.

func runAdmin(stdout io.Writer, c *config) error {
	if c.deletePrefix != "" || c.compact != "" {
		if err := runWriteAdmin(stdout, c); err != nil {
			return err
		}
	}
	// Replication runs last, so a same-invocation compaction's output is
	// what ships. It never opens the store: a replica pass is plain file
	// sync over the CRC-framed segments, safe against a live writer.
	if c.replicateTo != "" {
		rep, err := bgpblackholing.ReplicateStore(c.storeDir, c.replicateTo)
		if err != nil {
			return fmt.Errorf("-replicate-to: %w", err)
		}
		fmt.Fprintf(stdout, "bhquery: replicated %s -> %s: %d files copied (%d bytes), %d unchanged, %d retired\n",
			c.storeDir, c.replicateTo, len(rep.Copied), rep.Bytes, rep.Skipped, len(rep.Deleted))
	}
	return nil
}

// runWriteAdmin handles the verbs that open the store read-write.
func runWriteAdmin(stdout io.Writer, c *config) error {
	st, err := bgpblackholing.OpenStore(c.storeDir)
	if err != nil {
		return err
	}
	defer st.Close()

	if c.deletePrefix != "" {
		del, err := bgpblackholing.ParseQuery(url.Values{"prefix": {c.deletePrefix}})
		if err != nil {
			return fmt.Errorf("-delete-prefix: %v", err)
		}
		p := del.Prefix
		var upTo time.Time
		if c.deleteUpTo != "" {
			if upTo, err = time.Parse(time.RFC3339, c.deleteUpTo); err != nil {
				return fmt.Errorf("-delete-up-to: %v", err)
			}
		}
		n, err := st.DeletePrefix(p, upTo)
		if err != nil {
			return err
		}
		if err := st.Sync(); err != nil {
			return err
		}
		bound := "its whole history"
		if !upTo.IsZero() {
			bound = "events ending at/before " + upTo.UTC().Format(time.RFC3339)
		}
		fmt.Fprintf(stdout, "bhquery: erased %d events under %s (%s); bytes leave the disk at the partition's next compaction\n", n, p, bound)
	}

	if c.compact != "" {
		pol, err := bgpblackholing.ParseCompactionPolicy(c.compact)
		if err != nil {
			return err
		}
		stats, err := st.Compact(pol)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "bhquery: compacted %d -> %d segments across %d partitions: %d duplicates dropped, %d dead records erased, merged %v, skipped %v\n",
			stats.SegmentsBefore, stats.SegmentsAfter, stats.Partitions,
			stats.Dropped, stats.Erased, stats.Merged, stats.Skipped)
	}
	return nil
}

// ---------------------------------------------------------------------
// The read path: flags → ParseQuery → Backend → records | lines → bytes.

// openBackend picks the Backend the flags name: the store directory
// opened read-only, one server, or a client-side federation of a server
// list — the same merge core bhroute serves, so per-server answers
// interleave in global event order, totals sum, and a down server
// degrades the answer (with a warning) instead of failing it.
func openBackend(c *config) (bgpblackholing.Backend, error) {
	if c.storeDir != "" {
		st, err := bgpblackholing.OpenStoreReadOnly(c.storeDir)
		if err != nil {
			return nil, err
		}
		// -enrich needs the world's registry and dictionary; rebuild them
		// deterministically the way bhserve does at startup.
		var p *bgpblackholing.Pipeline
		if c.enrich {
			p, err = bgpblackholing.NewPipeline(bgpblackholing.Options{
				Seed: c.seed, TopoScale: c.scale, CollectorScale: c.scale, EventScale: c.scale, Days: 850,
			})
			if err != nil {
				st.Close()
				return nil, fmt.Errorf("-enrich: building the world: %w", err)
			}
		}
		return bgpblackholing.NewStoreBackend(st, p), nil
	}
	var backends []bgpblackholing.Backend
	for _, base := range splitServers(c.server) {
		b, err := bgpblackholing.NewRemoteBackend([]string{base}, bgpblackholing.RemoteOptions{
			AuthToken: c.authToken,
		})
		if err != nil {
			return nil, err
		}
		backends = append(backends, b)
	}
	switch len(backends) {
	case 0:
		return nil, fmt.Errorf("-server: no server in %q", c.server)
	case 1:
		return backends[0], nil
	}
	return bgpblackholing.NewFederatedStore(backends...), nil
}

// runQuery answers -stats, -figure4 or an events query from be and
// renders it. The answer's bytes do not depend on which Backend be is.
func runQuery(ctx context.Context, stdout, stderr io.Writer, c *config, be bgpblackholing.Backend) error {
	if c.stats || c.figure4 {
		stats, err := be.Stats(ctx)
		if err != nil {
			return err
		}
		if c.stats {
			return printJSON(stdout, stats)
		}
		if stats.Events == 0 {
			fmt.Fprintln(stdout, "(empty store)")
			return nil
		}
		start := stats.MinStart.UTC().Truncate(24 * time.Hour)
		days := int(stats.MaxEnd.Sub(start).Hours()/24) + 1
		res, err := be.Figure4(ctx, start, days)
		if err != nil {
			return err
		}
		warnShardsFailed(stderr, res.ShardsFailed)
		_, err = fmt.Fprint(stdout, bgpblackholing.FormatFigure4(res.Series, c.every))
		return err
	}

	q, err := c.query()
	if err != nil {
		return err
	}
	if c.format != "ndjson" && q.Limit <= 0 {
		q.Limit = 1 << 30 // every match, counted
	}
	began := time.Now()
	stream, err := be.RecordLines(ctx, q)
	if err != nil {
		return err
	}
	defer stream.Close()
	warnShardsFailed(stderr, stream.ShardsFailed)
	if c.format == "ndjson" {
		w := bufio.NewWriter(stdout)
		for rl, err := stream.Next(); err == nil; rl, err = stream.Next() {
			w.Write(rl.Line)
			w.WriteByte('\n')
		}
		return w.Flush()
	}
	// A backend answers in encoded lines; the renderers read fields.
	records := []*bgpblackholing.EventRecord{}
	for rl, err := stream.Next(); err != io.EOF; rl, err = stream.Next() {
		if err != nil {
			return err
		}
		rec := new(bgpblackholing.EventRecord)
		if err := json.Unmarshal(rl.Line, rec); err != nil {
			return fmt.Errorf("record %d: %v", len(records), err)
		}
		records = append(records, rec)
	}
	total, scanned := stream.Counts()
	fmt.Fprintf(stderr, "bhquery: %d matches (%d returned), %d candidates scanned, %s\n",
		total, len(records), scanned, time.Since(began))
	return render(stdout, c.format, c.enrich, records)
}

// query reads the query flags as the /events parameters they stand for,
// through the API's own reader: a flag means what its parameter means.
func (c *config) query() (bgpblackholing.Query, error) {
	return bgpblackholing.ParseQuery(url.Values{
		"from": {c.from}, "to": {c.to}, "prefix": {c.prefix}, "mode": {c.mode},
		"origin": {c.origin}, "provider": {c.provider}, "community": {c.community},
		"min_duration": {c.minDur}, "max_duration": {c.maxDur}, "limit": {c.limit},
		"enrich": {strconv.FormatBool(c.enrich)},
	})
}

// oneServer is the client of the one -server that -watch, -metrics and
// -figure8 read: their answers do not merge across servers.
func oneServer(c *config) (*bgpblackholing.RemoteBackend, error) {
	servers := splitServers(c.server)
	if len(servers) != 1 {
		return nil, fmt.Errorf("-watch, -metrics and -figure8 need a single -server; their answers do not merge across servers")
	}
	return bgpblackholing.NewRemoteBackend(servers, bgpblackholing.RemoteOptions{AuthToken: c.authToken})
}

// runFigure8 prints the duration distribution summary. Durations
// cannot merge from counted answers, so it needs the store itself or
// the one server holding it, rb.
func runFigure8(stdout io.Writer, c *config, rb *bgpblackholing.RemoteBackend) error {
	var n struct {
		Ungrouped int `json:"ungrouped_events"`
		Grouped   int `json:"grouped_periods"`
	}
	if rb != nil {
		resp, err := rb.Get(context.Background(), "/figure8", url.Values{"timeout": {c.groupTO.String()}}, nil)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&n); err != nil {
			return fmt.Errorf("figure8 answer: %v", err)
		}
	} else {
		st, err := bgpblackholing.OpenStoreReadOnly(c.storeDir)
		if err != nil {
			return err
		}
		defer st.Close()
		ungrouped, grouped, err := st.Figure8(context.Background(), c.groupTO)
		if err != nil {
			return err
		}
		n.Ungrouped, n.Grouped = len(ungrouped), len(grouped)
	}
	_, err := fmt.Fprintf(stdout, "figure8: %d events group into %d periods at timeout %v\n",
		n.Ungrouped, n.Grouped, c.groupTO)
	return err
}

func warnShardsFailed(stderr io.Writer, failed int) {
	if failed > 0 {
		fmt.Fprintf(stderr, "bhquery: warning: %d server(s) failed to answer; results are partial\n", failed)
	}
}

// ---------------------------------------------------------------------
// Rendering.

func render(w io.Writer, format string, enriched bool, records []*bgpblackholing.EventRecord) error {
	switch format {
	case "json":
		return printJSON(w, records)
	case "csv":
		header := "prefix,start,end,duration_seconds,providers,users,communities,platforms,detections"
		if enriched {
			header += ",rpki,legitimacy"
		}
		fmt.Fprintln(w, header)
		for _, r := range records {
			var users []string
			for _, u := range r.Users {
				users = append(users, fmt.Sprint(u))
			}
			fmt.Fprintf(w, "%s,%s,%s,%.0f,%s,%s,%s,%s,%d",
				r.Prefix, r.Start.Format(time.RFC3339), r.End.Format(time.RFC3339),
				r.DurationSeconds,
				strings.Join(r.Providers, ";"), strings.Join(users, ";"),
				strings.Join(r.Communities, ";"), strings.Join(r.Platforms, ";"),
				r.Detections)
			if enriched {
				fmt.Fprintf(w, ",%s,%s", rpkiColumn(r), r.Legitimacy)
			}
			fmt.Fprintln(w)
		}
		return nil
	case "table":
		if enriched {
			fmt.Fprintf(w, "%-20s %-20s %-12s %-28s %-6s %-10s %-14s %s\n",
				"PREFIX", "START", "DURATION", "PROVIDERS", "USERS", "RPKI", "LEGITIMACY", "PLATFORMS")
		} else {
			fmt.Fprintf(w, "%-20s %-20s %-12s %-28s %-6s %s\n",
				"PREFIX", "START", "DURATION", "PROVIDERS", "USERS", "PLATFORMS")
		}
		for _, r := range records {
			dur := (time.Duration(r.DurationSeconds) * time.Second).String()
			if r.StartUnknown {
				dur = ">" + dur
			}
			provs := strings.Join(r.Providers, ",")
			if len(provs) > 27 {
				provs = provs[:24] + "..."
			}
			if enriched {
				fmt.Fprintf(w, "%-20s %-20s %-12s %-28s %-6d %-10s %-14s %s\n",
					r.Prefix, r.Start.Format("2006-01-02T15:04:05Z"), dur,
					provs, len(r.Users), rpkiColumn(r), r.Legitimacy,
					strings.Join(r.Platforms, ","))
			} else {
				fmt.Fprintf(w, "%-20s %-20s %-12s %-28s %-6d %s\n",
					r.Prefix, r.Start.Format("2006-01-02T15:04:05Z"), dur,
					provs, len(r.Users), strings.Join(r.Platforms, ","))
			}
		}
		return nil
	}
	return fmt.Errorf("unknown format %q (want table, json, ndjson or csv)", format)
}

// rpkiColumn renders a record's folded RPKI state, "-" when the record
// carries no RPKI section.
func rpkiColumn(r *bgpblackholing.EventRecord) string {
	if len(r.RPKI) == 0 {
		return "-"
	}
	return bgpblackholing.SummarizeRPKI(r.RPKI)
}

func printJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
