package main

// Set-up inputs built through the library: populated stores for the
// query workloads and the update feed for the live one. The timed
// phases never call these; they talk to the binaries only.

import (
	"context"
	"fmt"
	"io"
	"net/netip"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	bh "bgpblackholing"
	"bgpblackholing/internal/bgp"
)

// The query workloads' store: about ten thousand events over days
// 650–850 in sealed 64 KiB segments with sidecars, so a cold open has
// something to leave cold. The serving world (bhserve -scale) must
// match, or enrichment would annotate against another dictionary.
const (
	queryScale      = 0.1
	queryEventScale = 0.3
	queryFromDay    = 650
	queryToDay      = 850
	querySegment    = 64 << 10
	fleetShardPlan  = "prefix:8:3"
)

// corpus is a populated store fixture.
type corpus struct {
	events []*bh.Event // every stored event, in closing order
	single string      // directory of the store holding everything
	shards []string    // directories of the same events split by fleetShardPlan
}

// buildStores replays the query window once and sinks the events into
// one store and, when sharded, into the three-way split as well, so
// the single store and the fleet hold the same events by construction.
func buildStores(ctx context.Context, seed int64, dir string, sharded bool) (*corpus, error) {
	p, err := bh.NewPipeline(bh.Options{Seed: seed, TopoScale: queryScale, CollectorScale: queryScale,
		EventScale: queryEventScale, Days: 850})
	if err != nil {
		return nil, err
	}
	open := func(name string) (*bh.Store, string, error) {
		path := filepath.Join(dir, name)
		st, err := bh.OpenStoreWith(path, bh.StoreOptions{MaxSegmentBytes: querySegment})
		return st, path, err
	}
	c := &corpus{}
	det := p.NewDetector()
	single, path, err := open("single")
	if err != nil {
		return nil, err
	}
	defer single.Close()
	c.single = path
	waits := []func() error{det.SinkToStore(single)}
	if sharded {
		plan, err := bh.ParseShardPlan(fleetShardPlan)
		if err != nil {
			return nil, err
		}
		stores := make([]*bh.Store, plan.Shards())
		for i := range stores {
			st, path, err := open("shard-" + strconv.Itoa(i))
			if err != nil {
				return nil, err
			}
			defer st.Close()
			stores[i] = st
			c.shards = append(c.shards, path)
		}
		waits = append(waits, det.SinkToShards(plan, stores))
	}
	res, err := det.Run(ctx, p.Replay(queryFromDay, queryToDay))
	if err != nil {
		return nil, err
	}
	for _, wait := range waits {
		if err := wait(); err != nil {
			return nil, err
		}
	}
	if len(res.Events) == 0 {
		return nil, fmt.Errorf("query corpus replay closed no events")
	}
	c.events = res.Events
	return c, nil
}

// eventAddrs returns the distinct event prefix addresses, sorted, as
// the key space point queries draw from.
func eventAddrs(events []*bh.Event) []netip.Addr {
	seen := map[netip.Addr]bool{}
	var out []netip.Addr
	for _, ev := range events {
		if a := ev.Prefix.Addr(); !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// eventSpan returns the earliest start and the latest end.
func eventSpan(events []*bh.Event) (lo, hi time.Time) {
	lo, hi = events[0].Start, events[0].End
	for _, ev := range events {
		if ev.Start.Before(lo) {
			lo = ev.Start
		}
		if ev.End.After(hi) {
			hi = ev.End
		}
	}
	return lo, hi
}

// The live workload's feed: a flash-crowd replay (DDoS waves of short
// ON/OFF episodes) at the serving world's scale.
const (
	liveScale      = 0.2
	liveEventScale = 0.5
	liveDays       = 60
)

// feedUpdate is one update of the live feed with its BGP wire form, so
// that sending it in the timed phase is a socket write and nothing
// else: the generator shares two cores with the server it measures.
type feedUpdate struct {
	update *bh.Update
	wire   []byte // a complete framed UPDATE message
}

// buildFeed materialises the flash-crowd updates in replay order and
// marshals each for the wire.
func buildFeed(ctx context.Context, seed int64) ([]feedUpdate, error) {
	p, err := bh.NewPipeline(bh.Options{Seed: seed, TopoScale: liveScale, CollectorScale: liveScale,
		EventScale: liveEventScale, Workload: "flash-crowd"})
	if err != nil {
		return nil, err
	}
	src := p.Replay(0, liveDays)
	defer src.Close()
	var feed []feedUpdate
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		el, err := src.Next()
		if err == io.EOF {
			return feed, nil
		}
		if err != nil {
			return nil, err
		}
		wire, err := bgp.MarshalUpdate(el.Update)
		if err != nil {
			return nil, err
		}
		feed = append(feed, feedUpdate{el.Update, wire})
	}
}
