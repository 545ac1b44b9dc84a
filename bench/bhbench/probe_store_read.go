package main

// Store, read side: open modes, hydration, the indexed query shapes
// and the materialised aggregates. A small share of shard_* and most
// of a bhserve restart's store part.

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	bh "bgpblackholing"
)

// probeKeys are the read chain's seeded query keys.
type probeKeys struct {
	lpm     []netip.Prefix // host prefixes of event addresses, uniform
	exact   []netip.Prefix // prefixes events really have
	miss    []netip.Prefix // class E hosts: nothing covers them
	covered []netip.Prefix // /12s around event addresses
	windows [][2]time.Time // 30-day spans inside the store's span
}

func makeProbeKeys(in *probeInputs) probeKeys {
	r := rand.New(rand.NewSource(in.traffic))
	events := in.corp.events
	addrs := eventAddrs(events)
	var k probeKeys
	lo, hi := eventSpan(events)
	for i := 0; i < probePoints; i++ {
		a := addrs[r.Intn(len(addrs))]
		k.lpm = append(k.lpm, netip.PrefixFrom(a, a.BitLen()))
		k.exact = append(k.exact, events[r.Intn(len(events))].Prefix)
		m := netip.AddrFrom4([4]byte{240, byte(r.Intn(256)), byte(r.Intn(256)), byte(1 + r.Intn(254))})
		k.miss = append(k.miss, netip.PrefixFrom(m, 32))
	}
	for i := 0; i < 50; i++ {
		block, _ := addrs[r.Intn(len(addrs))].Prefix(12)
		k.covered = append(k.covered, block)
	}
	for i := 0; i < 10; i++ {
		from := lo.Add(time.Duration(r.Int63n(int64(hi.Sub(lo) - fleetWindow))))
		k.windows = append(k.windows, [2]time.Time{from, from.Add(fleetWindow)})
	}
	return k
}

// queryStages is the head of the read chain: the store's own Query for
// each shape, on a fully opened store.
func queryStages(tr *tracer, st *bh.Store, k probeKeys) (windowEvents [][]*bh.Event, err error) {
	hits := 0
	tr.do("store.query_lpm", len(k.lpm), func() {
		for _, p := range k.lpm {
			hits += st.Query(bh.Query{Prefix: p, Mode: bh.PrefixLPM, Limit: pointLimit}).Total
		}
	})
	if hits == 0 {
		return nil, fmt.Errorf("read probe: LPM queries found nothing")
	}
	tr.do("store.query_exact", len(k.exact), func() {
		for _, p := range k.exact {
			st.Query(bh.Query{Prefix: p, Mode: bh.PrefixExact, Limit: pointLimit})
		}
	})
	missed := 0
	tr.do("store.query_miss", len(k.miss), func() {
		for _, p := range k.miss {
			missed += st.Query(bh.Query{Prefix: p, Mode: bh.PrefixLPM, Limit: pointLimit}).Total
		}
	})
	if missed != 0 {
		return nil, fmt.Errorf("read probe: %d events matched class E addresses", missed)
	}
	tr.do("store.query_covered", len(k.covered), func() {
		for _, p := range k.covered {
			st.Query(bh.Query{Prefix: p, Mode: bh.PrefixCovered, Limit: 200})
		}
	})
	n := 0
	tr.do("store.query_window", 0, func() {
		for _, w := range k.windows {
			res := st.Query(bh.Query{From: w[0], To: w[1]})
			windowEvents = append(windowEvents, res.Events)
			n += len(res.Events)
		}
	})
	tr.setOps(n)
	return windowEvents, nil
}

// probeStoreOpen times the two open modes, hydration on first touch,
// and the materialised Figure 4 series.
func probeStoreOpen(tr *tracer, in *probeInputs) error {
	tr.chain = "store-open"
	var err error
	tr.do("store_open.probes", 1, func() {
		const opens = 5
		tr.do("store.open_full", opens, func() {
			for i := 0; i < opens && err == nil; i++ {
				var st *bh.Store
				if st, err = bh.OpenStoreWith(in.corp.single, bh.StoreOptions{ReadOnly: true}); err == nil {
					err = st.Close()
				}
			}
		})
		if err != nil {
			return
		}
		var cold *bh.Store
		tr.do("store.open_cold", opens, func() {
			for i := 0; i < opens && err == nil; i++ {
				if cold != nil {
					err = cold.Close()
				}
				if err == nil {
					cold, err = bh.OpenStoreWith(in.corp.single, bh.StoreOptions{ReadOnly: true, ColdOpen: true, Mmap: true})
				}
			}
		})
		if err != nil {
			return
		}
		defer cold.Close()
		opened := cold.Stats()
		tr.do("store.open_cold_decoded", opened.OpenDecodedEvents, func() {})
		// One unfiltered query touches, and so hydrates, every cold segment.
		tr.do("store.hydrate", opened.SegmentsCold, func() { cold.Query(bh.Query{Limit: 1}) })
		start := opened.MinStart.UTC().Truncate(24 * time.Hour)
		days := int(opened.MaxEnd.Sub(start).Hours()/24) + 1
		const series = 20
		tr.do("store.figure4_materialized", series, func() {
			for i := 0; i < series; i++ {
				cold.Figure4(start, days)
			}
		})
	})
	return err
}
