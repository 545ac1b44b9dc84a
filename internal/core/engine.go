// Package core implements the paper's primary contribution (§4.2): the
// BGP blackholing inference engine. It classifies BGP updates against a
// blackhole-communities dictionary, resolves ambiguous and bundled
// communities via AS-path and peer-IP checks, tracks blackholing events
// per (prefix, BGP peer) through announcements, explicit withdrawals and
// implicit withdrawals, and correlates the per-peer signals into
// prefix-level events with exact start and end times.
package core

import (
	"cmp"
	"errors"
	"io"
	"maps"
	"net/netip"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/bogon"
	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/dictionary"
	"bgpblackholing/internal/stream"
	"bgpblackholing/internal/topology"
)

// ProviderKind distinguishes AS-level from IXP blackholing providers.
type ProviderKind int

// Provider kinds.
const (
	ProviderAS ProviderKind = iota
	ProviderIXP
)

// ProviderRef identifies one inferred blackholing provider.
type ProviderRef struct {
	Kind ProviderKind
	// ASN is set for AS providers.
	ASN bgp.ASN
	// IXPID is set for IXP providers (Kind == ProviderIXP).
	IXPID int
}

// AppendTo appends the provider's canonical notation — "AS3356",
// "ixp:4" — to b.
func (p ProviderRef) AppendTo(b []byte) []byte {
	if p.Kind == ProviderIXP {
		return strconv.AppendInt(append(b, "ixp:"...), int64(p.IXPID), 10)
	}
	return p.ASN.AppendTo(append(b, "AS"...))
}

// TextLess reports whether p's notation sorts before o's byte by byte:
// "AS…" before "ixp:…", then by number, as ASN.TextLess orders ASNs.
func (p ProviderRef) TextLess(o ProviderRef) bool {
	switch pi, oi := p.Kind == ProviderIXP, o.Kind == ProviderIXP; {
	case pi != oi:
		return oi
	case !pi:
		return p.ASN.TextLess(o.ASN)
	case uint64(p.IXPID) < 1<<32 && uint64(o.IXPID) < 1<<32:
		return bgp.ASN(p.IXPID).TextLess(bgp.ASN(o.IXPID))
	}
	return p.String() < o.String() // a negative IXP id, or one past 32 bits
}

// String renders the provider in its canonical notation.
func (p ProviderRef) String() string {
	var b [24]byte
	return string(p.AppendTo(b[:0]))
}

// NoPath is the AS-distance value recorded when the provider does not
// appear on the AS path at all — the community-bundling case that
// contributes about half the paper's inferences (Fig 7c "No-path").
const NoPath = -1

// ProviderInference is one provider identified on one update, with the
// AS distance between the collector's peer and the provider (0 for IXPs
// where the collector sits at the exchange, 1 when the collector peers
// directly with the provider, NoPath when inferred purely from
// bundling).
type ProviderInference struct {
	Provider   ProviderRef
	User       bgp.ASN
	Community  bgp.Community
	ASDistance int
}

// Detection is one update classified as a blackholing announcement. The
// classification applies to every prefix the update announces.
type Detection struct {
	Time      time.Time
	PeerIP    netip.Addr
	PeerAS    bgp.ASN
	Providers []ProviderInference
}

// Event is one correlated prefix-level blackholing event: the span
// during which at least one BGP peer observed the prefix blackholed.
//
// Every set-valued field is a strictly ascending, duplicate-free slice
// in the canonical order of its member type (ProviderRefCompare; numeric
// ASN, community and platform; netip.Addr.Compare), keyed evidence a
// list of Keyed entries strictly ascending by key, and an empty set is
// nil. That is the one form an event has from the moment it closes to
// the disk and the wire: the engine files each set in order (Peers once,
// at close) in memory shared with other events, capped so an append
// reallocates; the store's decoder refuses anything else, and Check is
// what a boundary handed an event from outside runs.
type Event struct {
	Prefix netip.Prefix
	Start  time.Time
	End    time.Time
	// Seq is the event's position in the engine's global closing order,
	// stamped when the event closes (1, 2, 3, …; 0 means unstamped —
	// an event constructed by hand or decoded from a pre-seq store).
	// Seq alone totally orders a detector lineage's events — End does
	// not, because implicit withdrawals backdate End to the last
	// sighting — so a query router merging per-shard streams compares
	// Seq first to reproduce the exact single-store order.
	Seq uint64
	// StartUnknown marks events seeded from a table dump, whose true
	// start predates monitoring (§4.2 "initial starting time of zero").
	StartUnknown bool
	// Providers aggregates every provider inferred during the event.
	Providers []ProviderRef
	// Users aggregates every inferred blackholing user.
	Users []bgp.ASN
	// Communities aggregates the matched blackhole communities.
	Communities []bgp.Community
	// Platforms records which collection platforms observed the event.
	Platforms []collector.Platform
	// Peers records the observing BGP peers.
	Peers []netip.Addr
	// ProviderDistances records, per provider, the best (smallest)
	// distance at which any collector peer saw the provider on the AS
	// path during the event; NoPath when the provider was only ever
	// inferred from community bundling. Figure 7c counts events by this
	// value.
	ProviderDistances []Keyed[ProviderRef, int]
	// DirectProviders marks providers observed through their own direct
	// collector session (AS providers as the collector peer, IXPs via a
	// route-server session) — Table 3's "direct BGP feed" column.
	DirectProviders []ProviderRef
	// ProvidersByPlatform records which platform's observations
	// evidenced each provider, for the per-source rows of Table 3.
	ProvidersByPlatform []Keyed[collector.Platform, []ProviderRef]
	// UsersByPlatform records which platform's observations evidenced
	// each user.
	UsersByPlatform []Keyed[collector.Platform, []bgp.ASN]
	// ProviderUsers records, per provider, the users inferred to be
	// using it (Table 4 user attribution).
	ProviderUsers []Keyed[ProviderRef, []bgp.ASN]
	// Detections counts classified announcements within the event.
	Detections int
	// DirectFeed is true when any observing peer was itself an inferred
	// provider (Table 3's "direct BGP feed" column).
	DirectFeed bool
	// SawNoExport is true when any classified announcement carried the
	// RFC 1997 NO_EXPORT community, as RFC 7999 requires on blackhole
	// routes (audited by package compliance).
	SawNoExport bool
}

// Duration returns the event length.
func (e *Event) Duration() time.Duration { return e.End.Sub(e.Start) }

// Metrics counts what the engine has processed, for live-deployment
// observability (/stats, /metrics, and bhserve's shutdown summary).
type Metrics struct {
	// UpdatesProcessed counts every consumed update post-cleaning.
	UpdatesProcessed uint64
	// UpdatesCleaned counts updates removed entirely by §3 cleaning.
	UpdatesCleaned uint64
	// Detections counts classified blackholing announcements
	// (per announced prefix).
	Detections uint64
	// ExplicitEnds counts per-peer endings from BGP withdrawals;
	// ImplicitEnds counts endings from untagged re-announcements (§4.2
	// distinguishes the two).
	ExplicitEnds uint64
	ImplicitEnds uint64
	// EventsOpened counts correlated prefix-level events started;
	// EventsOpened−EventsClosed is the currently-active event count.
	EventsOpened uint64
	// EventsClosed counts correlated prefix-level events closed.
	EventsClosed uint64
	// SubscriberDrops counts events discarded from bounded subscriber
	// queues under the drop-oldest slow-consumer policy; the engine
	// itself never drops — the fan-out layer fills this in.
	SubscriberDrops uint64
	// SubscriberEvictions counts subscribers forcibly unsubscribed for
	// falling a full queue bound behind (evict policy).
	SubscriberEvictions uint64
	// UnresolvedIXPRefs counts IXP inferences dropped because the
	// dictionary names an IXP the topology lacks.
	UnresolvedIXPRefs uint64
}

// engineCounters is the atomic backing for Metrics. The engine itself
// is single-goroutine, but Metrics() is called concurrently — by
// /stats handlers and /metrics scrapes while Detector.Run is
// processing — so every counter is an atomic and Metrics() is a
// consistent-enough snapshot without a lock on the hot path.
type engineCounters struct {
	updatesProcessed  atomic.Uint64
	updatesCleaned    atomic.Uint64
	detections        atomic.Uint64
	explicitEnds      atomic.Uint64
	implicitEnds      atomic.Uint64
	eventsOpened      atomic.Uint64
	eventsClosed      atomic.Uint64
	unresolvedIXPRefs atomic.Uint64
}

func (c *engineCounters) snapshot() Metrics {
	return Metrics{
		UpdatesProcessed:  c.updatesProcessed.Load(),
		UpdatesCleaned:    c.updatesCleaned.Load(),
		Detections:        c.detections.Load(),
		ExplicitEnds:      c.explicitEnds.Load(),
		ImplicitEnds:      c.implicitEnds.Load(),
		EventsOpened:      c.eventsOpened.Load(),
		EventsClosed:      c.eventsClosed.Load(),
		UnresolvedIXPRefs: c.unresolvedIXPRefs.Load(),
	}
}

// Engine is the blackholing inference engine.
type Engine struct {
	dict *dictionary.Dictionary
	topo *topology.Topology

	// perPrefix is the one ledger of active blackholing: an entry per
	// prefix with an open event, holding the event and the peers that
	// still see the prefix blackholed. The last peer out (or Flush)
	// closes the event and deletes the entry.
	perPrefix map[netip.Prefix]*prefixState
	// peerIDs numbers peer sessions as first seen; peerAddrs inverts it,
	// byAddr lists the ids in address order and peerRanks inverts that.
	peerIDs   map[netip.Addr]uint32
	peerAddrs []netip.Addr
	byAddr    []uint32
	peerRanks []uint32
	closed    []*Event
	// seq numbers closed events across the engine's whole lifetime —
	// sequential Run calls keep counting, so one detector lineage has
	// one total closing order.
	seq uint64

	// OnEventClose, when non-nil, is invoked synchronously each time a
	// prefix-level event closes — from a withdrawal, an implicit
	// withdrawal, or Flush — before the event is appended to the closed
	// list. It lets callers stream events incrementally instead of
	// polling Events() after Flush. The callback runs on the engine's
	// (single) processing goroutine and must not call back into the
	// engine.
	OnEventClose func(*Event)

	metrics engineCounters
	chunks  chunks // what events' sets and open prefixes' marks are carved from (sets.go)

	// Per-update classification scratch and closeEvent's ranks, reused so
	// the hot path stays allocation-free (an Engine is single-goroutine).
	scratchInfs  []ProviderInference
	scratchFlat  []bgp.ASN
	scratchRanks []uint32
}

// Metrics returns a snapshot of the engine's counters. Safe to call
// concurrently with the processing goroutine.
func (e *Engine) Metrics() Metrics { return e.metrics.snapshot() }

type prefixState struct {
	event Event // one allocation with its state
	// peers marks each peer the event has had, unordered and once, as
	// still seeing the prefix blackholed or not; active counts the former.
	peers  []peerMark
	active int
	// platform and infs are the inputs the event last absorbed.
	platform collector.Platform
	infs     []ProviderInference
}

type peerMark struct {
	id     uint32
	active bool
}

// peerID returns addr's number, filing a new peer in byAddr.
func (e *Engine) peerID(addr netip.Addr) uint32 {
	id, known := e.peerIDs[addr]
	if !known {
		r, _ := slices.BinarySearchFunc(e.byAddr, addr, func(id uint32, a netip.Addr) int { return e.peerAddrs[id].Compare(a) })
		id = uint32(len(e.peerAddrs))
		e.peerIDs[addr], e.peerAddrs, e.byAddr = id, append(e.peerAddrs, addr), slices.Insert(e.byAddr, r, id)
	}
	return id
}

// NewEngine returns an engine inferring against the documented
// dictionary. The topology stands in for the PeeringDB lookups the
// paper performs (IXP route-server ASNs and peering LANs).
func NewEngine(dict *dictionary.Dictionary, topo *topology.Topology) *Engine {
	return &Engine{
		dict:      dict,
		topo:      topo,
		perPrefix: map[netip.Prefix]*prefixState{},
		peerIDs:   map[netip.Addr]uint32{},
	}
}

// Classify inspects one update and returns the blackholing detection, or
// nil when the update carries no resolvable blackhole community. Event
// tracking happens in Process. Like every Engine method, Classify is
// single-goroutine: it shares the engine's internal scratch buffers
// (the returned Detection owns its memory and stays valid).
func (e *Engine) Classify(u *bgp.Update) *Detection {
	if infs := e.classify(u); len(infs) > 0 {
		return &Detection{Time: u.Time, PeerIP: u.PeerIP, PeerAS: u.PeerAS, Providers: slices.Clone(infs)}
	}
	return nil
}

// ProviderRefCompare is the canonical total order over provider
// references — AS providers before IXPs, then by ASN, then by IXP id —
// used for deterministic dedup, serialization and display.
func ProviderRefCompare(a, b ProviderRef) int {
	return cmp.Or(cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.ASN, b.ASN), cmp.Compare(a.IXPID, b.IXPID))
}

// classify is the allocation-lean core of Classify: it writes into the
// engine's reusable scratch buffers and returns a slice that is only
// valid until the next classify call.
func (e *Engine) classify(u *bgp.Update) []ProviderInference {
	if len(u.Announced) == 0 || (len(u.Communities) == 0 && len(u.LargeCommunities) == 0) {
		return nil
	}
	infs := e.scratchInfs[:0]
	e.scratchFlat = u.Path.AppendFlattenNoPrepend(e.scratchFlat[:0])
	flat := e.scratchFlat
	origin, hasOrigin := u.Path.Origin()

	addAS := func(p bgp.ASN, c bgp.Community, shared bool) {
		idx := -1
		for i, a := range flat {
			if a == p {
				idx = i
				break
			}
		}
		if idx < 0 {
			if shared {
				// Ambiguous community with no candidate on path: the
				// update is not considered further (§4.2).
				return
			}
			// Bundling: the community names the provider even though the
			// provider does not forward the prefix.
			if !hasOrigin {
				return
			}
			infs = append(infs, ProviderInference{
				Provider:   ProviderRef{Kind: ProviderAS, ASN: p},
				User:       origin,
				Community:  c,
				ASDistance: NoPath,
			})
			return
		}
		// The blackholing user is the hop before the provider on the
		// prepending-free path; a provider at the origin blackholes its
		// own prefix.
		user := p
		if idx+1 < len(flat) {
			user = flat[idx+1]
		}
		infs = append(infs, ProviderInference{
			Provider:   ProviderRef{Kind: ProviderAS, ASN: p},
			User:       user,
			Community:  c,
			ASDistance: idx + 1,
		})
	}

	addIXP := func(xid int, c bgp.Community) {
		if e.topo == nil || xid < 0 || xid >= len(e.topo.IXPs) {
			e.metrics.unresolvedIXPRefs.Add(1)
			return
		}
		x := e.topo.IXPs[xid]
		// Check 1: the route server's ASN appears on the path.
		for i, a := range flat {
			if a != x.RouteServerASN {
				continue
			}
			if i+1 >= len(flat) {
				return
			}
			infs = append(infs, ProviderInference{
				Provider:   ProviderRef{Kind: ProviderIXP, IXPID: xid},
				User:       flat[i+1],
				Community:  c,
				ASDistance: 0,
			})
			return
		}
		// Check 2: the peer-ip lies inside the IXP's peering LAN; the
		// blackholing user is then the peer-as (§4.2).
		if x.PeeringLAN.IsValid() && x.PeeringLAN.Contains(u.PeerIP) {
			infs = append(infs, ProviderInference{
				Provider:   ProviderRef{Kind: ProviderIXP, IXPID: xid},
				User:       u.PeerAS,
				Community:  c,
				ASDistance: 0,
			})
		}
	}

	for _, c := range u.Communities {
		entry := e.dict.Lookup(c)
		if entry == nil {
			continue
		}
		shared := entry.Shared || len(entry.Providers)+len(entry.IXPs) > 1
		for _, p := range entry.Providers {
			addAS(p, c, shared)
		}
		for _, xid := range entry.IXPs {
			addIXP(xid, c)
		}
	}
	for _, lc := range u.LargeCommunities {
		entry := e.dict.LookupLarge(lc)
		if entry == nil {
			continue
		}
		// Large communities encode a 32-bit provider ASN in the global
		// administrator field; treat like an unambiguous standard entry.
		for _, p := range entry.Providers {
			addAS(p, bgp.MakeCommunity(uint16(lc.Global), uint16(lc.Local1)), len(entry.Providers) > 1)
		}
	}
	e.scratchInfs = infs
	if len(infs) == 0 {
		return nil
	}
	// Deduplicate providers (one community may be matched per provider
	// from several sources). Inference lists are tiny, so a closure-free
	// insertion sort beats sort.Slice here.
	for i := 1; i < len(infs); i++ {
		for j := i; j > 0 && ProviderRefCompare(infs[j].Provider, infs[j-1].Provider) < 0; j-- {
			infs[j], infs[j-1] = infs[j-1], infs[j]
		}
	}
	return slices.CompactFunc(infs, func(a, b ProviderInference) bool { return a.Provider == b.Provider })
}

// InitFromRIB seeds the engine from a table dump (§4.2 "Initialization
// Based on BGP Table Dump"): blackholed prefixes found in the dump start
// events whose true start time is unknown.
func (e *Engine) InitFromRIB(entries []bgp.RIBEntry, dumpTime time.Time, collectorName string, platform collector.Platform) {
	for i := range entries {
		u := entries[i].ToUpdate(dumpTime)
		e.process(u, platform, true)
	}
}

// Process consumes one stream element, updating event state.
func (e *Engine) Process(el *stream.Elem) {
	e.process(el.Update, el.Platform, false)
}

// ProcessUpdate consumes a raw update with explicit collection context.
func (e *Engine) ProcessUpdate(u *bgp.Update, collectorName string, platform collector.Platform) {
	e.process(u, platform, false)
}

func (e *Engine) process(u *bgp.Update, platform collector.Platform, fromDump bool) {
	// §3 data cleaning: bogon and coarse-prefix removal.
	u = bogon.CleanUpdate(u)
	if u == nil {
		e.metrics.updatesCleaned.Add(1)
		return
	}
	e.metrics.updatesProcessed.Add(1)

	// Explicit withdrawals end per-peer blackholing (§4.2).
	for _, p := range u.Withdrawn {
		if e.endPeer(p, u.PeerIP, u.Time) {
			e.metrics.explicitEnds.Add(1)
		}
	}
	if len(u.Announced) == 0 {
		return
	}

	// The peer is looked up once, and only for an update that marks events.
	infs := e.classify(u)
	var id uint32
	if len(infs) > 0 {
		id = e.peerID(u.PeerIP)
	}
	for _, p := range u.Announced {
		if len(infs) == 0 {
			// Announcement without blackhole communities: implicit
			// withdrawal if this peer previously saw the prefix
			// blackholed (§4.2).
			if e.endPeer(p, u.PeerIP, u.Time) {
				e.metrics.implicitEnds.Add(1)
			}
			continue
		}
		e.metrics.detections.Add(1)
		e.startOrRefresh(u, infs, p, id, platform, fromDump)
	}
}

// startOrRefresh files prefix's announcement; infs is classify's scratch.
func (e *Engine) startOrRefresh(u *bgp.Update, infs []ProviderInference, prefix netip.Prefix, id uint32, platform collector.Platform, fromDump bool) {
	st := e.perPrefix[prefix]
	if st == nil {
		e.metrics.eventsOpened.Add(1)
		st = &prefixState{event: Event{Prefix: prefix, Start: u.Time, End: u.Time, StartUnknown: fromDump}}
		e.perPrefix[prefix] = st
	}
	ev := &st.event
	i := slices.IndexFunc(st.peers, func(m peerMark) bool { return m.id == id })
	if i < 0 {
		i, st.peers = len(st.peers), insertAt(&e.chunks.marks, st.peers, len(st.peers), peerMark{id: id})
	}
	if !st.peers[i].active {
		st.peers[i].active = true
		st.active++
	}
	if u.Time.After(ev.End) {
		ev.End = u.Time
	}
	if u.HasNoExport() {
		ev.SawNoExport = true
	}
	ev.Detections++
	// A refresh that repeats the last inputs adds no member and no better
	// distance. Only the direct-feed check below turns on the peer's AS.
	if platform != st.platform || !slices.Equal(infs, st.infs) {
		st.platform, st.infs = platform, append(st.infs[:0], infs...)
		e.chunks.absorb(ev, platform, infs)
	}
	for _, inf := range infs {
		if inf.Provider.Kind == ProviderAS && inf.Provider.ASN == u.PeerAS ||
			inf.Provider.Kind == ProviderIXP && inf.ASDistance == 0 {
			ev.DirectFeed = true
			insert(&e.chunks.providers, &ev.DirectProviders, inf.Provider, ProviderRefCompare)
		}
	}
}

// absorb files a detection's platform and inferences in the event's sets.
func (c *chunks) absorb(ev *Event, platform collector.Platform, infs []ProviderInference) {
	asn, platforms := cmp.Compare[bgp.ASN], cmp.Compare[collector.Platform]
	insert(&c.platforms, &ev.Platforms, platform, platforms)
	platProviders, _ := entry(&c.platProviders, &ev.ProvidersByPlatform, platform, platforms)
	platUsers, _ := entry(&c.platUsers, &ev.UsersByPlatform, platform, platforms)
	for _, inf := range infs {
		insert(&c.providers, &ev.Providers, inf.Provider, ProviderRefCompare)
		insert(&c.providers, platProviders, inf.Provider, ProviderRefCompare)
		if inf.User != 0 {
			insert(&c.asns, &ev.Users, inf.User, asn)
			insert(&c.asns, platUsers, inf.User, asn)
			provUsers, _ := entry(&c.provUsers, &ev.ProviderUsers, inf.Provider, ProviderRefCompare)
			insert(&c.asns, provUsers, inf.User, asn)
		}
		insert(&c.communities, &ev.Communities, inf.Community, cmp.Compare[bgp.Community])
		if best, known := entry(&c.distances, &ev.ProviderDistances, inf.Provider, ProviderRefCompare); !known || betterDistance(inf.ASDistance, *best) {
			*best = inf.ASDistance
		}
	}
}

// betterDistance prefers any on-path distance over NoPath, and smaller
// distances otherwise.
func betterDistance(cand, cur int) bool {
	if cur == NoPath {
		return cand != NoPath
	}
	return cand != NoPath && cand < cur
}

// endPeer ends one peer's view of a blackholed prefix, reporting whether
// the peer was actually tracking it, found by address in the peer table.
func (e *Engine) endPeer(prefix netip.Prefix, peer netip.Addr, t time.Time) bool {
	st := e.perPrefix[prefix]
	if st == nil {
		return false
	}
	i := slices.IndexFunc(st.peers, func(m peerMark) bool { return m.active && e.peerAddrs[m.id] == peer })
	if i < 0 {
		return false
	}
	st.peers[i].active = false
	st.active--
	if t.After(st.event.End) {
		st.event.End = t
	}
	if st.active == 0 {
		// All peers agree the blackholing is over: close the event.
		delete(e.perPrefix, prefix)
		e.closeEvent(st)
	}
	return true
}

// Flush closes every still-active event at time t (end of monitoring).
func (e *Engine) Flush(t time.Time) {
	keys := slices.AppendSeq(make([]netip.Prefix, 0, len(e.perPrefix)), maps.Keys(e.perPrefix))
	sortByString(keys)
	for _, p := range keys {
		st := e.perPrefix[p]
		delete(e.perPrefix, p)
		if t.After(st.event.End) {
			st.event.End = t
		}
		e.closeEvent(st)
	}
}

// closeEvent writes the event's Peers and Seq, then notifies the
// OnEventClose hook — so every sink (stores, shard routers, alert hubs)
// sees the same Seq — and records the event.
func (e *Engine) closeEvent(st *prefixState) {
	ev := &st.event
	if len(e.peerRanks) < len(e.byAddr) { // a new peer: rank by address again
		e.peerRanks = slices.Grow(e.peerRanks, len(e.byAddr))[:len(e.byAddr)]
		for r, id := range e.byAddr {
			e.peerRanks[id] = uint32(r)
		}
	}
	ranks := e.scratchRanks[:0]
	for _, p := range st.peers {
		ranks = append(ranks, e.peerRanks[p.id])
	}
	slices.Sort(ranks)
	ev.Peers = carve(&e.chunks.addrs, len(ranks))
	for _, r := range ranks {
		ev.Peers = append(ev.Peers, e.peerAddrs[e.byAddr[r]])
	}
	e.scratchRanks, st.peers, st.infs = ranks, nil, nil // the event keeps neither
	e.seq++
	ev.Seq = e.seq
	if e.OnEventClose != nil {
		e.OnEventClose(ev)
	}
	e.closed = append(e.closed, ev)
	e.metrics.eventsClosed.Add(1)
}

// Run drains a stream through the engine.
func (e *Engine) Run(s stream.Stream) error {
	for {
		el, err := s.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		e.Process(el)
	}
}

// Events returns all closed events in closing order. The returned slice
// is a copy: appending to it (or re-slicing and overwriting) cannot
// corrupt the engine's internal closed list, so callers may take
// ownership of it freely. The *Event values themselves are shared — the
// engine never mutates an event after closing it.
func (e *Engine) Events() []*Event {
	return slices.Clone(e.closed)
}

// ActiveCount reports how many prefixes are currently blackholed.
func (e *Engine) ActiveCount() int { return len(e.perPrefix) }

// Period is a group of events for the same prefix whose gaps are at most
// the grouping timeout — the paper's 5-minute aggregation that turns the
// ON/OFF probing practice into operator-level blackholing periods
// (Fig 8a "Grouped").
type Period struct {
	Prefix netip.Prefix
	Start  time.Time
	End    time.Time
	Events []*Event
}

// Duration returns the period length.
func (p *Period) Duration() time.Duration { return p.End.Sub(p.Start) }

// DefaultGroupTimeout is the paper's 5-minute grouping window.
const DefaultGroupTimeout = 5 * time.Minute

// Group merges per-prefix events with inter-event gaps of at most
// timeout into periods.
func Group(events []*Event, timeout time.Duration) []*Period {
	byPrefix := map[netip.Prefix][]*Event{}
	for _, ev := range events {
		byPrefix[ev.Prefix] = append(byPrefix[ev.Prefix], ev)
	}
	prefixes := slices.Collect(maps.Keys(byPrefix))
	sortByString(prefixes)

	var out []*Period
	for _, p := range prefixes {
		evs := byPrefix[p]
		sort.Slice(evs, func(i, j int) bool { return evs[i].Start.Before(evs[j].Start) })
		var cur *Period
		for _, ev := range evs {
			if cur != nil && ev.Start.Sub(cur.End) <= timeout {
				cur.Events = append(cur.Events, ev)
				if ev.End.After(cur.End) {
					cur.End = ev.End
				}
				continue
			}
			cur = &Period{Prefix: p, Start: ev.Start, End: ev.End, Events: []*Event{ev}}
			out = append(out, cur)
		}
	}
	return out
}
