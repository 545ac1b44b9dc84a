package collector

import (
	"net/netip"
	"sort"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/topology"
)

// Announcement is an intent by a user AS to announce (typically
// blackhole) a prefix into BGP.
type Announcement struct {
	Time   time.Time
	User   bgp.ASN
	Prefix netip.Prefix
	// Communities is the community set attached to the announcement —
	// for blackholing, the trigger communities of every intended
	// provider ("bundling" when several are combined, §4.2).
	Communities      []bgp.Community
	LargeCommunities []bgp.LargeCommunity
	// NoExport attaches the RFC 1997 NO_EXPORT community, which
	// RFC 7999 requires on blackhole routes; many networks omit it.
	NoExport bool

	// TargetProviders are the AS-level neighbors explicitly announced
	// to. TargetIXPs are IXPs whose route server is announced to.
	TargetProviders []bgp.ASN
	TargetIXPs      []int
	// Bundled sends the same tagged announcement to every BGP neighbor
	// of the user (including neighbors that offer no blackholing) and
	// to the route servers of all the user's IXPs — the behaviour that
	// makes half the paper's inferences possible.
	Bundled bool
}

// Observation is one update as seen by one collector session.
type Observation struct {
	Collector *Collector
	Session   PeerSession
	Update    *bgp.Update
}

// IXPReject records an announcement an IXP route server refused, with
// the misconfiguration reason (§10).
type IXPReject struct {
	IXPID  int
	Reason string
}

// Result summarises one announcement's propagation.
type Result struct {
	// Prefix and User echo the announcement, so data-plane experiments
	// can link drop sets back to events.
	Prefix netip.Prefix
	User   bgp.ASN
	// Observations lists every collector observation, in deterministic
	// order.
	Observations []Observation
	// DroppingASes is the set of AS-level providers that installed a
	// null route (traffic to the prefix dies at their ingress).
	DroppingASes map[bgp.ASN]bool
	// DroppingIXPMembers maps IXP ID to the members honouring the
	// blackhole (dropping traffic toward the IXP next-hop).
	DroppingIXPMembers map[int]map[bgp.ASN]bool
	// AcceptedIXPs lists IXPs whose route server accepted the request.
	AcceptedIXPs []int
	// Rejections lists route-server refusals.
	Rejections []IXPReject

	// dropStates tracks the route state at each dropping AS, feeding
	// the inter-provider escalation pass.
	dropStates map[bgp.ASN]routeState

	// announced is the single-prefix NLRI slice shared by every update
	// of this propagation (and by the matching withdrawal, which reuses
	// it as its Withdrawn list). Treated as read-only downstream.
	announced []netip.Prefix
	// authKnown/authentic memoise the origin authentication of the
	// prefix, which every accepting neighbour would otherwise repeat.
	authKnown, authentic bool
	// arena block-allocates the observation updates.
	arena updateArena
}

// updateArena hands out updates from blocks, so a propagation touching
// hundreds of collector sessions costs a handful of allocations instead
// of one per observation. Blocks start small — most propagations reach
// fewer than eight sessions — and double up to arenaMaxBlock. Pointers
// stay valid because blocks are never grown, only consumed front to back.
type updateArena struct {
	block []bgp.Update
	size  int // length the current block was allocated with
}

const (
	arenaMinBlock = 8
	arenaMaxBlock = 64
)

func (a *updateArena) next() *bgp.Update {
	if len(a.block) == 0 {
		a.size = min(max(2*a.size, arenaMinBlock), arenaMaxBlock)
		a.block = make([]bgp.Update, a.size)
	}
	u := &a.block[0]
	a.block = a.block[1:]
	return u
}

// routeState tracks the route as held by one AS during propagation.
type routeState struct {
	as    bgp.ASN
	path  []bgp.ASN // from holder to user, holder first
	comms []bgp.Community
	large []bgp.LargeCommunity
	// fromCustomer reports whether the holder learned the route from a
	// customer (or originated it), governing valley-free export.
	fromCustomer bool
}

// maxPropagationHops bounds how far a leaked blackhole route travels.
const maxPropagationHops = 6

// detHash is a deterministic mixing hash for policy coin flips.
func detHash(parts ...uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range parts {
		for i := 0; i < 8; i++ {
			h ^= (p >> (8 * i)) & 0xFF
			h *= 1099511628211
		}
	}
	return h
}

// honorsIXPBlackhole reports whether an IXP member installs the
// blackhole next-hop for route-server blackhole announcements. Roughly
// 80% do; the rest have stale router configurations or bypass the route
// server (§10).
func honorsIXPBlackhole(member bgp.ASN, ixpID int) bool {
	return detHash(uint64(member), uint64(ixpID))%10 < 8
}

// usesRouteServer reports whether a member maintains a session with the
// IXP route server at all (about 60% do; the rest peer bilaterally and
// their bundled announcements never reach the RS).
func usesRouteServer(member bgp.ASN, ixpID int) bool {
	return detHash(uint64(member), uint64(ixpID), 0xA5)%10 < 6
}

// propScratch holds the dense per-propagation working state, pooled on
// the Deployment so concurrent Propagate calls (day-sharded replay) each
// get their own buffers without per-call map allocation.
type propScratch struct {
	visited []bool // keyed by topology dense index
	seenT   []bool // initial-target dedup, same keying
	queue   []routeState
	initial []bgp.ASN
	xids    []int
}

func (d *Deployment) getScratch(n int) *propScratch {
	sc, _ := d.scratch.Get().(*propScratch)
	if sc == nil {
		sc = &propScratch{}
	}
	if cap(sc.visited) < n {
		sc.visited = make([]bool, n)
		sc.seenT = make([]bool, n)
	} else {
		sc.visited = sc.visited[:n]
		sc.seenT = sc.seenT[:n]
		clear(sc.visited)
		clear(sc.seenT)
	}
	sc.queue = sc.queue[:0]
	sc.initial = sc.initial[:0]
	sc.xids = sc.xids[:0]
	return sc
}

// Propagate pushes the announcement through the topology under
// valley-free and prefix-length policies and returns everything the
// collectors observed plus the resulting data-plane drop set.
// It is safe to call concurrently.
func (d *Deployment) Propagate(a Announcement) *Result {
	res := &Result{
		Prefix:             a.Prefix,
		User:               a.User,
		DroppingASes:       map[bgp.ASN]bool{},
		DroppingIXPMembers: map[int]map[bgp.ASN]bool{},
		dropStates:         map[bgp.ASN]routeState{},
		announced:          []netip.Prefix{a.Prefix},
	}
	topo := d.Topo
	user := topo.AS(a.User)
	if user == nil {
		return res
	}
	sc := d.getScratch(topo.NumIndexed())
	defer d.scratch.Put(sc)

	comms := append([]bgp.Community(nil), a.Communities...)
	if a.NoExport {
		comms = append(comms, bgp.CommunityNoExport)
	}

	// The user itself holds the route (it originates it). Its own
	// collector sessions observe it only for bundled announcements: a
	// targeted announcement goes to the named providers alone, while a
	// bundled one goes to every BGP neighbor — including any route
	// collector the user feeds (§4.2, Fig 3).
	origin := routeState{
		as:           a.User,
		path:         []bgp.ASN{a.User},
		comms:        comms,
		large:        a.LargeCommunities,
		fromCustomer: true,
	}
	if a.Bundled {
		d.observe(res, a, origin)
	}

	// Initial AS-level recipients, deduplicated through the dense index.
	addT := func(asn bgp.ASN) {
		if asn == a.User {
			return
		}
		if i := topo.Index(asn); i >= 0 && !sc.seenT[i] {
			sc.seenT[i] = true
			sc.initial = append(sc.initial, asn)
		}
	}
	addXID := func(xid int) {
		sc.xids = append(sc.xids, xid)
	}
	for _, x := range a.TargetIXPs {
		addXID(x)
	}
	if a.Bundled {
		for _, n := range topo.Neighbors(a.User) {
			addT(n)
		}
		// The bundled announcement also reaches the route servers of the
		// user's IXPs — but only where the user actually maintains an RS
		// session, and only IXPs whose blackhole community is in the
		// bundle act on it; the rest treat it as an ordinary
		// too-specific route and drop it silently.
		for _, xid := range user.IXPs {
			x := topo.IXPs[xid]
			if x.Blackholing != nil && usesRouteServer(a.User, xid) &&
				matchesService(x.Blackholing, comms, a.LargeCommunities) {
				addXID(xid)
			}
		}
	} else {
		for _, p := range a.TargetProviders {
			addT(p)
		}
	}

	// BFS propagation among ASes: dense visited set, index-head queue
	// (no per-pop reslicing).
	visited := sc.visited
	if i := topo.Index(a.User); i >= 0 {
		visited[i] = true
	}
	queue := sc.queue
	for _, n := range sc.initial {
		queue = append(queue, d.receive(res, a, origin, n))
	}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		if cur.as == 0 {
			continue
		}
		ci := topo.Index(cur.as)
		if ci < 0 || visited[ci] {
			continue
		}
		visited[ci] = true
		d.observe(res, a, cur)
		if len(cur.path) > maxPropagationHops {
			continue
		}
		for _, next := range d.exportTargets(cur, a) {
			if ni := topo.Index(next); ni >= 0 && !visited[ni] {
				queue = append(queue, d.receive(res, a, cur, next))
			}
		}
	}
	sc.queue = queue // return grown buffer to the pool

	// Inter-provider RTBH escalation: a provider that accepted a
	// customer blackhole request commonly forwards it to its own
	// upstreams (tagged with their trigger communities) to shed the
	// attack traffic before it enters its network. This is what pushes
	// the data-plane drop point 2-4 AS hops away from the victim (§10).
	d.escalate(res, a)

	// IXP route-server handling, in deterministic deduplicated order.
	sort.Ints(sc.xids)
	for i, xid := range sc.xids {
		if i > 0 && xid == sc.xids[i-1] {
			continue
		}
		d.propagateViaRouteServer(res, a, comms, xid)
	}

	return res
}

// escalationLevels bounds how far up the provider chain a blackhole
// request is forwarded.
const escalationLevels = 3

func (d *Deployment) escalate(res *Result, a Announcement) {
	topo := d.Topo
	frontier := make([]routeState, 0, len(res.dropStates))
	var asns []bgp.ASN
	for asn := range res.dropStates {
		asns = append(asns, asn)
	}
	topology.SortASNs(asns)
	for _, asn := range asns {
		frontier = append(frontier, res.dropStates[asn])
	}
	for level := 0; level < escalationLevels && len(frontier) > 0; level++ {
		var next []routeState
		for _, cur := range frontier {
			as := topo.AS(cur.as)
			if as == nil {
				continue
			}
			for _, q := range as.Providers {
				qa := topo.AS(q)
				if qa == nil || qa.Blackholing == nil || res.DroppingASes[q] {
					continue
				}
				// A minority of provider pairs have the upstream RTBH
				// arrangement in place.
				if detHash(uint64(cur.as), uint64(q), prefixHash(a.Prefix))%100 >= 30 {
					continue
				}
				st := routeState{
					as:           q,
					path:         append([]bgp.ASN{q}, cur.path...),
					comms:        append(append([]bgp.Community(nil), cur.comms...), qa.Blackholing.Communities[0]),
					fromCustomer: true,
				}
				res.DroppingASes[q] = true
				res.dropStates[q] = st
				d.observe(res, a, st)
				next = append(next, st)
			}
		}
		frontier = next
	}
}

// receive applies the receiver's import policy; a zero-AS routeState
// means the route was rejected.
func (d *Deployment) receive(res *Result, a Announcement, from routeState, to bgp.ASN) routeState {
	topo := d.Topo
	recv := topo.AS(to)
	if recv == nil {
		return routeState{}
	}
	rel := topo.Rel(to, from.as) // from's role seen from to
	out := routeState{
		as:           to,
		path:         append([]bgp.ASN{to}, from.path...),
		comms:        from.comms,
		large:        from.large,
		fromCustomer: rel == topology.RelCustomer,
	}
	if fromAS := topo.AS(from.as); fromAS != nil && fromAS.StripsCommunities {
		out.comms = nil
		out.large = nil
	}

	if !bgp.MoreSpecificThan24(a.Prefix) {
		return out // ordinary prefix: accepted normally
	}

	// More-specific than /24: accepted only with a matching blackhole
	// community or by networks not filtering more-specifics.
	if recv.Blackholing != nil && matchesService(recv.Blackholing, from.comms, from.large) {
		// Authentication: the request must come from the prefix
		// originator or a network holding it in its customer cone (§2).
		// The answer is a property of the announcement, not of the
		// receiver, so the first accepting neighbour settles it.
		if !res.authKnown {
			originAS := topo.OriginOf(a.Prefix)
			res.authentic = originAS == a.User || topo.InCustomerCone(a.User, originAS)
			res.authKnown = true
		}
		irrOK := !recv.Blackholing.RequiresIRRRegistration || topo.AS(a.User).HasIRRRouteObjects
		rpkiOK := true
		if recv.Blackholing.RequiresRPKI && d.RPKI != nil {
			rpkiOK = d.RPKI.ValidOrigin(a.Prefix, a.User)
		}
		if res.authentic && irrOK && rpkiOK && a.Prefix.Bits() <= recv.Blackholing.MaxPrefixLen {
			res.DroppingASes[to] = true
			res.dropStates[to] = out
			return out
		}
		return routeState{} // rejected
	}
	if !recv.FiltersMoreSpecifics {
		return out // leaks like an ordinary more-specific
	}
	return routeState{}
}

// matchesService reports whether the announcement's communities trigger
// the service.
func matchesService(svc *topology.BlackholeService, comms []bgp.Community, large []bgp.LargeCommunity) bool {
	for _, c := range comms {
		if svc.HasCommunity(c) {
			return true
		}
	}
	for _, lc := range large {
		for _, s := range svc.LargeCommunities {
			if lc == s {
				return true
			}
		}
	}
	return false
}

// exportTargets applies valley-free export plus blackhole-specific
// suppression: NO_EXPORT stops propagation, and blackholing providers
// that accepted the route keep it local unless they are sloppy
// (non-filtering) networks.
func (d *Deployment) exportTargets(cur routeState, a Announcement) []bgp.ASN {
	topo := d.Topo
	as := topo.AS(cur.as)
	if as == nil {
		return nil
	}
	for _, c := range cur.comms {
		if c == bgp.CommunityNoExport {
			return nil
		}
	}
	if bgp.MoreSpecificThan24(a.Prefix) {
		// RFC 7999/5635 require suppression; only networks that do not
		// enforce prefix-length hygiene leak the route onward (§9 finds
		// 30% of events propagate at least one hop).
		if as.FiltersMoreSpecifics {
			return nil
		}
	}
	var out []bgp.ASN
	if cur.fromCustomer {
		out = append(out, as.Providers...)
		out = append(out, as.Peers...)
	}
	out = append(out, as.Customers...)
	return out
}

// observe records the route at every collector session of the holding
// AS, subject to the session's feed policy. Holders that enforce
// prefix-length hygiene suppress blackholed more-specifics toward their
// collector sessions just as they do toward peers (RFC 7999 suppression
// — the reason the paper's visibility is a lower bound, §5.2).
func (d *Deployment) observe(res *Result, a Announcement, st routeState) {
	if st.as == 0 {
		return
	}
	if bgp.MoreSpecificThan24(a.Prefix) && st.as != a.User {
		if as := d.Topo.AS(st.as); as != nil && as.FiltersMoreSpecifics {
			return
		}
	}
	refs := d.sessionsByAS[st.as]
	if len(refs) == 0 {
		return
	}
	// One AS_PATH shared by every session observation of this holder:
	// st.path is freshly built per routeState and never mutated after,
	// so the path can reference it without cloning.
	path := bgp.Path{Segments: []bgp.Segment{{Type: bgp.SegmentSequence, ASNs: st.path}}}
	for _, ref := range refs {
		s := ref.col.Sessions[ref.idx]
		if s.RouteServer {
			continue // RS sessions are fed by propagateViaRouteServer
		}
		switch s.Feed {
		case FeedCustomerOnly:
			if !st.fromCustomer {
				continue
			}
		case FeedPartial:
			if detHash(uint64(st.as), prefixHash(a.Prefix))%2 == 1 {
				continue
			}
		}
		u := res.arena.next()
		*u = bgp.Update{
			Time:             a.Time,
			PeerIP:           s.IP,
			PeerAS:           st.as,
			Announced:        res.announced,
			Origin:           bgp.OriginIGP,
			Path:             path,
			NextHop:          s.IP,
			Communities:      st.comms,
			LargeCommunities: st.large,
		}
		res.Observations = append(res.Observations, Observation{Collector: ref.col, Session: s, Update: u})
	}
}

// propagateViaRouteServer handles an announcement sent to an IXP route
// server with (or without) the IXP's blackhole community.
func (d *Deployment) propagateViaRouteServer(res *Result, a Announcement, comms []bgp.Community, xid int) {
	topo := d.Topo
	if xid < 0 || xid >= len(topo.IXPs) {
		return
	}
	x := topo.IXPs[xid]
	if !memberOf(x, a.User) {
		return
	}
	svc := x.Blackholing
	if svc == nil {
		res.Rejections = append(res.Rejections, IXPReject{IXPID: xid, Reason: "no blackholing service"})
		return
	}
	if bgp.MoreSpecificThan24(a.Prefix) && !matchesService(svc, comms, a.LargeCommunities) {
		res.Rejections = append(res.Rejections, IXPReject{IXPID: xid, Reason: "wrong BGP community"})
		return
	}
	if svc.RequiresIRRRegistration && !topo.AS(a.User).HasIRRRouteObjects {
		res.Rejections = append(res.Rejections, IXPReject{IXPID: xid, Reason: "prefix not registered in IRR"})
		return
	}
	if a.Prefix.Bits() > svc.MaxPrefixLen && a.Prefix.Addr().Is4() {
		res.Rejections = append(res.Rejections, IXPReject{IXPID: xid, Reason: "prefix too specific"})
		return
	}
	res.AcceptedIXPs = append(res.AcceptedIXPs, xid)

	// Members honouring the request drop traffic at their IXP port.
	drops := make(map[bgp.ASN]bool, len(x.Members))
	for _, m := range x.Members {
		if m != a.User && honorsIXPBlackhole(m, xid) {
			drops[m] = true
		}
	}
	res.DroppingIXPMembers[xid] = drops

	// Collector observations through the route server.
	for _, ref := range d.rsSessionsByIXP[xid] {
		s := ref.col.Sessions[ref.idx]
		var path bgp.Path
		peerIP := x.MemberIP(a.User)
		peerAS := a.User
		if x.InsertsRSASN {
			path = bgp.NewPath(x.RouteServerASN, a.User)
			peerIP = x.PeeringLAN.Addr()
			peerAS = x.RouteServerASN
		} else {
			path = bgp.NewPath(a.User)
		}
		u := res.arena.next()
		*u = bgp.Update{
			Time:             a.Time,
			PeerIP:           peerIP,
			PeerAS:           peerAS,
			Announced:        res.announced,
			Origin:           bgp.OriginIGP,
			Path:             path,
			NextHop:          x.BlackholingIPv4,
			Communities:      comms,
			LargeCommunities: a.LargeCommunities,
		}
		res.Observations = append(res.Observations, Observation{Collector: ref.col, Session: s, Update: u})
	}
}

// Restamp selects how AppendRestamped rewrites a propagation's updates.
type Restamp uint8

const (
	// RestampRepeat repeats the announcement unchanged: a later ON phase
	// of the same intent.
	RestampRepeat Restamp = iota
	// RestampWithdraw turns each update into an explicit withdrawal.
	RestampWithdraw
	// RestampStripped re-announces the prefix without blackhole
	// communities, an implicit withdrawal of the blackholing (§4.2).
	RestampStripped
)

// AppendRestamped appends to dst one observation per observation of
// prev — same collector, same session — whose update is stamped t and
// rewritten per mode. Propagation is a pure function of the route and
// the topology (Announcement.Time is only copied into Update.Time), so
// this is how every phase after an intent's first flood is produced.
// The updates are fresh (one exact-sized allocation) and share prev's
// prefix, path and community slices, which are read-only downstream.
func (d *Deployment) AppendRestamped(dst []Observation, prev *Result, t time.Time, mode Restamp) []Observation {
	ups := make([]bgp.Update, len(prev.Observations))
	for i, o := range prev.Observations {
		u := &ups[i]
		if mode == RestampWithdraw {
			u.PeerIP = o.Update.PeerIP
			u.PeerAS = o.Update.PeerAS
			u.Withdrawn = o.Update.Announced
		} else {
			*u = *o.Update
			if mode == RestampStripped {
				u.Communities = nil
				u.LargeCommunities = nil
			}
		}
		u.Time = t
		dst = append(dst, Observation{Collector: o.Collector, Session: o.Session, Update: u})
	}
	return dst
}

// Withdraw produces the withdrawal observations matching a previous
// propagation: every session that saw the announcement sees an explicit
// withdrawal at time t.
func (d *Deployment) Withdraw(prev *Result, t time.Time) []Observation {
	return d.AppendRestamped(make([]Observation, 0, len(prev.Observations)), prev, t, RestampWithdraw)
}

// ReannounceWithout produces announcement observations for the same
// prefix without blackhole communities at every session that saw the
// original.
func (d *Deployment) ReannounceWithout(prev *Result, t time.Time) []Observation {
	return d.AppendRestamped(make([]Observation, 0, len(prev.Observations)), prev, t, RestampStripped)
}

func memberOf(x *topology.IXP, asn bgp.ASN) bool {
	for _, m := range x.Members {
		if m == asn {
			return true
		}
	}
	return false
}

func prefixHash(p netip.Prefix) uint64 {
	b := p.Addr().As16()
	h := uint64(p.Bits())
	for _, x := range b {
		h = h*31 + uint64(x)
	}
	return h
}
