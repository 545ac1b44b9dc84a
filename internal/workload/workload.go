// Package workload synthesises the longitudinal blackholing activity the
// paper measures: the December 2014 – March 2017 timeline of blackholing
// events with its steady adoption growth (providers ×2, users ×4,
// prefixes ×6, §6), the spikes that correlate with headline DDoS attacks
// (NS1, the Turkish coup, the Rio Olympics, Krebs-on-Security, Liberia,
// and the elevated Mirai-era baseline), the ON/OFF probing practice that
// dominates event durations (§9), long-lived reputation blocks, and the
// occasional misconfiguration such as an academic network blackholing
// its entire routing table for two minutes.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/topology"
)

// Phase is one ON segment of an intent's activity pattern followed by an
// OFF gap before the next segment (the gap after the last segment is
// meaningless).
type Phase struct {
	On  time.Duration
	Off time.Duration
}

// Intent is one planned blackholing action: a user blackholing one
// prefix at a set of providers, possibly repeatedly (ON/OFF probing).
type Intent struct {
	Day    int
	Start  time.Time
	User   bgp.ASN
	Prefix netip.Prefix
	// Providers and IXPs are the blackholing services used.
	Providers []bgp.ASN
	IXPs      []int
	// Bundled sends all trigger communities to every neighbor (§4.2).
	Bundled bool
	// NoExport attaches the RFC 7999-mandated NO_EXPORT community.
	NoExport bool
	// Pattern is the ON/OFF schedule.
	Pattern []Phase
	// Misconfigured marks intents carrying a wrong community value
	// (control-plane visible, data-plane dead, §10).
	Misconfigured bool
}

// Communities derives the bundled trigger community set for the intent.
func (in *Intent) Communities(topo *topology.Topology) []bgp.Community {
	var out []bgp.Community
	for _, p := range in.Providers {
		as := topo.AS(p)
		if as == nil || as.Blackholing == nil {
			continue
		}
		out = append(out, as.Blackholing.Communities[0])
	}
	for _, xid := range in.IXPs {
		if xid >= 0 && xid < len(topo.IXPs) && topo.IXPs[xid].Blackholing != nil {
			out = append(out, topo.IXPs[xid].Blackholing.Communities[0])
		}
	}
	if in.Misconfigured {
		// Wrong low value: a typo'd community nobody honours.
		for i, c := range out {
			out[i] = bgp.MakeCommunity(c.High(), c.Low()+13)
		}
	}
	return out
}

// Announcement is the route the intent's user sends for its first ON
// phase: the one flood Materialize restamps, and a table dump's seed.
func (in *Intent) Announcement(topo *topology.Topology) collector.Announcement {
	return collector.Announcement{
		Time:            in.Start,
		User:            in.User,
		Prefix:          in.Prefix,
		Communities:     in.Communities(topo),
		NoExport:        in.NoExport,
		TargetProviders: in.Providers,
		TargetIXPs:      in.IXPs,
		Bundled:         in.Bundled,
	}
}

// Spike is a DDoS-driven surge in blackholing activity.
type Spike struct {
	Name string
	Day  int
	// Magnitude multiplies the daily event count.
	Magnitude float64
	// Days is the surge length.
	Days int
	// Misconfig marks the accidental full-table blackholing spike (A).
	Misconfig bool
}

// Timeline constants: the simulation begins 2014-12-01 (§6).
var TimelineStart = time.Date(2014, 12, 1, 0, 0, 0, 0, time.UTC)

// Day offsets of the annotated spikes of Figure 4(c).
const (
	dayMisconfigA = 504 // 2016-04-18: academic network blackholes its table
	dayNS1        = 532 // 2016-05-16: DNS provider amplification attack
	dayTurkeyCoup = 592 // 2016-07-15
	dayRio        = 630 // 2016-08-22
	dayKrebs      = 659 // 2016-09-20
	dayLiberia    = 700 // 2016-10-31
	dayMiraiEra   = 640 // elevated baseline from September 2016
)

// DefaultSpikes reproduces the annotated events of Fig 4.
func DefaultSpikes() []Spike {
	return []Spike{
		{Name: "accidental full-table blackholing", Day: dayMisconfigA, Magnitude: 4, Days: 1, Misconfig: true},
		{Name: "NS1 DNS amplification", Day: dayNS1, Magnitude: 3.5, Days: 2},
		{Name: "Turkish coup attempt", Day: dayTurkeyCoup, Magnitude: 3, Days: 2},
		{Name: "Rio Olympics 540Gbps", Day: dayRio, Magnitude: 3, Days: 3},
		{Name: "Krebs-on-Security record DDoS", Day: dayKrebs, Magnitude: 4, Days: 4},
		{Name: "Liberia infrastructure attack", Day: dayLiberia, Magnitude: 3.5, Days: 2},
	}
}

// Config parameterises the scenario.
type Config struct {
	Seed int64
	// Days is the timeline length (Dec 2014 – Mar 2017 ≈ 850 days).
	Days int
	// BaseEventsPerDay is the mean daily event count at day 0.
	BaseEventsPerDay float64
	// Growth is the factor by which daily prefix activity grows over the
	// timeline (6 in the paper).
	Growth float64
	// Spikes lists DDoS surges.
	Spikes []Spike
	// FracBundled is the fraction of intents announced to all neighbors
	// with bundled communities.
	FracBundled float64
	// FracNoExport is the fraction carrying NO_EXPORT.
	FracNoExport float64
	// FracMisconfig is the fraction with typo'd communities.
	FracMisconfig float64
	// MiraiBaseline multiplies activity from day MiraiEra onward.
	MiraiBaseline float64
	// ShortEpisodeBias, in [0,1], is the probability that an intent's
	// ON/OFF schedule is forced into the short probing shape regardless
	// of the Fig 8 mix — the flash-crowd preset's lever: DDoS waves of
	// many short-lived episodes that open and close events at a high
	// rate. 0 (the default) keeps the paper's duration mix.
	ShortEpisodeBias float64
}

// DefaultConfig returns the paper-scale timeline (scaled event volume:
// same shape, fewer absolute events for tractability).
func DefaultConfig() Config {
	return Config{
		Seed:             42,
		Days:             850,
		BaseEventsPerDay: 12,
		Growth:           4.5,
		Spikes:           DefaultSpikes(),
		FracBundled:      0.55,
		FracNoExport:     0.3,
		FracMisconfig:    0.03,
		MiraiBaseline:    1.3,
	}
}

// WaveSpikes builds the interleaved DDoS waves of the flash-crowd
// preset: a surge of the given magnitude every period days (starting
// at day period/2), each length days long, across the whole timeline.
func WaveSpikes(days, period, length int, magnitude float64) []Spike {
	var out []Spike
	for i, day := 0, period/2; day < days; i, day = i+1, day+period {
		out = append(out, Spike{
			Name:      fmt.Sprintf("flash-crowd wave %d", i+1),
			Day:       day,
			Magnitude: magnitude,
			Days:      length,
		})
	}
	return out
}

// FlashCrowdConfig is the "flash-crowd" preset: a short, dense
// timeline of interleaved DDoS waves (every 7 days, 2 days long, 6×
// magnitude) whose episodes are biased hard toward the short ON/OFF
// probing shape — many events opening and closing per wave, the
// workload that stresses the alerting hub's fan-out rather than the
// longitudinal store.
func FlashCrowdConfig() Config {
	days := 120
	return Config{
		Seed:             42,
		Days:             days,
		BaseEventsPerDay: 30,
		Growth:           1.5,
		Spikes:           WaveSpikes(days, 7, 2, 6),
		FracBundled:      0.55,
		FracNoExport:     0.3,
		FracMisconfig:    0.05,
		MiraiBaseline:    1,
		ShortEpisodeBias: 0.7,
	}
}

// Presets lists the named scenario presets.
func Presets() []string { return []string{"default", "flash-crowd"} }

// PresetConfig resolves a named preset ("" and "default" are the
// paper-scale timeline).
func PresetConfig(name string) (Config, error) {
	switch name {
	case "", "default":
		return DefaultConfig(), nil
	case "flash-crowd":
		return FlashCrowdConfig(), nil
	}
	return Config{}, fmt.Errorf("unknown workload preset %q (have %v)", name, Presets())
}

// Scaled multiplies daily event volume by f.
func (c Config) Scaled(f float64) Config {
	out := c
	out.BaseEventsPerDay *= f
	if out.BaseEventsPerDay < 1 {
		out.BaseEventsPerDay = 1
	}
	return out
}

// Scenario generates deterministic per-day intents over a topology.
type Scenario struct {
	Topo *topology.Topology
	Cfg  Config

	// users are ASes able to use blackholing (they have a provider
	// offering it or belong to a blackholing IXP), with their usable
	// services precomputed.
	users []userInfo
	// adoptionDay spreads service adoption across the timeline.
	providerAdoption map[bgp.ASN]int
	ixpAdoption      map[int]int
	userAdoption     map[bgp.ASN]int
}

type userInfo struct {
	asn       bgp.ASN
	providers []bgp.ASN // neighbors offering blackholing
	ixps      []int     // blackholing IXP memberships
	weight    int       // sampling weight (content users are most active)
}

// NewScenario prepares the scenario over a topology.
func NewScenario(topo *topology.Topology, cfg Config) *Scenario {
	s := &Scenario{
		Topo:             topo,
		Cfg:              cfg,
		providerAdoption: map[bgp.ASN]int{},
		ixpAdoption:      map[int]int{},
		userAdoption:     map[bgp.ASN]int{},
	}
	r := rand.New(rand.NewSource(cfg.Seed))

	// Provider adoption: roughly half the providers were active before
	// the timeline; the rest adopt over it (providers double, Fig 4a).
	provs := topo.BlackholingProviders()
	for i, p := range provs {
		if i%5 < 3 {
			s.providerAdoption[p.ASN] = 0
		} else {
			s.providerAdoption[p.ASN] = r.Intn(cfg.Days * 9 / 10)
		}
	}
	for i, x := range topo.BlackholingIXPs() {
		if i%2 == 0 {
			s.ixpAdoption[x.ID] = 0
		} else {
			s.ixpAdoption[x.ID] = r.Intn(cfg.Days * 9 / 10)
		}
	}

	// User pool: every AS with at least one blackholing-capable service.
	for _, asn := range topo.Order {
		as := topo.AS(asn)
		var ui userInfo
		ui.asn = asn
		for _, n := range topo.Neighbors(asn) {
			na := topo.AS(n)
			if na != nil && na.Blackholing != nil && n != asn {
				ui.providers = append(ui.providers, n)
			}
		}
		for _, xid := range as.IXPs {
			if topo.IXPs[xid].Blackholing != nil {
				ui.ixps = append(ui.ixps, xid)
			}
		}
		if len(ui.providers)+len(ui.ixps) == 0 {
			continue
		}
		// Content providers host attack targets: they originate 43% of
		// blackholed prefixes from only 18% of users (§8), so weight
		// them heavily.
		switch as.Kind() {
		case topology.KindContent:
			ui.weight = 6
		case topology.KindTransitAccess:
			ui.weight = 2
		default:
			ui.weight = 1
		}
		s.users = append(s.users, ui)
		// User adoption quadruples over the timeline (Fig 4b): a third
		// of the pool used blackholing from the start, the rest adopt
		// along the way.
		if r.Float64() < 0.35 {
			s.userAdoption[asn] = 0
		} else {
			s.userAdoption[asn] = r.Intn(cfg.Days)
		}
	}
	return s
}

// Users returns the number of potential blackholing users.
func (s *Scenario) Users() int { return len(s.users) }

// dailyRate computes the expected event count for a day, combining
// growth, the Mirai-era baseline and spikes.
func (s *Scenario) dailyRate(day int) float64 {
	frac := float64(day) / float64(s.Cfg.Days)
	rate := s.Cfg.BaseEventsPerDay * math.Pow(s.Cfg.Growth, frac)
	if day >= dayMiraiEra && s.Cfg.Days > dayMiraiEra {
		rate *= s.Cfg.MiraiBaseline
	}
	for _, sp := range s.Cfg.Spikes {
		if day >= sp.Day && day < sp.Day+sp.Days {
			rate *= sp.Magnitude
		}
	}
	return rate
}

// IntentsForDay deterministically generates the intents starting on one
// day of the timeline.
func (s *Scenario) IntentsForDay(day int) []Intent {
	r := rand.New(rand.NewSource(s.Cfg.Seed ^ int64(day)*2654435761))
	n := int(s.dailyRate(day))
	if n < 1 {
		n = 1
	}
	dayStart := TimelineStart.Add(time.Duration(day) * 24 * time.Hour)
	var out []Intent

	// The misconfiguration spike (A): a European academic network
	// blackholes its entire routing table for under two minutes.
	for _, sp := range s.Cfg.Spikes {
		if sp.Misconfig && day == sp.Day {
			out = append(out, s.misconfigFullTable(r, dayStart)...)
		}
	}

	for i := 0; i < n; i++ {
		ui := s.pickUser(r, day)
		if ui == nil {
			continue
		}
		in := s.buildIntent(r, day, dayStart, ui)
		out = append(out, in)
	}
	return out
}

// pickUser samples an adopted user by weight.
func (s *Scenario) pickUser(r *rand.Rand, day int) *userInfo {
	for attempt := 0; attempt < 20; attempt++ {
		total := 0
		for i := range s.users {
			total += s.users[i].weight
		}
		x := r.Intn(total)
		var ui *userInfo
		for i := range s.users {
			x -= s.users[i].weight
			if x < 0 {
				ui = &s.users[i]
				break
			}
		}
		if ui != nil && s.userAdoption[ui.asn] <= day {
			return ui
		}
	}
	return nil
}

func (s *Scenario) buildIntent(r *rand.Rand, day int, dayStart time.Time, ui *userInfo) Intent {
	in := Intent{
		Day:   day,
		User:  ui.asn,
		Start: dayStart.Add(time.Duration(r.Intn(86400)) * time.Second),
	}
	in.Prefix = s.victimPrefix(r, ui.asn)

	// Provider selection: 72% single, 28% multiple (Fig 7b), capped by
	// what the user can reach and has adopted.
	var provs []bgp.ASN
	for _, p := range ui.providers {
		if s.providerAdoption[p] <= day {
			provs = append(provs, p)
		}
	}
	var ixps []int
	for _, x := range ui.ixps {
		if s.ixpAdoption[x] <= day {
			ixps = append(ixps, x)
		}
	}
	nServices := len(provs) + len(ixps)
	want := 1
	if nServices > 1 && r.Float64() < 0.28 {
		// Multi-provider events (28%, Fig 7b); half of them blackhole at
		// every reachable service — the behaviour of a victim under a
		// serious volumetric attack, and the events whose data-plane
		// effect §10 measures.
		if r.Float64() < 0.3 {
			want = nServices
		} else {
			want = 2 + r.Intn(nServices-1)
		}
		if want > 15 {
			want = 15
		}
	}
	// IXP blackholing is free for members, so members reach for it
	// eagerly (IXPs serve 60% of users, §7).
	if want == 1 && len(ixps) > 0 && r.Float64() < 0.3 {
		in.IXPs = append(in.IXPs, ixps[r.Intn(len(ixps))])
		want = 0
	}
	// Pick the rest without replacement, deterministically.
	order := r.Perm(nServices)
	for _, idx := range order {
		if want == 0 {
			break
		}
		if idx < len(provs) {
			in.Providers = append(in.Providers, provs[idx])
		} else {
			xid := ixps[idx-len(provs)]
			dup := false
			for _, have := range in.IXPs {
				if have == xid {
					dup = true
				}
			}
			if dup {
				continue
			}
			in.IXPs = append(in.IXPs, xid)
		}
		want--
	}

	in.Bundled = r.Float64() < s.Cfg.FracBundled
	in.NoExport = r.Float64() < s.Cfg.FracNoExport
	in.Misconfigured = r.Float64() < s.Cfg.FracMisconfig
	in.Pattern = s.pattern(r)
	return in
}

// victimPrefix picks the blackholed prefix: 97% /32 host routes, a few
// /24s and intermediate lengths, and under 1% IPv6 (§5.1).
func (s *Scenario) victimPrefix(r *rand.Rand, user bgp.ASN) netip.Prefix {
	as := s.Topo.AS(user)
	var base netip.Prefix
	for _, p := range as.Prefixes {
		if p.Addr().Is4() {
			base = p
			break
		}
	}
	if r.Float64() < 0.008 {
		for _, p := range as.Prefixes {
			if p.Addr().Is6() {
				a := p.Addr().As16()
				a[15] = byte(1 + r.Intn(250))
				return netip.PrefixFrom(netip.AddrFrom16(a), 128)
			}
		}
	}
	if !base.IsValid() {
		return netip.Prefix{}
	}
	b := base.Addr().As4()
	host := netip.AddrFrom4([4]byte{b[0], b[1], byte(r.Intn(64)), byte(1 + r.Intn(250))})
	x := r.Float64()
	switch {
	case x < 0.97:
		return netip.PrefixFrom(host, 32)
	case x < 0.985:
		p, _ := host.Prefix(24)
		return p
	default:
		p, _ := host.Prefix(25 + r.Intn(7))
		return p
	}
}

// pattern draws the event's ON/OFF schedule: 70% short probing bursts,
// 20% medium events, 8% long-lived, 2% very long-lived (Fig 8).
func (s *Scenario) pattern(r *rand.Rand) []Phase {
	x := r.Float64()
	if s.Cfg.ShortEpisodeBias > 0 && r.Float64() < s.Cfg.ShortEpisodeBias {
		// Forced into the probing branch: flash-crowd waves are made of
		// short-lived episodes.
		x = 0
	}
	switch {
	case x < 0.62:
		// Probing: 1-10 repetitions of sub-minute ON, 1-4 minute OFF
		// (>70% of ungrouped events last a minute or less, Fig 8a).
		n := 1 + r.Intn(10)
		out := make([]Phase, n)
		for i := range out {
			out[i] = Phase{
				On:  time.Duration(15+r.Intn(40)) * time.Second,
				Off: time.Duration(60+r.Intn(180)) * time.Second,
			}
		}
		return out
	case x < 0.75:
		// Medium: 10 minutes to 16 hours.
		return []Phase{{On: time.Duration(10+r.Intn(950)) * time.Minute}}
	case x < 0.95:
		// Long-lived: 16 hours to 2 weeks (~30% of grouped periods
		// exceed 16 hours, Fig 8a).
		return []Phase{{On: time.Duration(16+r.Intn(320)) * time.Hour}}
	default:
		// Very long-lived: 1-3 months (reputation blocks, stale
		// misconfigurations).
		return []Phase{{On: time.Duration(30+r.Intn(60)) * 24 * time.Hour}}
	}
}

// misconfigFullTable emits the spike-(A) event: dozens of /32s across
// the academic network's space, all lasting under two minutes.
func (s *Scenario) misconfigFullTable(r *rand.Rand, dayStart time.Time) []Intent {
	// Pick a deterministic education/research user.
	var edu *userInfo
	for i := range s.users {
		if s.Topo.AS(s.users[i].asn).Kind() == topology.KindEducationResearchNfP {
			edu = &s.users[i]
			break
		}
	}
	if edu == nil && len(s.users) > 0 {
		edu = &s.users[0]
	}
	if edu == nil {
		return nil
	}
	start := dayStart.Add(10 * time.Hour)
	n := 40 + r.Intn(40)
	out := make([]Intent, 0, n)
	for i := 0; i < n; i++ {
		in := Intent{
			Day:     int(dayStart.Sub(TimelineStart).Hours() / 24),
			User:    edu.asn,
			Start:   start,
			Bundled: true,
			Pattern: []Phase{{On: time.Duration(90+r.Intn(25)) * time.Second}},
		}
		in.Prefix = s.victimPrefix(r, edu.asn)
		if len(edu.providers) > 0 {
			in.Providers = []bgp.ASN{edu.providers[0]}
		}
		in.IXPs = edu.ixps
		out = append(out, in)
	}
	return out
}

// Materialize turns intents into collector observations. Each intent is
// propagated once, for its first ON phase; propagation does not depend on
// time, so later ON phases are the same observations restamped. A phase
// ends with an explicit withdrawal (80%) or an implicit one (20%,
// re-announcement without communities). results has one entry per phase,
// and an intent's phases share one *Result. Observations are returned
// unsorted; feed them through package stream for time ordering.
//
// The withdrawal coin stream is keyed by seed and the intent's index
// within intents (its day), not by the day: two days draw the same coins
// for their idx-th intents. The golden outputs pin that stream.
func Materialize(d *collector.Deployment, topo *topology.Topology, intents []Intent, seed int64) ([]collector.Observation, []*collector.Result) {
	// Pre-size for the common shape: a few ON phases per intent, each
	// producing an announcement plus a matching withdrawal batch. The
	// estimate only seeds capacity; each intent then grows obs once, by
	// exactly what its phases append.
	nPhases := 0
	for i := range intents {
		nPhases += len(intents[i].Pattern)
	}
	obs := make([]collector.Observation, 0, 16*nPhases)
	results := make([]*collector.Result, 0, nPhases)
	for idx, in := range intents {
		if !in.Prefix.IsValid() {
			continue
		}
		coin := newCoins(seed ^ int64(idx)*0x5851F42D4C957F2D)
		t := in.Start
		res := d.Propagate(in.Announcement(topo))
		obs = slices.Grow(obs, 2*len(in.Pattern)*len(res.Observations))
		for i, ph := range in.Pattern {
			results = append(results, res)
			if i == 0 {
				obs = append(obs, res.Observations...)
			} else {
				obs = d.AppendRestamped(obs, res, t, collector.RestampRepeat)
			}
			end := collector.RestampStripped
			if coin.Float64() < 0.8 {
				end = collector.RestampWithdraw
			}
			t = t.Add(ph.On)
			obs = d.AppendRestamped(obs, res, t, end)
			t = t.Add(ph.Off)
		}
	}
	return obs, results
}
