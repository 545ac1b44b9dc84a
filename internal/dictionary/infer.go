package dictionary

import (
	"maps"
	"net/netip"
	"slices"

	"bgpblackholing/internal/bgp"
)

// CommunityStats accumulates the prefix-length profile of one community
// across a BGP update corpus: the raw material of Figure 2.
type CommunityStats struct {
	Community bgp.Community
	// LenCounts counts announcements per prefix length the community
	// appeared on.
	LenCounts map[int]int
	// Total is the total number of announcements carrying the community.
	Total int
	// CoOccurredWithKnown is true when the community appeared at least
	// once on an announcement together with a documented blackhole
	// community — the confidence requirement of §4.1.
	CoOccurredWithKnown bool
}

// FractionAtLen returns the fraction of occurrences at prefix length l.
func (s *CommunityStats) FractionAtLen(l int) float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.LenCounts[l]) / float64(s.Total)
}

// FractionMoreSpecificThan24 returns the fraction of occurrences on
// prefixes more specific than /24.
func (s *CommunityStats) FractionMoreSpecificThan24() float64 {
	if s.Total == 0 {
		return 0
	}
	n := 0
	for l, c := range s.LenCounts {
		if l > 24 {
			n += c
		}
	}
	return float64(n) / float64(s.Total)
}

// InferenceResult holds the outcome of the dictionary-extension pass.
type InferenceResult struct {
	// Stats indexes the per-community prefix-length profiles of every
	// community observed in the corpus.
	Stats map[bgp.Community]*CommunityStats
	// Inferred lists communities inferred to be blackhole communities
	// but lacking documentation; the paper reports them separately
	// (Table 2 parentheses) and keeps them out of the documented
	// dictionary.
	Inferred []*Entry
}

// Collector ingests BGP announcements and accumulates community
// statistics for inference. The zero value is not usable; call
// NewCollector.
//
// Each distinct (community, prefix) application is counted once, no
// matter how many vantage points observe it: a /24 announcement
// propagates to every collector session while a blackholed /32 is
// widely suppressed, and counting raw observations would let that
// propagation asymmetry swamp the prefix-length profile.
type Collector struct {
	dict  *Dictionary
	stats map[bgp.Community]*CommunityStats
	seen  map[commPrefix]bool
}

// commPrefix keys seen: a community and one IPv4 prefix, packed.
type commPrefix struct {
	c    bgp.Community
	addr [4]byte
	bits uint8
}

// NewCollector returns a Collector inferring against the documented
// dictionary d.
func NewCollector(d *Dictionary) *Collector {
	return &Collector{
		dict:  d,
		stats: map[bgp.Community]*CommunityStats{},
		seen:  map[commPrefix]bool{},
	}
}

// Observe feeds one announcement's communities and prefixes into the
// statistics. Withdrawals carry no communities and are ignored, as are
// IPv6 prefixes: the prefix-length analysis is an IPv4 one (an IPv6 /32
// is an ordinary aggregate, not a host route), and IPv4 accounts for
// over 96% of the datasets (§3). An application already seen allocates
// nothing.
func (c *Collector) Observe(u *bgp.Update) {
	if len(u.Communities) == 0 || !slices.ContainsFunc(u.Announced, is4) {
		return
	}
	hasKnown := false
	for _, comm := range u.Communities {
		if c.dict.Lookup(comm) != nil {
			hasKnown = true
			break
		}
	}
	for _, comm := range u.Communities {
		s := c.stats[comm]
		if s == nil {
			s = &CommunityStats{Community: comm, LenCounts: map[int]int{}}
			c.stats[comm] = s
		}
		for _, p := range u.Announced {
			if !is4(p) {
				continue
			}
			key := commPrefix{comm, p.Addr().As4(), uint8(p.Bits())}
			if c.seen[key] {
				continue
			}
			c.seen[key] = true
			s.LenCounts[p.Bits()]++
			s.Total++
		}
		if hasKnown && c.dict.Lookup(comm) == nil {
			s.CoOccurredWithKnown = true
		}
	}
}

func is4(p netip.Prefix) bool { return p.Addr().Is4() }

// minOccurrences is the support threshold below which a community's
// profile is considered noise.
const minOccurrences = 3

// exclusivityThreshold is the fraction of occurrences that must fall on
// prefixes more specific than /24 for a community to be a blackhole
// candidate ("almost exclusively" in §4.1).
const exclusivityThreshold = 0.95

// Infer runs the Figure 2 extension: communities applied almost
// exclusively to prefixes more specific than /24, co-occurring at least
// once with a documented blackhole community, whose high 16 bits encode
// a public ASN, and which are neither already documented as blackhole
// nor documented for another purpose.
func (c *Collector) Infer() *InferenceResult {
	res := &InferenceResult{Stats: c.stats}
	for _, comm := range slices.Sorted(maps.Keys(c.stats)) {
		s := c.stats[comm]
		if s.Total < minOccurrences {
			continue
		}
		if c.dict.Lookup(comm) != nil || c.dict.IsNonBlackhole(comm) {
			continue // documented, as blackhole or for another purpose
		}
		if !s.CoOccurredWithKnown {
			continue
		}
		if s.FractionMoreSpecificThan24() < exclusivityThreshold {
			continue
		}
		owner := bgp.ASN(comm.High())
		if !owner.IsPublic() {
			// Without documentation such communities cannot be mapped to
			// a provider (§4.1) — ignored.
			continue
		}
		res.Inferred = append(res.Inferred, &Entry{
			Community: comm,
			Providers: []bgp.ASN{owner},
			Doc:       0, // DocNone
		})
	}
	return res
}
