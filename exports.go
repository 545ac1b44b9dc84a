package bgpblackholing

import (
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/core"
	"bgpblackholing/internal/dictionary"
	"bgpblackholing/internal/enrich"
	"bgpblackholing/internal/irr"
	"bgpblackholing/internal/rpki"
	"bgpblackholing/internal/stream"
	"bgpblackholing/internal/topology"
	"bgpblackholing/internal/workload"
)

// This file re-exports the stable types of the detection API, so that
// commands, examples and downstream users never import the internal
// packages: the root package is the facade. The aliases are identities
// — a *core.Event and a *bgpblackholing.Event are the same type — so
// values flow freely between the facade and the building blocks.

// Stable detection types.
type (
	// Event is one correlated prefix-level blackholing event: the span
	// during which at least one BGP peer observed the prefix blackholed.
	Event = core.Event
	// ProviderRef identifies one inferred blackholing provider.
	ProviderRef = core.ProviderRef
	// Metrics counts what the engine has processed, for live-deployment
	// observability.
	Metrics = core.Metrics
	// Period is a group of events for the same prefix with gaps at most
	// the grouping timeout (the paper's 5-minute aggregation).
	Period = core.Period
	// Update is one BGP UPDATE message in the internal model.
	Update = bgp.Update
	// Elem is one stream element: an update plus its collection context.
	Elem = stream.Elem
)

// BGP model types.
type (
	// ASN is an autonomous system number.
	ASN = bgp.ASN
	// Community is an RFC 1997 BGP community.
	Community = bgp.Community
	// Path is a BGP AS path (sequences and sets, with prepending).
	Path = bgp.Path
)

// World types surfaced by Pipeline fields and results.
type (
	// Platform identifies a collection platform (RIS, Route Views, PCH,
	// CDN).
	Platform = collector.Platform
	// Dictionary is the blackhole-communities dictionary (§4.1).
	Dictionary = dictionary.Dictionary
	// CommunityStats is the per-community prefix-length profile feeding
	// the Figure 2 inference.
	CommunityStats = dictionary.CommunityStats
	// Topology is the synthetic AS-level Internet.
	Topology = topology.Topology
	// IXP is one Internet exchange point of the topology.
	IXP = topology.IXP
	// Kind classifies an AS (transit, content, access, ...).
	Kind = topology.Kind
	// Intent is one scenario blackholing intent (ground truth).
	Intent = workload.Intent
	// Spike is one headline DDoS attack of the longitudinal scenario.
	Spike = workload.Spike
)

// Legitimacy enrichment types (see NewAnnotator, Pipeline.Annotator,
// Query.Enrich and the /legitimacy HTTP endpoint).
type (
	// RPKIRegistry is the ROA registry: RFC 6811 origin validation reads
	// one immutable index, one map probe per distinct ROA prefix length.
	RPKIRegistry = rpki.Registry
	// ROA is one Route Origin Authorization.
	ROA = rpki.ROA
	// Annotator computes per-event legitimacy annotations from a ROA
	// registry and the blackhole-communities dictionary.
	Annotator = enrich.Annotator
	// Annotation is the legitimacy view of one event: RPKI validity per
	// origin, documentation status per community, combined verdict.
	Annotation = enrich.Annotation
	// OriginValidity is the RFC 6811 outcome for one inferred origin.
	OriginValidity = enrich.OriginValidity
	// CommunityDoc is the documentation status of one matched community.
	CommunityDoc = enrich.CommunityDoc
)

// Legitimacy verdicts (Annotation.Legitimacy values).
const (
	VerdictLegitimate   = enrich.VerdictLegitimate
	VerdictQuestionable = enrich.VerdictQuestionable
	VerdictIllegitimate = enrich.VerdictIllegitimate
)

// NewAnnotator builds a legitimacy annotator over a ROA registry and a
// blackhole-communities dictionary; either may be nil (that dimension
// is then skipped). Pipeline.Annotator wires both from a built world.
func NewAnnotator(reg *RPKIRegistry, dict *Dictionary) *Annotator {
	return enrich.New(reg, dict)
}

// SummarizeRPKI folds per-origin validation states into one: "valid"
// when any origin validates, else "invalid" when any covering ROA
// exists, else "not-found" — the same precedence as
// Annotation.RPKISummary, usable on EventRecord.RPKI wire data.
func SummarizeRPKI(states []OriginValidity) string { return enrich.SummarizeRPKI(states) }

// Provider kinds (ProviderRef.Kind).
const (
	ProviderAS  = core.ProviderAS
	ProviderIXP = core.ProviderIXP
)

// NoPath is the AS-distance value recorded when the provider does not
// appear on the AS path at all (community bundling, Fig 7c "No-path").
const NoPath = core.NoPath

// DefaultGroupTimeout is the paper's 5-minute event-grouping window.
const DefaultGroupTimeout = core.DefaultGroupTimeout

// Collection platforms.
const (
	PlatformRIS = collector.PlatformRIS
	PlatformRV  = collector.PlatformRV
	PlatformPCH = collector.PlatformPCH
	PlatformCDN = collector.PlatformCDN
)

// Well-known communities and origins.
const (
	// CommunityBlackhole is the RFC 7999 BLACKHOLE community (65535:666).
	CommunityBlackhole = bgp.CommunityBlackhole
	// CommunityNoExport is the RFC 1997 NO_EXPORT well-known community.
	CommunityNoExport = bgp.CommunityNoExport
	// OriginIGP is the IGP origin attribute value.
	OriginIGP = bgp.OriginIGP
)

// Documentation sources: where a blackholing service is documented,
// and where a collected piece of operator documentation came from.
const (
	DocNone    = topology.DocNone
	DocIRR     = topology.DocIRR
	DocWeb     = topology.DocWeb
	DocPrivate = topology.DocPrivate

	SourceIRR = irr.SourceIRR
	SourceWeb = irr.SourceWeb
)

// TimelineStart is day 0 of the longitudinal scenario (2014-12-01).
var TimelineStart = workload.TimelineStart

// NewPath builds an AS path of one sequence segment.
func NewPath(asns ...ASN) Path { return bgp.NewPath(asns...) }

// MakeCommunity packs an (asn, value) pair into an RFC 1997 community.
func MakeCommunity(asn uint16, value uint16) Community { return bgp.MakeCommunity(asn, value) }

// Group merges per-prefix events with inter-event gaps of at most
// timeout into periods — the paper's 5-minute aggregation that turns
// the ON/OFF probing practice into operator-level blackholing periods.
func Group(events []*Event, timeout time.Duration) []*Period {
	return core.Group(events, timeout)
}

// Kinds lists the AS kinds in canonical order.
func Kinds() []Kind { return topology.Kinds() }

// DefaultSpikes lists the scenario's headline DDoS attacks.
func DefaultSpikes() []Spike { return workload.DefaultSpikes() }
