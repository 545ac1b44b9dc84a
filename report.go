package bgpblackholing

import (
	"io"
	"time"

	"bgpblackholing/internal/analysis"
	"bgpblackholing/internal/compliance"
	"bgpblackholing/internal/dataplane"
	"bgpblackholing/internal/lookingglass"
	"bgpblackholing/internal/scans"
)

// This file re-exports the evaluation surface — every table and figure
// of the paper, the data-plane efficacy simulation (§10), the
// looking-glass study (§5.2) and the RFC 7999/5635 compliance audit
// (§11) — so report generators build on the facade alone.

// Analysis result types.
type (
	// Table1Row is one dataset-overview row (Table 1).
	Table1Row = analysis.Table1Row
	// Table2Row is one communities-dictionary row (Table 2).
	Table2Row = analysis.Table2Row
	// Table3Row is one blackhole-visibility row (Table 3).
	Table3Row = analysis.Table3Row
	// Table4Row is one per-provider-type visibility row (Table 4).
	Table4Row = analysis.Table4Row
	// Figure2SummaryRow aggregates the prefix-length profile of
	// blackhole vs non-blackhole communities (Figure 2).
	Figure2SummaryRow = analysis.Figure2SummaryRow
	// DailyPoint is one day of the longitudinal series (Figure 4).
	DailyPoint = analysis.DailyPoint
	// Figure9Sample carries the traceroute path-length differences of
	// the efficacy campaign (Figure 9a/9b).
	Figure9Sample = analysis.Figure9Sample
	// CDF is an empirical distribution over float64 samples.
	CDF = analysis.CDF
	// Histogram counts integer-keyed samples.
	Histogram = analysis.Histogram
	// Validation scores inferred events against scenario ground truth
	// (§10 passive validation).
	Validation = analysis.Validation
	// ComplianceReport is the RFC 7999 / RFC 5635 scorecard (§11).
	ComplianceReport = compliance.Report
	// Service is one scanned application service (§8).
	Service = scans.Service
)

// Table formatting.
func FormatTable1(rows []Table1Row) string { return analysis.FormatTable1(rows) }
func FormatTable2(rows []Table2Row) string { return analysis.FormatTable2(rows) }
func FormatTable3(rows []Table3Row) string { return analysis.FormatTable3(rows) }
func FormatTable4(rows []Table4Row) string { return analysis.FormatTable4(rows) }

// SummarizeFigure2 aggregates the per-community prefix-length profile
// (RunResult.InferStats.Stats) into blackhole vs non-blackhole rows.
func SummarizeFigure2(stats map[Community]*CommunityStats, dict *Dictionary) []Figure2SummaryRow {
	return analysis.SummarizeFigure2(stats, dict)
}

// Figure4 computes the daily longitudinal activity series.
func Figure4(events []*Event, start time.Time, days int) []DailyPoint {
	return analysis.Figure4(events, start, days)
}

// FormatFigure4 renders the series, a row every max(every, 1) days.
func FormatFigure4(series []DailyPoint, every int) string {
	return analysis.FormatFigure4(series, every)
}

// Figure5a counts blackholed prefixes per transit/access provider and
// per IXP.
func Figure5a(events []*Event, topo *Topology) (transit, ixp []int) {
	return analysis.Figure5a(events, topo)
}

// Figure5b counts blackholed prefixes per user, split by AS kind.
func Figure5b(events []*Event, topo *Topology) map[Kind][]int {
	return analysis.Figure5b(events, topo)
}

// Figure6 counts events per provider and user country.
func Figure6(events []*Event, topo *Topology) (providers, users map[string]int) {
	return analysis.Figure6(events, topo)
}

// TopCountries ranks a Figure6 count map.
var TopCountries = analysis.TopCountries

// Figure7a profiles the services running on blackholed prefixes.
func Figure7a(events []*Event, seed int64) map[Service]int {
	return analysis.Figure7a(events, seed)
}

// Figure7b histograms providers per blackholing event.
func Figure7b(events []*Event) *Histogram { return analysis.Figure7b(events) }

// Figure7c histograms the collector-provider AS distance (NoPath for
// bundling-only inferences).
func Figure7c(events []*Event) *Histogram { return analysis.Figure7c(events) }

// Figure8 returns raw and 5-minute-grouped event durations.
func Figure8(events []*Event, timeout time.Duration) (ungrouped, grouped []time.Duration) {
	return analysis.Figure8(events, timeout)
}

// Figure9ab reduces traceroute measurements to path-length differences.
func Figure9ab(ms []PathMeasurement) Figure9Sample { return analysis.Figure9ab(ms) }

// NewCDFInts builds a CDF over integer samples.
func NewCDFInts(samples []int) *CDF { return analysis.NewCDFInts(samples) }

// NewCDFDurations builds a CDF over durations, in seconds.
func NewCDFDurations(samples []time.Duration) *CDF { return analysis.NewCDFDurations(samples) }

// CSV exports for plotting.
func WriteFigure4CSV(w io.Writer, series []DailyPoint) error {
	return analysis.WriteFigure4CSV(w, series)
}
func WriteHistogramCSV(w io.Writer, label string, h *Histogram) error {
	return analysis.WriteHistogramCSV(w, label, h)
}
func WriteDurationsCSV(w io.Writer, ungrouped, grouped []time.Duration) error {
	return analysis.WriteDurationsCSV(w, ungrouped, grouped)
}
func WriteEventsCSV(w io.Writer, events []*Event) error {
	return analysis.WriteEventsCSV(w, events)
}

// Validate scores events against the scenario intents behind them.
func Validate(events []*Event, intents []Intent) Validation {
	return analysis.Validate(events, intents)
}

// AuditCompliance audits events against RFC 7999 / RFC 5635 (§11).
func AuditCompliance(events []*Event) *ComplianceReport {
	return compliance.AuditEvents(events)
}

// ---------------------------------------------------------------------
// Data-plane efficacy (§10).

type (
	// TraceSimulator runs synthetic traceroutes through the topology.
	TraceSimulator = dataplane.Simulator
	// PathMeasurement is one before/during/after traceroute triple.
	PathMeasurement = dataplane.PathMeasurement
	// BlackholeState describes an active blackholing for the simulator.
	BlackholeState = dataplane.BlackholeState
	// VictimSpec selects one victim prefix for the IPFIX simulation.
	VictimSpec = dataplane.VictimSpec
	// TrafficPoint is one IPFIX sampling interval.
	TrafficPoint = dataplane.TrafficPoint
	// IPFIXConfig sizes the IXP traffic simulation.
	IPFIXConfig = dataplane.IPFIXConfig
	// MemberContribution attributes leaked bytes to an IXP member.
	MemberContribution = dataplane.MemberContribution
)

// DefaultIPFIXConfig is the §10 sampling setup.
func DefaultIPFIXConfig() IPFIXConfig { return dataplane.DefaultIPFIXConfig() }

// SimulateIXPTraffic samples traffic to the victims on the IXP fabric.
func SimulateIXPTraffic(x *IXP, victims []VictimSpec, start time.Time, dur time.Duration, cfg IPFIXConfig) [][]TrafficPoint {
	return dataplane.SimulateIXPTraffic(x, victims, start, dur, cfg)
}

// DropFraction is the fraction of bytes dropped across a series.
func DropFraction(series []TrafficPoint) float64 { return dataplane.DropFraction(series) }

// TopForwarders ranks the non-honouring members still forwarding to a
// victim.
func TopForwarders(x *IXP, v VictimSpec, cfg IPFIXConfig) []MemberContribution {
	return dataplane.TopForwarders(x, v, cfg)
}

// ---------------------------------------------------------------------
// Looking glasses (§5.2).

type (
	// LookingGlasses is a deployment of per-AS looking glasses.
	LookingGlasses = lookingglass.Deployment
)

// DeployLookingGlasses places a looking glass in every AS of the
// topology, with §3's capability mix.
func DeployLookingGlasses(topo *Topology) *LookingGlasses { return lookingglass.Deploy(topo) }
