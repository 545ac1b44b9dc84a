package bgpblackholing

import (
	"strconv"

	"bgpblackholing/internal/alert"
)

// This file is the facade over internal/alert: the alerting hub that
// evaluates compiled rules against events as they close and fans
// matching alerts out to SSE watchers (/watch) and webhooks. See the
// README "Alerting & subscriptions" section for the rule syntax and
// delivery contract.

// Alerting types.
type (
	// AlertRule is one user-defined alert rule: a prefix set with a
	// match mode, plus optional origin/provider/community/min-duration/
	// verdict constraints. Parse one with ParseRule or from JSON.
	AlertRule = alert.Rule
	// Alert is one rule firing on one closed event.
	Alert = alert.Alert
	// AlertHub matches closing events against the rule set and delivers
	// alerts to watchers and webhooks without ever blocking inference.
	AlertHub = alert.Hub
	// AlertHubConfig parameterizes NewAlertHub.
	AlertHubConfig = alert.Config
	// AlertWatcher is one /watch subscriber: a bounded drop-oldest
	// queue of alerts.
	AlertWatcher = alert.Watcher
	// AlertHubStats is the hub's observability snapshot (surfaced in
	// the /stats detector section).
	AlertHubStats = alert.Stats
	// WebhookConfig parameterizes one webhook registration (retries,
	// backoff, queue bound).
	WebhookConfig = alert.WebhookConfig
	// WebhookStats is the delivery ledger for one registered webhook.
	WebhookStats = alert.WebhookStats
	// UnknownAlertRuleError reports a /watch filter naming a rule that
	// does not exist.
	UnknownAlertRuleError = alert.UnknownRuleError
)

// ParseRule parses the compact rule syntax: whitespace-separated
// key=value tokens with comma-separated lists, e.g.
//
//	name=ddos prefix=10.0.0.0/16 mode=covered min-duration=5m verdict=illegitimate,questionable
//
// Keys: name (required), prefix, mode, origin, provider, community,
// min-duration, verdict. Rules also unmarshal from JSON (the /rules
// wire form).
func ParseRule(s string) (AlertRule, error) { return alert.ParseRule(s) }

// NewAlertHub compiles rules into a hub. The config's Annotator
// enables detection-time enrichment (verdict-conditioned rules fire on
// the live stream; /events?enrich=1 later computes the same verdict
// from the same world). The alert wire encoding is the full EventRecord
// wrapped in an {id, rule, event} envelope; see AlertRecord.
func NewAlertHub(rules []AlertRule, cfg AlertHubConfig) (*AlertHub, error) {
	if cfg.Encode == nil {
		cfg.Encode = EncodeAlertRecord
	}
	return alert.NewHub(rules, cfg)
}

// AlertRecord is the alert wire form delivered to webhooks and /watch
// SSE clients: a monotonic id, the firing rule's name, and the full
// event record (enriched when the hub has an annotator). EncodeAlertRecord
// writes it; clients decode it with json.Unmarshal.
type AlertRecord struct {
	ID    uint64      `json:"id"`
	Rule  string      `json:"rule"`
	Event EventRecord `json:"event"`
}

// EncodeAlertRecord is the facade's Config.Encode: a's AlertRecord as
// json.Marshal writes it, with the event written by the read path's
// line writer (appendEventLine) into a fresh buffer per alert.
func EncodeAlertRecord(a *Alert) ([]byte, error) {
	var ann Annotation
	if a.Ann != nil {
		ann = *a.Ann
	}
	b := strconv.AppendUint([]byte(`{"id":`), a.ID, 10)
	b = appendJSONString(append(b, `,"rule":`...), a.Rule)
	b, _, err := appendEventLine(append(b, `,"event":`...), a.Event, ann)
	if err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// SinkToHub attaches a hub as an alerting sink for the current (or
// next) Run: every closing event is published to the hub in closing
// order through the same kind of queue as Subscribe. The hub's
// Publish never blocks (watcher queues drop oldest, webhook queues
// drop newest), so the sink rides an unbounded queue like SinkToStore
// — alerting sees every event, and a stalled alert consumer costs
// bounded hub-side memory, never inference time. The returned wait
// function blocks until the Run has returned and every event has been
// published.
func (d *Detector) SinkToHub(h *AlertHub) (wait func()) {
	done := make(chan struct{})
	d.drain(h.Publish, func() { close(done) })
	return func() { <-done }
}
