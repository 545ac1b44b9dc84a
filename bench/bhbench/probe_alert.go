package main

// Alerting & enrichment layers: the annotator, rule matching, hub
// publish and the alert wire encoding. They move live's alert latency
// and the fleet's enriched covered scans.

import (
	"fmt"
	"time"

	bh "bgpblackholing"
	"bgpblackholing/internal/alert"
)

// hundredRules is a rule set of realistic shape: watched blocks, point
// lookups, origin and community watches, duration floors and verdict
// conditions.
func hundredRules() ([]bh.AlertRule, error) {
	var specs []string
	for i := 0; i < 40; i++ {
		specs = append(specs, fmt.Sprintf("name=net%d prefix=%d.%d.0.0/16 mode=covered", i, 10+20*(i%2), i))
	}
	for i := 0; i < 20; i++ {
		specs = append(specs, fmt.Sprintf("name=host%d prefix=10.%d.7.%d/32 mode=exact", i, i, i+1))
	}
	for i := 0; i < 15; i++ {
		specs = append(specs, fmt.Sprintf("name=lpm%d prefix=31.0.%d.%d mode=lpm", i, i, i+1))
	}
	for i := 0; i < 10; i++ {
		specs = append(specs, fmt.Sprintf("name=asn%d origin=%d", i, 64500+i))
	}
	for i := 0; i < 5; i++ {
		specs = append(specs, fmt.Sprintf("name=comm%d community=%d:666", i, 64500+i))
	}
	for i := 0; i < 5; i++ {
		specs = append(specs, fmt.Sprintf("name=dur%d min-duration=%dm", i, 10*(i+1)))
	}
	for i := 0; i < 5; i++ {
		specs = append(specs, fmt.Sprintf("name=verdict%d verdict=illegitimate,questionable", i))
	}
	rules := make([]bh.AlertRule, len(specs))
	for i, s := range specs {
		r, err := bh.ParseRule(s)
		if err != nil {
			return nil, err
		}
		rules[i] = r
	}
	return rules, nil
}

// alertRig is everything the alert stages need that is not itself a
// stage: compiled rules, a hub with the live workload's one catch-all
// rule and a watcher on it.
type alertRig struct {
	ann     *bh.Annotator
	index   *alert.Index
	hub     *bh.AlertHub
	watcher *bh.AlertWatcher
}

func newAlertRig(p *bh.Pipeline) (*alertRig, error) {
	rules, err := hundredRules()
	if err != nil {
		return nil, err
	}
	r := &alertRig{ann: bh.NewAnnotator(p.RPKIRegistry(), p.Dict)}
	if r.index, err = alert.Compile(rules); err != nil {
		return nil, err
	}
	every, err := bh.ParseRule("name=every")
	if err != nil {
		return nil, err
	}
	// The watcher must hold a whole batch: the stage publishes
	// everything before anything is taken off.
	r.hub, err = bh.NewAlertHub([]bh.AlertRule{every}, bh.AlertHubConfig{
		Annotator: bh.NewAnnotator(p.RPKIRegistry(), p.Dict), WatchBound: 1 << 20})
	if err != nil {
		return nil, err
	}
	if r.watcher, err = r.hub.Watch(nil, 0); err != nil {
		r.hub.Close()
		return nil, err
	}
	return r, nil
}

func (r *alertRig) close() {
	r.watcher.Close()
	r.hub.Close()
}

// alertStages is the tail of the write chain: annotate each closed
// event, match it against a hundred compiled rules, publish it to the
// hub, encode the alerts it fired.
func alertStages(tr *tracer, r *alertRig, events []*bh.Event) error {
	tr.do("enrich.annotate_uncached", len(events), func() {
		for _, ev := range events {
			r.ann.AnnotateUncached(ev)
		}
	})
	tr.do("enrich.annotate_fill", len(events), func() {
		for _, ev := range events {
			r.ann.Annotate(ev)
		}
	})
	tr.do("enrich.annotate_cached", len(events), func() {
		for _, ev := range events {
			r.ann.Annotate(ev)
		}
	})
	tr.do("alert.match", len(events), func() {
		for _, ev := range events {
			r.index.Match(ev, func() string { return r.ann.Annotate(ev).Legitimacy })
		}
	})
	before := int(r.hub.Stats().Alerts)
	tr.do("alert.publish", len(events), func() {
		for _, ev := range events {
			r.hub.Publish(ev)
		}
	})
	// The watcher's pump delivers asynchronously; take exactly what the
	// hub says it fired.
	fired := int(r.hub.Stats().Alerts) - before
	alerts := make([]*bh.Alert, 0, fired)
	var werr error
	tr.do("alert.deliver", fired, func() {
		for len(alerts) < fired {
			select {
			case a := <-r.watcher.C():
				alerts = append(alerts, a)
			case <-time.After(5 * time.Second):
				werr = fmt.Errorf("alert probe: watcher delivered %d of %d alerts", len(alerts), fired)
				return
			}
		}
	})
	if werr != nil {
		return werr
	}
	tr.do("alert.encode", len(alerts), func() {
		for _, a := range alerts {
			a.Payload()
		}
	})
	return nil
}
