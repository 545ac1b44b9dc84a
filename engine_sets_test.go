package bgpblackholing

import (
	"errors"
	"io"
	"math"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/core"
	"bgpblackholing/internal/stream"
)

// replayElems collects the elements of the SmallOptions replay of days
// [800, 810), the window TestReplayOrderDoesNotChangeInference holds.
func replayElems(t *testing.T) []*stream.Elem {
	t.Helper()
	src := smallPipeline(t).Replay(800, 810)
	defer src.Close()
	var elems []*stream.Elem
	for {
		el, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		elems = append(elems, el)
	}
	if len(elems) == 0 {
		t.Fatal("the replay has no elements")
	}
	return elems
}

// infer runs elems through a fresh engine and returns its closed events.
func infer(p *Pipeline, elems []*stream.Elem) []*core.Event {
	engine := core.NewEngine(p.Dict, p.Topo)
	for _, el := range elems {
		engine.Process(el)
	}
	engine.Flush(elems[len(elems)-1].Update.Time.Add(time.Hour))
	return engine.Events()
}

func cloneKeyed[K, V any](s []core.Keyed[K, []V]) []core.Keyed[K, []V] {
	out := slices.Clone(s)
	for i := range out {
		out[i].Val = slices.Clone(out[i].Val)
	}
	return out
}

// cloneEvent copies ev with every set and keyed list in memory of its own.
func cloneEvent(ev *core.Event) *core.Event {
	c := *ev
	c.Providers = slices.Clone(ev.Providers)
	c.Users = slices.Clone(ev.Users)
	c.Communities = slices.Clone(ev.Communities)
	c.Platforms = slices.Clone(ev.Platforms)
	c.Peers = slices.Clone(ev.Peers)
	c.ProviderDistances = slices.Clone(ev.ProviderDistances)
	c.DirectProviders = slices.Clone(ev.DirectProviders)
	c.ProvidersByPlatform = cloneKeyed(ev.ProvidersByPlatform)
	c.UsersByPlatform = cloneKeyed(ev.UsersByPlatform)
	c.ProviderUsers = cloneKeyed(ev.ProviderUsers)
	return &c
}

// appendToCap appends v to a copy of s's header until it is full: it
// writes every element of s's spare capacity and leaves s as it was.
func appendToCap[T any](s []T, v T) {
	for len(s) < cap(s) {
		s = append(s, v)
	}
}

// spoil appends a sentinel member to each of ev's sets and keyed lists,
// inner lists included, up to their capacity.
func spoil(ev *core.Event) {
	provider := core.ProviderRef{Kind: core.ProviderIXP, IXPID: -1}
	asn := bgp.ASN(math.MaxUint32)
	appendToCap(ev.Providers, provider)
	appendToCap(ev.Users, asn)
	appendToCap(ev.Communities, bgp.Community(math.MaxUint32))
	appendToCap(ev.Platforms, collector.Platform(-1))
	appendToCap(ev.Peers, netip.IPv6Unspecified())
	appendToCap(ev.ProviderDistances, core.Keyed[core.ProviderRef, int]{Key: provider, Val: -2})
	appendToCap(ev.DirectProviders, provider)
	for _, k := range ev.ProvidersByPlatform {
		appendToCap(k.Val, provider)
	}
	for _, k := range ev.UsersByPlatform {
		appendToCap(k.Val, asn)
	}
	for _, k := range ev.ProviderUsers {
		appendToCap(k.Val, asn)
	}
	appendToCap(ev.ProvidersByPlatform, core.Keyed[collector.Platform, []core.ProviderRef]{Key: -1})
	appendToCap(ev.UsersByPlatform, core.Keyed[collector.Platform, []bgp.ASN]{Key: -1})
	appendToCap(ev.ProviderUsers, core.Keyed[core.ProviderRef, []bgp.ASN]{Key: provider})
}

// TestClosedEventSetsDoNotAlias holds the engine's set memory to the
// contract of a slice it hands out: what an event's sets may grow into
// is theirs alone. Every closed event of a replay is cloned, then every
// set and keyed list of every event is appended to up to its capacity
// (through a copy of its header, so the event itself reads the same),
// and every event must still equal its clone: no append wrote into a
// member another set, of this event or another, holds.
func TestClosedEventSetsDoNotAlias(t *testing.T) {
	p := smallPipeline(t)
	events := infer(p, replayElems(t))
	if len(events) < 100 {
		t.Fatalf("%d events: the replay is too small to share memory", len(events))
	}
	clones := make([]*core.Event, len(events))
	for i, ev := range events {
		clones[i] = cloneEvent(ev)
	}
	for _, ev := range events {
		spoil(ev)
	}
	for i, ev := range events {
		if !reflect.DeepEqual(ev, clones[i]) {
			t.Fatalf("event %d (%s, seq %d) changed when the others' sets were appended to:\n got %+v\nwant %+v", i, ev.Prefix, ev.Seq, ev, clones[i])
		}
	}
}

// TestEngineAllocsPerEvent bounds what the engine allocates per closed
// event over a replay's elements. An event's state and the event itself
// are one allocation, and the copy of the inputs it last absorbed is
// another (made again only when a longer list arrives). Its sets and
// peer marks are carved from the engine's chunks, a 4 KiB chunk of each
// member type shared by many events, and the prefix map, the peer table
// and the closed list grow by doubling: together well under two more.
func TestEngineAllocsPerEvent(t *testing.T) {
	p := smallPipeline(t)
	elems := replayElems(t)
	var events int
	allocs := testing.AllocsPerRun(1, func() { events = len(infer(p, elems)) })
	perEvent := allocs / float64(events)
	t.Logf("%.0f allocations over %d elements and %d events: %.2f per event", allocs, len(elems), events, perEvent)
	if perEvent > 4 {
		t.Fatalf("%.2f allocations per closed event, want at most 4", perEvent)
	}
}
