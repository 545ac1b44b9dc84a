package core

// Property-based tests over randomized update sequences: whatever the
// input order, the engine must maintain its structural invariants.

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/collector"
)

// peerLedger is the naive reference for the engine's per-(prefix, peer)
// state (§4.2): a set of pairs and the transition counts a reader of
// the paper would keep by hand. It knows nothing of events.
type peerLedger struct {
	active                     map[[2]string]bool
	closed, explicit, implicit uint64
}

func (l *peerLedger) prefixes() int {
	seen := map[string]bool{}
	for k := range l.active {
		seen[k[0]] = true
	}
	return len(seen)
}

// end removes one pair, reporting whether it was there; the prefix's
// last pair out closes its event.
func (l *peerLedger) end(prefix, peer string) bool {
	k := [2]string{prefix, peer}
	if !l.active[k] {
		return false
	}
	delete(l.active, k)
	for other := range l.active {
		if other[0] == prefix {
			return true
		}
	}
	l.closed++
	return true
}

// flush closes every open event and forgets every pair.
func (l *peerLedger) flush() {
	l.closed += uint64(l.prefixes())
	l.active = map[[2]string]bool{}
}

// check compares the engine's view with the ledger's.
func (l *peerLedger) check(e *Engine) error {
	m := e.Metrics()
	if got, want := e.ActiveCount(), l.prefixes(); got != want {
		return fmt.Errorf("ActiveCount = %d, ledger holds %d prefixes", got, want)
	}
	if m.EventsClosed != l.closed || m.ExplicitEnds != l.explicit || m.ImplicitEnds != l.implicit {
		return fmt.Errorf("closed/explicit/implicit = %d/%d/%d, ledger counted %d/%d/%d",
			m.EventsClosed, m.ExplicitEnds, m.ImplicitEnds, l.closed, l.explicit, l.implicit)
	}
	return nil
}

// randomSequence drives one engine with a random mix of blackhole
// announcements, plain announcements and withdrawals over a small
// universe of prefixes and peers — with one Flush somewhere in the
// middle, the replay-then-live handover — holding it to the ledger after
// every update, then checks invariants over the closed events.
func randomSequence(seed int64) error {
	topo, dict := testWorld()
	e := NewEngine(dict, topo)
	r := rand.New(rand.NewSource(seed))
	ledger := &peerLedger{active: map[[2]string]bool{}}

	prefixes := []string{"31.0.0.1/32", "31.0.0.2/32", "31.0.0.3/32"}
	peers := []struct {
		ip string
		as bgp.ASN
	}{
		{"22.0.1.1", 100},
		{"22.0.2.1", 300},
	}
	bh := bgp.MakeCommunity(100, 666)

	n := 20 + r.Intn(60)
	flushAt := r.Intn(n)
	var now time.Duration
	for i := 0; i < n; i++ {
		now += time.Duration(1+r.Intn(300)) * time.Second
		if i == flushAt {
			e.Flush(t0.Add(now))
			ledger.flush()
			if err := ledger.check(e); err != nil {
				return fmt.Errorf("step %d (flush): %v", i, err)
			}
			continue
		}
		p := prefixes[r.Intn(len(prefixes))]
		peer := peers[r.Intn(len(peers))]
		switch r.Intn(3) {
		case 0: // blackhole announcement
			e.ProcessUpdate(announce(peer.ip, peer.as, now, p, []bgp.ASN{100, 200}, bh), "rrc00", collector.PlatformRIS)
			ledger.active[[2]string{p, peer.ip}] = true
		case 1: // plain announcement (implicit withdrawal)
			e.ProcessUpdate(announce(peer.ip, peer.as, now, p, []bgp.ASN{100, 200}), "rrc00", collector.PlatformRIS)
			if ledger.end(p, peer.ip) {
				ledger.implicit++
			}
		case 2: // explicit withdrawal
			e.ProcessUpdate(withdraw(peer.ip, peer.as, now, p), "rrc00", collector.PlatformRIS)
			if ledger.end(p, peer.ip) {
				ledger.explicit++
			}
		}
		if err := ledger.check(e); err != nil {
			return fmt.Errorf("step %d: %v", i, err)
		}
	}
	e.Flush(t0.Add(now + time.Hour))

	// Invariant 1: after Flush nothing is active.
	if e.ActiveCount() != 0 {
		return fmt.Errorf("%d active after the final flush", e.ActiveCount())
	}
	events := e.Events()
	byPrefix := map[netip.Prefix][]*Event{}
	for _, ev := range events {
		// Invariant 2: sane bounds and non-empty provider/user sets.
		if ev.End.Before(ev.Start) {
			return fmt.Errorf("event %s ends before it starts", ev.Prefix)
		}
		if len(ev.Providers) == 0 || ev.Detections == 0 {
			return fmt.Errorf("event %s has no provider or no detection", ev.Prefix)
		}
		// Invariant 3: per-provider distances exist for every provider.
		for pr := range ev.Providers {
			if _, ok := ev.ProviderDistances[pr]; !ok {
				return fmt.Errorf("event %s: provider %s has no distance", ev.Prefix, pr)
			}
		}
		byPrefix[ev.Prefix] = append(byPrefix[ev.Prefix], ev)
	}
	// Invariant 4: events of one prefix never overlap in time.
	for _, evs := range byPrefix {
		for i := 0; i < len(evs); i++ {
			for j := i + 1; j < len(evs); j++ {
				a, b := evs[i], evs[j]
				if a.Start.Before(b.End) && b.Start.Before(a.End) &&
					!a.End.Equal(b.Start) && !b.End.Equal(a.Start) {
					return fmt.Errorf("events of %s overlap", a.Prefix)
				}
			}
		}
	}
	return nil
}

func TestEngineInvariantsUnderRandomSequences(t *testing.T) {
	f := func(seed int64) bool {
		err := randomSequence(seed)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
		}
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: grouping never loses events, never overlaps periods of the
// same prefix, and period bounds envelope their events.
func TestGroupingInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		prefix := netip.MustParsePrefix("31.0.0.1/32")
		var events []*Event
		cur := t0
		for i := 0; i < 3+r.Intn(20); i++ {
			cur = cur.Add(time.Duration(30+r.Intn(1200)) * time.Second)
			end := cur.Add(time.Duration(10+r.Intn(600)) * time.Second)
			events = append(events, &Event{Prefix: prefix, Start: cur, End: end})
			cur = end
		}
		periods := Group(events, DefaultGroupTimeout)
		total := 0
		for _, p := range periods {
			total += len(p.Events)
			for _, ev := range p.Events {
				if ev.Start.Before(p.Start) || ev.End.After(p.End) {
					return false
				}
			}
		}
		if total != len(events) {
			return false
		}
		for i := 1; i < len(periods); i++ {
			gap := periods[i].Start.Sub(periods[i-1].End)
			if gap <= DefaultGroupTimeout {
				return false // should have been merged
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiPrefixUpdateTracksEachPrefix(t *testing.T) {
	topo, dict := testWorld()
	e := NewEngine(dict, topo)
	bh := bgp.MakeCommunity(100, 666)
	u := &bgp.Update{
		Time:   t0,
		PeerIP: netip.MustParseAddr("22.0.1.1"),
		PeerAS: 100,
		Announced: []netip.Prefix{
			netip.MustParsePrefix("31.0.0.1/32"),
			netip.MustParsePrefix("31.0.0.2/32"),
		},
		Path:        bgp.NewPath(100, 200),
		Communities: []bgp.Community{bh},
	}
	e.ProcessUpdate(u, "rrc00", collector.PlatformRIS)
	if e.ActiveCount() != 2 {
		t.Fatalf("active = %d, want one event per announced prefix", e.ActiveCount())
	}
	// Withdraw one; the other stays active.
	e.ProcessUpdate(withdraw("22.0.1.1", 100, time.Minute, "31.0.0.1/32"), "rrc00", collector.PlatformRIS)
	if e.ActiveCount() != 1 {
		t.Fatalf("active = %d after partial withdrawal", e.ActiveCount())
	}
}

func TestIPv6Blackholing(t *testing.T) {
	topo, dict := testWorld()
	e := NewEngine(dict, topo)
	bh := bgp.MakeCommunity(100, 666)
	u := &bgp.Update{
		Time:        t0,
		PeerIP:      netip.MustParseAddr("2001:db8:22::1"),
		PeerAS:      100,
		Announced:   []netip.Prefix{netip.MustParsePrefix("2a00:1:2::1/128")},
		Path:        bgp.NewPath(100, 200),
		Communities: []bgp.Community{bh},
	}
	e.ProcessUpdate(u, "rrc00", collector.PlatformRIS)
	if e.ActiveCount() != 1 {
		t.Fatal("IPv6 host route not tracked")
	}
	e.Flush(t0.Add(time.Hour))
	if len(e.Events()) != 1 {
		t.Fatal("IPv6 event lost")
	}
}
