package core

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"strings"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/collector"
)

// Keyed is one entry of an Event's keyed evidence: what the event
// recorded (Val) about one provider or platform (Key). A list of them is
// strictly ascending by Key.
type Keyed[K, V any] struct {
	Key K
	Val V
}

// Find returns what list records under k, V's zero value when nothing.
// The lists are a handful of entries long, so it just looks.
func Find[K comparable, V any](list []Keyed[K, V], k K) V {
	for i := range list {
		if list[i].Key == k {
			return list[i].Val
		}
	}
	var zero V
	return zero
}

// insert files v in the strictly ascending set s. Sets are tiny (a
// handful of members; an event's peers, the largest, are sorted at close
// instead) and most detections refresh an event that has its member
// already, so a hit is found by looking — no call through compare — and
// only a miss pays the binary search and the shift. A first member gets
// room for the few that usually follow.
func insert[T comparable](s []T, v T, compare func(a, b T) int) []T {
	if slices.Contains(s, v) {
		return s
	}
	i, _ := slices.BinarySearchFunc(s, v, compare)
	if s == nil {
		s = make([]T, 0, 4)
	}
	return slices.Insert(s, i, v)
}

// entry returns the value filed under k in the ascending list *s, filing
// a zero one first when k is new (found false), the way insert files a
// member. The pointer is good until *s is next inserted into.
func entry[K comparable, V any](s *[]Keyed[K, V], k K, compare func(a, b K) int) (val *V, found bool) {
	for i := range *s {
		if (*s)[i].Key == k {
			return &(*s)[i].Val, true
		}
	}
	i, _ := slices.BinarySearchFunc(*s, k, func(e Keyed[K, V], k K) int { return compare(e.Key, k) })
	if *s == nil {
		*s = make([]Keyed[K, V], 0, 4)
	}
	*s = slices.Insert(*s, i, Keyed[K, V]{Key: k})
	return &(*s)[i].Val, false
}

func ascending[T any](s []T, compare func(a, b T) int) bool {
	for i := 1; i < len(s); i++ {
		if compare(s[i-1], s[i]) >= 0 {
			return false
		}
	}
	return true
}

// keyedAscending checks a keyed list: its keys, and each entry's value
// with inner (nil for a scalar value).
func keyedAscending[K, V any](s []Keyed[K, V], compare func(a, b K) int, inner func(V) bool) bool {
	for i := range s {
		if i > 0 && compare(s[i-1].Key, s[i].Key) >= 0 || inner != nil && !inner(s[i].Val) {
			return false
		}
	}
	return true
}

// Check reports the first field of e that breaks the Event invariant —
// a set or key list that is not strictly ascending in its canonical
// order — or nil. The engine's events satisfy it by construction; the
// store runs it on every record it decodes and every event it is handed.
func (e *Event) Check() error {
	providers := func(s []ProviderRef) bool { return ascending(s, ProviderRefCompare) }
	users := func(s []bgp.ASN) bool { return ascending(s, cmp.Compare[bgp.ASN]) }
	platform := cmp.Compare[collector.Platform]
	for _, f := range [...]struct {
		name string
		ok   bool
	}{
		{"Providers", providers(e.Providers)},
		{"Users", users(e.Users)},
		{"Communities", ascending(e.Communities, cmp.Compare[bgp.Community])},
		{"Platforms", ascending(e.Platforms, platform)},
		{"Peers", ascending(e.Peers, netip.Addr.Compare)},
		{"ProviderDistances", keyedAscending(e.ProviderDistances, ProviderRefCompare, nil)},
		{"DirectProviders", providers(e.DirectProviders)},
		{"ProvidersByPlatform", keyedAscending(e.ProvidersByPlatform, platform, providers)},
		{"UsersByPlatform", keyedAscending(e.UsersByPlatform, platform, users)},
		{"ProviderUsers", keyedAscending(e.ProviderUsers, ProviderRefCompare, users)},
	} {
		if !f.ok {
			return fmt.Errorf("core: event for %s: %s is not strictly ascending", e.Prefix, f.name)
		}
	}
	return nil
}

// sortByString puts prefixes in the order of their String forms,
// rendering each once. The order is exactly the string order: Flush
// assigns Seq in it and Group's periods come out in it.
func sortByString(prefixes []netip.Prefix) {
	type named struct {
		name   string
		prefix netip.Prefix
	}
	keys := make([]named, len(prefixes))
	for i, p := range prefixes {
		keys[i] = named{p.String(), p}
	}
	slices.SortFunc(keys, func(a, b named) int { return strings.Compare(a.name, b.name) })
	for i := range keys {
		prefixes[i] = keys[i].prefix
	}
}

// SetOf returns members in the form an Event keeps a set: ascending under
// compare, each once. It is how an event built by hand gets its sets
// right; the engine inserts in order, and sorts the peers at close.
func SetOf[T comparable](compare func(a, b T) int, members ...T) []T {
	var s []T
	for _, m := range members {
		s = insert(s, m, compare)
	}
	return s
}
