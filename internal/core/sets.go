package core

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"unsafe"

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

// chunks is the memory an engine carves its events' sets, keyed lists
// and peer marks from, a chunk of about 4 KiB per member type. A chunk
// lives while any event carved from it lives.
type chunks struct {
	providers     []ProviderRef
	asns          []bgp.ASN
	communities   []bgp.Community
	platforms     []collector.Platform
	addrs         []netip.Addr
	distances     []Keyed[ProviderRef, int]
	platProviders []Keyed[collector.Platform, []ProviderRef]
	platUsers     []Keyed[collector.Platform, []bgp.ASN]
	provUsers     []Keyed[ProviderRef, []bgp.ASN]
	marks         []peerMark
}

// carve cuts an empty region of n elements from the chunk *c, replacing
// a chunk too short. The region is capped ([:0:n]): an append past it
// reallocates and never writes into the next region.
func carve[T any](c *[]T, n int) (r []T) {
	if len(*c) < n {
		*c = make([]T, max(n, 4<<10/int(unsafe.Sizeof(*new(T)))))
	}
	r, *c = (*c)[:0:n], (*c)[n:]
	return r
}

// insertAt puts v at s[i], moving a full s to a region of *c twice its
// size, two at first: an outgrown region stays as long as its chunk.
func insertAt[T any](c *[]T, s []T, i int, v T) []T {
	if len(s) == cap(s) {
		s = append(carve(c, max(2, 2*len(s))), s...)
	}
	s = append(s[:i+1], s[i:]...)
	s[i] = v
	return s
}

// insert files v in the strictly ascending set *s, growing it in c. Sets
// are tiny and most refreshes find their member already, so a hit is
// found by looking — no call through compare, no write — and only a
// miss pays the binary search and the shift.
func insert[T comparable](c *[]T, s *[]T, v T, compare func(a, b T) int) {
	if slices.Contains(*s, v) {
		return
	}
	i, _ := slices.BinarySearchFunc(*s, v, compare)
	*s = insertAt(c, *s, i, v)
}

// entry returns the value filed under k in the ascending list *s, filing
// a zero one first when k is new (found false), the way insert files a
// member. The pointer is good until *s is next inserted into.
func entry[K comparable, V any](c *[]Keyed[K, V], s *[]Keyed[K, V], k K, compare func(a, b K) int) (val *V, found bool) {
	for i := range *s {
		if (*s)[i].Key == k {
			return &(*s)[i].Val, true
		}
	}
	i, _ := slices.BinarySearchFunc(*s, k, func(e Keyed[K, V], k K) int { return compare(e.Key, k) })
	*s = insertAt(c, *s, i, Keyed[K, V]{Key: k})
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
// compare, each once, nil when empty. An event built by hand gets its
// sets right with it; the engine inserts in order, and sorts the peers.
func SetOf[T comparable](compare func(a, b T) int, members ...T) []T {
	return slices.Compact(slices.SortedFunc(slices.Values(members), compare))
}
