package store

import (
	"math/bits"
	"net/netip"
)

// Trie is a binary radix (patricia) trie over IP prefixes, keyed by the
// masked address bits and prefix length, with path compression: a node
// exists only where prefixes diverge or terminate. IPv4 and IPv6 live
// in separate subtries, so 192.0.2.0/24 and ::ffff:192.0.2.0/120 never
// alias. Each stored prefix carries a postings list of int32 ordinals
// (event indexes in the store). The zero value is an empty trie.
//
// Lookups answer the three longitudinal query shapes without scanning:
// Exact (this prefix), Covering / LPM (every stored prefix containing a
// query prefix, e.g. "which aggregates blackhole this /32"), and
// Covered (every stored prefix inside a query prefix, e.g. "all
// blackholed more-specifics of this /16").
type Trie struct {
	root4, root6 *tnode
	prefixes     int
}

type tnode struct {
	// key holds the node's prefix bits (4 bytes for IPv4, 16 for IPv6),
	// masked to plen; prefix is the same value in netip form.
	key    []byte
	plen   int
	prefix netip.Prefix
	// ords is the postings list for the prefix terminating here; nil for
	// pure branch nodes created by a split.
	ords  []int32
	child [2]*tnode
}

// keyBytes returns the address bytes in the family's native width.
func keyBytes(a netip.Addr) []byte {
	if a.Is4() {
		b := a.As4()
		return b[:]
	}
	b := a.As16()
	return b[:]
}

// bitAt returns bit i (0 = most significant) of key.
func bitAt(key []byte, i int) byte {
	return key[i>>3] >> (7 - i&7) & 1
}

// commonBits counts the leading bits shared by a and b, capped at max.
func commonBits(a, b []byte, max int) int {
	n := 0
	for i := 0; i < len(a) && i < len(b); i++ {
		x := a[i] ^ b[i]
		if x != 0 {
			n = i*8 + bits.LeadingZeros8(x)
			break
		}
		n = (i + 1) * 8
		if n >= max {
			break
		}
	}
	if n > max {
		n = max
	}
	return n
}

func (t *Trie) rootFor(p netip.Prefix) **tnode {
	if p.Addr().Is4() {
		return &t.root4
	}
	return &t.root6
}

// Len returns the number of distinct prefixes stored.
func (t *Trie) Len() int { return t.prefixes }

// Insert adds ord to the postings of p (masked).
func (t *Trie) Insert(p netip.Prefix, ord int32) {
	t.Edit(p, func(l []int32) []int32 { return insertOrd(l, ord) })
}

// Edit replaces the postings list of p (masked) — nil when p is not
// stored — with edit's result, which must stay sorted: hydrating a cold
// segment files older ordinals after newer ones are present, and query
// results must come out in ordinal (append) order. An empty result
// unstores p; its node stays behind as a pure branch, which lookups skip.
func (t *Trie) Edit(p netip.Prefix, edit func([]int32) []int32) {
	n := t.slot(p)
	if n.ords == nil {
		t.prefixes++
	}
	if n.ords = edit(n.ords); len(n.ords) == 0 {
		n.ords = nil
		t.prefixes--
	}
}

// slot returns the node terminating at p (masked), creating it — a pure
// branch until it is given postings — where the trie has none.
func (t *Trie) slot(p netip.Prefix) *tnode {
	p = p.Masked()
	key := keyBytes(p.Addr())
	nn := func() *tnode { return &tnode{key: key, plen: p.Bits(), prefix: p} }
	np := t.rootFor(p)
	for {
		n := *np
		if n == nil {
			*np = nn()
			return *np
		}
		c := commonBits(key, n.key, min(p.Bits(), n.plen))
		switch {
		case c == n.plen && c == p.Bits():
			return n
		case c == n.plen:
			// n's prefix contains p: descend.
			np = &n.child[bitAt(key, n.plen)]
		case c == p.Bits():
			// p contains n's prefix: insert p above n.
			above := nn()
			above.child[bitAt(n.key, p.Bits())] = n
			*np = above
			return above
		default:
			// Diverge at bit c: split with a branch node.
			branchPrefix := netip.PrefixFrom(p.Addr(), c).Masked()
			branch := &tnode{key: keyBytes(branchPrefix.Addr()), plen: c, prefix: branchPrefix}
			branch.child[bitAt(n.key, c)] = n
			leaf := nn()
			branch.child[bitAt(key, c)] = leaf
			*np = branch
			return leaf
		}
	}
}

// Exact returns the postings list of p, or nil.
func (t *Trie) Exact(p netip.Prefix) []int32 {
	p = p.Masked()
	key := keyBytes(p.Addr())
	n := *t.rootFor(p)
	for n != nil {
		c := commonBits(key, n.key, min(p.Bits(), n.plen))
		if c == n.plen && c == p.Bits() {
			return n.ords
		}
		if c != n.plen || n.plen >= p.Bits() {
			return nil
		}
		n = n.child[bitAt(key, n.plen)]
	}
	return nil
}

// CoveringMatch is one stored prefix containing a query prefix.
type CoveringMatch struct {
	Prefix netip.Prefix
	Ords   []int32
}

// Covering returns every stored prefix containing p (including p
// itself), shortest first — the full chain of covering aggregates.
func (t *Trie) Covering(p netip.Prefix) []CoveringMatch {
	p = p.Masked()
	key := keyBytes(p.Addr())
	var out []CoveringMatch
	n := *t.rootFor(p)
	for n != nil {
		c := commonBits(key, n.key, min(p.Bits(), n.plen))
		if c < n.plen || n.plen > p.Bits() {
			break
		}
		if n.ords != nil {
			out = append(out, CoveringMatch{Prefix: n.prefix, Ords: n.ords})
		}
		if n.plen == p.Bits() {
			break
		}
		n = n.child[bitAt(key, n.plen)]
	}
	return out
}

// LPM returns the longest stored prefix containing p, with its
// postings; ok is false when no stored prefix covers p.
func (t *Trie) LPM(p netip.Prefix) (match netip.Prefix, ords []int32, ok bool) {
	cov := t.Covering(p)
	if len(cov) == 0 {
		return netip.Prefix{}, nil, false
	}
	last := cov[len(cov)-1]
	return last.Prefix, last.Ords, true
}

// Covered returns every stored prefix inside p (including p itself), in
// trie order (sorted by address bits, shorter first on ties).
func (t *Trie) Covered(p netip.Prefix) []CoveringMatch {
	p = p.Masked()
	key := keyBytes(p.Addr())
	var out []CoveringMatch
	n := *t.rootFor(p)
	for n != nil {
		c := commonBits(key, n.key, min(p.Bits(), n.plen))
		if n.plen >= p.Bits() {
			if c == p.Bits() {
				collect(n, &out)
			}
			return out
		}
		if c < n.plen {
			return out
		}
		n = n.child[bitAt(key, n.plen)]
	}
	return out
}

func collect(n *tnode, out *[]CoveringMatch) {
	if n == nil {
		return
	}
	if n.ords != nil {
		*out = append(*out, CoveringMatch{Prefix: n.prefix, Ords: n.ords})
	}
	collect(n.child[0], out)
	collect(n.child[1], out)
}
