package store

import (
	"bytes"
	"cmp"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/collector"
	"bgpblackholing/internal/core"
)

// FuzzDecodeEvent: the codec must never panic on arbitrary input, and
// anything it does accept holds every set strictly ascending and
// re-encodes to a canonical fixed point (encode→decode→encode is
// byte-identical).
func FuzzDecodeEvent(f *testing.F) {
	for i := 0; i < 10; i++ {
		f.Add(EncodeEvent(nil, makeEvent(i)))
	}
	f.Add([]byte{})
	f.Add([]byte{codecVersion})
	v1, v2, _ := legacyPayloads() // the read-only layouts, a distance list each
	f.Add(v1)
	f.Add(v2)
	f.Add([]byte{0xFF}) // the retired marker-v1 tag: rejected
	f.Add(appendMarkerV2(nil, []uint64{1, 2, 3}))
	f.Add(encodeTombstone(nil, Tombstone{Prefix: netip.MustParsePrefix("10.0.0.0/8"), UpTo: testEpoch}))
	truncated := EncodeEvent(nil, makeEvent(3))
	f.Add(truncated[:len(truncated)/2])
	swapped, duplicated := makeEvent(4), makeEvent(4)
	swapped.Users[0], swapped.Users[1] = swapped.Users[1], swapped.Users[0]
	duplicated.Providers = append(duplicated.Providers, duplicated.Providers[1])
	f.Add(EncodeEvent(nil, swapped))
	f.Add(EncodeEvent(nil, duplicated))
	f.Fuzz(func(t *testing.T, data []byte) {
		ev, err := DecodeEvent(data)
		if err != nil {
			return // rejected cleanly
		}
		// Accepted ⇒ every set and key list strictly ascending, read here
		// with the standard library's eyes, not core.Event.Check's.
		strictly := func(ok ...bool) {
			if slices.Contains(ok, false) {
				t.Fatalf("decode accepted a set that is not strictly ascending: %+v", ev)
			}
		}
		asns := func(s []bgp.ASN) bool { return ascends(s, cmp.Compare[bgp.ASN]) }
		providers := func(s []core.ProviderRef) bool { return ascends(s, core.ProviderRefCompare) }
		strictly(providers(ev.Providers), asns(ev.Users), ascends(ev.Communities, cmp.Compare[bgp.Community]),
			ascends(ev.Platforms, cmp.Compare[collector.Platform]), ascends(ev.Peers, netip.Addr.Compare),
			providers(ev.DirectProviders), providers(keysOf(ev.ProviderDistances)), providers(keysOf(ev.ProviderUsers)),
			ascends(keysOf(ev.ProvidersByPlatform), cmp.Compare[collector.Platform]),
			ascends(keysOf(ev.UsersByPlatform), cmp.Compare[collector.Platform]))
		for i := range ev.ProvidersByPlatform {
			strictly(providers(ev.ProvidersByPlatform[i].Val))
		}
		for i := range ev.UsersByPlatform {
			strictly(asns(ev.UsersByPlatform[i].Val))
		}
		for i := range ev.ProviderUsers {
			strictly(asns(ev.ProviderUsers[i].Val))
		}
		enc := EncodeEvent(nil, ev)
		ev2, err := DecodeEvent(enc)
		if err != nil {
			t.Fatalf("canonical re-encoding does not decode: %v", err)
		}
		if !bytes.Equal(enc, EncodeEvent(nil, ev2)) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}

// ascends reports whether s is sorted with no two neighbours equal.
func ascends[T any](s []T, compare func(a, b T) int) bool {
	return slices.IsSortedFunc(s, compare) &&
		len(slices.CompactFunc(slices.Clone(s), func(a, b T) bool { return compare(a, b) == 0 })) == len(s)
}

func keysOf[K, V any](list []core.Keyed[K, V]) []K {
	keys := make([]K, len(list))
	for i := range list {
		keys[i] = list[i].Key
	}
	return keys
}

// FuzzRecoverSegment: a segment file with an arbitrary (torn, corrupt,
// or adversarial) body must reopen without panicking — recovering the
// intact prefix of the log or failing with a defined error — and a
// recovered store must stay appendable and reopen consistently.
func FuzzRecoverSegment(f *testing.F) {
	valid := slices.Clone(segMagic)
	for i := 0; i < 3; i++ {
		valid = appendRecord(valid, EncodeEvent(nil, makeEvent(i)))
	}
	f.Add(slices.Clone(valid))
	f.Add(valid[:len(valid)-5]) // torn tail mid-record
	corrupt := slices.Clone(valid)
	corrupt[len(corrupt)-3] ^= 0xFF // payload bit flip under the checksum
	f.Add(corrupt)
	f.Add(slices.Clone(segMagic))
	f.Add([]byte("BHS")) // shorter than the magic (crash before first sync)
	f.Add(appendRecord(slices.Clone(segMagic), appendMarkerV2(nil, []uint64{0, 1, 7})))
	f.Add(appendRecord(slices.Clone(segMagic),
		encodeTombstone(nil, Tombstone{Prefix: netip.MustParsePrefix("10.0.0.0/8")})))
	// A marker with one byte after its list: Open must fail, deleting
	// nothing.
	trailing := appendRecord(slices.Clone(segMagic), append(appendMarkerV2(nil, []uint64{0}), 0))
	f.Add(appendRecord(trailing, EncodeEvent(nil, makeEvent(0))))
	huge := slices.Clone(segMagic)
	huge = append(huge, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0) // absurd length header
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			return // defined failure; the point is no panic, no hang
		}
		ev := makeEvent(42)
		ev.Start = testEpoch.Add(100 * 365 * 24 * time.Hour) // clear of fuzzed tombstones' UpTo bounds where possible
		if err := s.Append(ev); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		want := s.Len() // a fuzzed unbounded tombstone may legitimately swallow the append
		if err := s.Close(); err != nil {
			t.Fatalf("close after recovery: %v", err)
		}
		r, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen of a recovered store failed: %v", err)
		}
		if got := r.Len(); got != want {
			t.Fatalf("reopen changed the event count: %d, want %d", got, want)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzDecodeSummary: the sidecar reader never panics and accepts exactly
// what the writer writes — any sidecar it decodes re-encodes through
// encodeSummary to the same bytes. Each input is tried as a whole file
// and, framed under a valid checksum, as a payload, so mutations reach
// the payload decoder instead of dying at the CRC.
func FuzzDecodeSummary(f *testing.F) {
	dir := f.TempDir()
	buildSidecarDir(f, dir)
	for _, path := range sidecarFiles(f, dir)[:2] {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		payload := data[len(sumMagic)+recordHeaderBytes:]
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(payload)
		for _, at := range []int{1, len(payload) / 3, len(payload) / 2, len(payload) - 1} {
			flipped := slices.Clone(payload)
			flipped[at] ^= 0x81
			f.Add(flipped)
		}
		f.Add(append(slices.Clone(data), 0))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, appendRecord(slices.Clone(sumMagic), data)} {
			m, err := decodeSummary(in)
			if err != nil {
				continue
			}
			if !bytes.Equal(encodeSummary(m), in) {
				t.Fatalf("decodeSummary accepted %d bytes that do not re-encode to themselves", len(in))
			}
		}
	})
}
