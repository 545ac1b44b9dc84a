package store

// Tiered compaction. The PR 3 compactor merged every segment on every
// pass, so a store accumulating years of history rewrote its whole cold
// tail again and again. This engine makes compaction a policy decision:
//
//   - Size-ratio (LSM-style) triggers merge only runs of similar-sized
//     segments, so a big, settled segment stops being rewritten just
//     because small fresh segments keep arriving next to it.
//   - Time partitioning groups segments by the event-time partition
//     they hold (the active segment rolls on partition boundaries when
//     Options.Policy.Partition is set) and merges never cross a
//     partition boundary, making old partitions effectively immutable.
//   - Tombstones (DeletePrefix) are honored logically at once and
//     physically here: a segment holding dead records is rewritten even
//     on its own, dropping the erased bytes from disk.
//
// A merge only ever combines segments that are CONSECUTIVE in sequence
// order, and the merged output is committed by atomically renaming it
// over the run's highest member while a v2 marker names the lower
// members as superseded. That placement preserves the global replay
// order of every surviving record, so query results are byte-identical
// before and after a compaction — including across a close and reopen —
// and a crash at any point leaves either the old run or the marker-led
// merged segment, never both indexed.

import (
	"fmt"
	"math"
	"os"
	"slices"
	"time"
)

// Policy selects which segments a compaction pass may merge.
type Policy struct {
	// Partition is the time-partition width over event start time.
	// Segments roll on partition boundaries at append time and merges
	// never cross them; zero keeps the whole store in one partition.
	Partition time.Duration
	// SizeRatio bounds "similar-sized": a run of consecutive segments
	// is mergeable only while its largest member is at most SizeRatio
	// times its smallest. Values <= 1 mean the default of 4.
	SizeRatio float64
	// MinRun is the minimum number of similar-sized consecutive
	// segments that triggers a merge (default 4, floor 2).
	MinRun int
	// MergeAll selects the seal-and-dedupe pass instead of the tiered
	// one: seal the active segment and merge every segment of every
	// partition, regardless of size. It is the only pass that drops
	// superseded flush duplicates across runs.
	MergeAll bool
}

// withDefaults fills the zero values; the zero Policy merges all.
func (p Policy) withDefaults() Policy {
	if p == (Policy{}) {
		p.MergeAll = true
	}
	if p.SizeRatio <= 1 {
		p.SizeRatio = 4
	}
	if p.MinRun == 0 {
		p.MinRun = 4
	}
	if p.MinRun < 2 {
		p.MinRun = 2
	}
	return p
}

// CompactStats describes one compaction pass.
type CompactStats struct {
	SegmentsBefore, SegmentsAfter int
	EventsBefore, EventsAfter     int
	// Dropped counts superseded flush duplicates removed: records for
	// the same (prefix, start, start-unknown) key where a longer-ended
	// record supersedes an earlier artificial flush close.
	Dropped int
	// Erased counts dead records (tombstoned events) physically removed
	// from disk by this pass.
	Erased int
	// Partitions is the number of distinct time partitions the sealed
	// segments spanned when the pass ran.
	Partitions int
	// Merged lists the sealed segment seqs this pass rewrote; Skipped
	// lists the sealed seqs the policy left untouched — the proof that
	// cold segments stay cold.
	Merged, Skipped []uint64
}

// compactStageHook, when set (tests only), is called with the stages of
// each run's commit protocol: "post-commit" right after the merged
// segment's atomic rename, and "post-cleanup" once the superseded run
// members are removed and the swap is done. The pre-commit point is
// CommitHook.
var compactStageHook func(stage string, runHi uint64)

// Compact runs one compaction pass under pol; the zero pol merges all.
// The expensive work — re-encoding surviving events and fsyncing merged
// segments — runs outside the store lock, so queries keep answering and
// appends keep landing throughout; the lock is only held for the brief
// swap phases. Each selected run commits independently (marker-led
// atomic rename), so a crash mid-pass leaves every run either fully old
// or fully new.
func (s *Store) Compact(pol Policy) (CompactStats, error) {
	start := s.inst.CompactSeconds.Now()
	st, err := s.compactWith(pol)
	s.inst.CompactRuns.Inc()
	s.inst.CompactSeconds.ObserveSince(start)
	s.inst.CompactMerged.Add(uint64(len(st.Merged)))
	s.inst.CompactSkipped.Add(uint64(len(st.Skipped)))
	s.inst.CompactErased.Add(uint64(st.Erased))
	s.inst.CompactDropped.Add(uint64(st.Dropped))
	return st, err
}

func (s *Store) compactWith(pol Policy) (CompactStats, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	pol = pol.withDefaults()

	// Phase 1 (locked): snapshot the sealed set and, for a merge-all
	// pass, seal the active segment so its records participate.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return CompactStats{}, ErrClosed
	}
	if s.opts.ReadOnly {
		s.mu.Unlock()
		return CompactStats{}, ErrReadOnly
	}
	stats := CompactStats{
		SegmentsBefore: len(s.sealed) + 1,
		EventsBefore:   s.live,
	}
	if pol.MergeAll {
		if len(s.sealed) == 0 && s.active.dead == 0 && !s.hasDupLocked() {
			// Single active segment, nothing to drop: no work.
			stats.SegmentsAfter, stats.EventsAfter = stats.SegmentsBefore, stats.EventsBefore
			s.mu.Unlock()
			return stats, nil
		}
		if s.active.size > int64(len(segMagic)) {
			if err := s.roll(); err != nil {
				s.mu.Unlock()
				return stats, err
			}
		}
	} else if s.active.dead > 0 {
		// A tiered pass leaves the active segment alone — unless it
		// holds dead (DeletePrefix'd) records: seal it so the erasure
		// singleton-run below can rewrite it, keeping the promise that
		// an explicit compaction purges deleted bytes from disk.
		if err := s.roll(); err != nil {
			s.mu.Unlock()
			return stats, err
		}
	}
	// Run selection is pure segment metadata, so it works over lazy
	// (cold, sidecar-backed) segments too. Merging is not: it re-encodes
	// live events, so every selected run member must be hydrated before
	// the snapshot — still under the lock, so nothing moves in between.
	// A member whose hydration failed stays lazy and poisons its run
	// (skipped this pass); merging it would silently drop its records.
	candidateRuns, partitions := selectRuns(s.sealed, pol)
	inAnyRun := map[uint64]bool{}
	for _, run := range candidateRuns {
		for _, sf := range run {
			inAnyRun[sf.seq] = true
		}
	}
	s.hydrateWhereLocked(func(sf *segFile) bool { return inAnyRun[sf.seq] })
	var runs [][]segFile
	for _, run := range candidateRuns {
		if slices.ContainsFunc(run, func(sf segFile) bool { return sf.lazy }) {
			for _, sf := range run {
				delete(inAnyRun, sf.seq)
			}
			continue
		}
		runs = append(runs, slices.Clone(run))
	}
	sealed := append([]segFile(nil), s.sealed...)
	snap := s.snapshot()
	s.mu.Unlock()

	stats.Partitions = partitions
	for _, run := range runs {
		for _, sf := range run {
			stats.Merged = append(stats.Merged, sf.seq)
		}
	}
	for _, sf := range sealed {
		if !inAnyRun[sf.seq] {
			stats.Skipped = append(stats.Skipped, sf.seq)
		}
	}

	// Phases 2+3, per run: merge outside the lock, swap under it.
	for _, run := range runs {
		if err := s.compactRun(run, snap, &stats); err != nil {
			s.mu.RLock()
			stats.EventsAfter, stats.SegmentsAfter = s.live, len(s.sealed)+1
			s.mu.RUnlock()
			return stats, err
		}
	}
	s.mu.RLock()
	stats.EventsAfter, stats.SegmentsAfter = s.live, len(s.sealed)+1
	s.mu.RUnlock()
	return stats, nil
}

// hasDupLocked reports whether any two live events share a dupKey.
func (s *Store) hasDupLocked() bool {
	seen := make(map[dupKey]bool, s.live)
	for _, sl := range s.slots {
		if sl.ev == nil {
			continue
		}
		k := keyOf(sl.ev)
		if seen[k] {
			return true
		}
		seen[k] = true
	}
	return false
}

// partitionKey maps an event-start UnixNano to its time partition.
func partitionKey(nano int64, width time.Duration) int64 {
	w := int64(width)
	if w <= 0 {
		return 0
	}
	q := nano / w
	if nano%w < 0 {
		q--
	}
	return q
}

// selectRuns picks the segment runs pol wants merged. Runs are always
// consecutive in sequence order and never cross a partition boundary.
// Under MergeAll every partition block is a run; otherwise a block
// contributes its size-ratio runs of at least MinRun segments, plus a
// singleton run for any segment holding dead records awaiting physical
// erasure.
func selectRuns(sealed []segFile, pol Policy) (runs [][]segFile, partitions int) {
	if len(sealed) == 0 {
		return nil, 0
	}
	// Partition keys; a segment without event records (tombstones or
	// markers only) continues its predecessor's partition so it never
	// splits a block.
	pks := make([]int64, len(sealed))
	const unassigned = math.MinInt64
	for i, sf := range sealed {
		if sf.events > 0 {
			pks[i] = partitionKey(sf.minStartNano, pol.Partition)
		} else if i > 0 {
			pks[i] = pks[i-1]
		} else {
			pks[i] = unassigned
		}
	}
	for i := 0; i < len(pks) && pks[i] == unassigned; i++ {
		// Leading eventless segments join the first real partition.
		for j := i; j < len(pks); j++ {
			if pks[j] != unassigned {
				pks[i] = pks[j]
				break
			}
		}
		if pks[i] == unassigned {
			pks[i] = 0
		}
	}
	distinct := map[int64]bool{}
	for i, sf := range sealed {
		if sf.events > 0 {
			distinct[pks[i]] = true
		}
	}
	partitions = len(distinct)

	covered := map[uint64]bool{}
	for start := 0; start < len(sealed); {
		end := start
		for end+1 < len(sealed) && pks[end+1] == pks[start] {
			end++
		}
		block := sealed[start : end+1]
		if pol.MergeAll {
			runs = append(runs, block)
			for _, sf := range block {
				covered[sf.seq] = true
			}
		} else {
			for _, run := range sizeRatioRuns(block, pol) {
				runs = append(runs, run)
				for _, sf := range run {
					covered[sf.seq] = true
				}
			}
		}
		start = end + 1
	}
	if !pol.MergeAll {
		// Pending physical erasure: a segment holding dead records is
		// rewritten even alone, so DeletePrefix data leaves the disk at
		// its partition's next compaction.
		for i := range sealed {
			if sealed[i].dead > 0 && !covered[sealed[i].seq] {
				runs = append(runs, sealed[i:i+1])
			}
		}
		// Keep runs in ascending seq order so commits are deterministic.
		slices.SortFunc(runs, func(a, b []segFile) int {
			switch {
			case a[0].seq < b[0].seq:
				return -1
			case a[0].seq > b[0].seq:
				return 1
			}
			return 0
		})
	}
	return runs, partitions
}

// sizeRatioRuns finds the maximal consecutive runs within one partition
// block whose members are all within pol.SizeRatio of each other, and
// returns those of at least MinRun segments.
func sizeRatioRuns(block []segFile, pol Policy) [][]segFile {
	var runs [][]segFile
	for i := 0; i < len(block); {
		lo, hi := block[i].size, block[i].size
		j := i
		for j+1 < len(block) {
			nlo, nhi := min(lo, block[j+1].size), max(hi, block[j+1].size)
			if float64(nhi) > float64(nlo)*pol.SizeRatio {
				break
			}
			lo, hi = nlo, nhi
			j++
		}
		if j-i+1 >= pol.MinRun {
			runs = append(runs, block[i:j+1])
			i = j + 1
		} else {
			i++
		}
	}
	return runs
}

// compactRun merges one run: survivors (live events of the run minus
// superseded duplicates) and the run's tombstone records are written to
// a fresh segment that atomically replaces the run's highest member,
// led by a v2 marker naming the lower members. The ledgers' snapshot
// came from phase 1; the authoritative liveness check happens again
// under the lock during the swap, so a DeletePrefix racing the merge
// stays correct (its victims are at worst re-written as dead-on-disk
// records and erased by the next pass).
func (s *Store) compactRun(run []segFile, snap ledgers, stats *CompactStats) error {
	hi := run[len(run)-1]
	inRun := make(map[uint64]bool, len(run))
	lower := make([]uint64, 0, len(run)-1)
	for _, sf := range run {
		inRun[sf.seq] = true
		if sf.seq != hi.seq {
			lower = append(lower, sf.seq)
		}
	}

	// Candidates: the run's live events, in ordinal (replay) order.
	var ords []int32
	for ord, sl := range snap.slots {
		if sl.ev != nil && inRun[sl.seg] {
			ords = append(ords, int32(ord))
		}
	}
	first := map[dupKey]int32{}
	best := map[dupKey]int32{}
	for _, ord := range ords {
		k := keyOf(snap.slots[ord].ev)
		if _, seen := first[k]; !seen {
			first[k], best[k] = ord, ord
		} else if supersedes(snap.slots[ord].ev, snap.slots[best[k]].ev) {
			best[k] = ord
		}
	}

	// Emit: marker, the run's tombstones, then each key's survivor at
	// its first-appearance position.
	payloads := [][]byte{appendMarkerV2(nil, lower)}
	for _, tb := range snap.tombs {
		if inRun[tb.seg] {
			payloads = append(payloads, encodeTombstone(nil, tb.Tombstone))
		}
	}
	nonEvents := len(payloads) // marker + re-emitted tombstones
	type emitPair struct{ slot, src int32 }
	var kept []emitPair
	emitted := map[dupKey]bool{}
	for _, ord := range ords {
		k := keyOf(snap.slots[ord].ev)
		if emitted[k] {
			continue
		}
		emitted[k] = true
		payloads = append(payloads, EncodeEvent(nil, snap.slots[best[k]].ev))
		kept = append(kept, emitPair{slot: first[k], src: best[k]})
	}

	// The merged segment replaces hi's file, so hi's old sidecar — which
	// describes the pre-merge bytes — must go before the rename: a crash
	// in between leaves at worst a missing sidecar (full decode + heal
	// on the next open), never a stale one that happens to match the
	// merged file's size. The rename's directory fsync makes both
	// changes durable together.
	os.Remove(sumPath(s.dir, hi.seq))
	mergedSize, err := writeSegmentAtomic(s.dir, segName(hi.seq), payloads)
	if err != nil {
		// Nothing swapped: the store keeps serving from the old run.
		return err
	}
	if compactStageHook != nil {
		compactStageHook("post-commit", hi.seq)
	}

	// Old run members are inert once the marker is committed (recovery
	// skips and removes them), so removal is best-effort — as are their
	// sidecars, which open would discard as orphans anyway. It need not
	// wait for the swap: every member was hydrated in phase 1, so nothing
	// in this process reads their files again, and going first keeps the
	// merged segment's unsynced sidecar out of this directory fsync.
	for _, sf := range run {
		if sf.seq != hi.seq {
			os.Remove(sf.path)
			os.Remove(sumPath(s.dir, sf.seq))
		}
	}
	syncDir(s.dir)

	// Phase 3 (locked): swap the run for the merged segment.
	s.mu.Lock()
	if s.closed {
		// The merge is committed and cleaned up; the next open indexes it.
		s.mu.Unlock()
		return ErrClosed
	}
	// Copy-on-write: snapshots keep the old arrays.
	s.slots, s.tombs = slices.Clone(s.slots), slices.Clone(s.tombs)
	// mergedRecs mirrors the merged file's event records in order, with
	// liveness as of this swap: what the merged segment is described and
	// summarized from.
	mergedRecs := make([]sumRec, len(kept))
	for i, p := range kept {
		if p.src != p.slot && s.slots[p.src].ev != nil {
			if s.slots[p.slot].ev != nil {
				s.unindex(p.slot)
				stats.Dropped++
			}
			s.moveOrd(p.src, p.slot)
		}
		// A record erased (DeletePrefix) between snapshot and swap is in
		// the merged segment but stays invisible and goes at the next pass.
		mergedRecs[i] = sumRec{ev: snap.slots[p.src].ev, dead: s.slots[p.slot].ev == nil}
		if !mergedRecs[i].dead {
			s.slots[p.slot].seg = hi.seq
		}
	}
	slots := make(map[int32]bool, len(kept))
	srcs := make(map[int32]bool, len(kept))
	for _, p := range kept {
		slots[p.slot] = true
		srcs[p.src] = true
	}
	for _, ord := range ords {
		if slots[ord] || srcs[ord] {
			continue
		}
		if s.slots[ord].ev != nil {
			s.unindex(ord)
			stats.Dropped++
		}
	}
	for _, sf := range run {
		stats.Erased += sf.dead
	}
	// Tombstones re-emitted into the merged segment now live there:
	// re-point their segment attribution so the *next* merge of this
	// segment re-emits them again instead of dropping the only copy
	// (tombstones appended during the merge sit in the active segment,
	// which is never in the run).
	for i := range s.tombs {
		if inRun[s.tombs[i].seg] {
			s.tombs[i].seg = hi.seq
		}
	}
	// writeSegmentAtomic wrote exactly magic + records and synced, so
	// the file is valid through its full size.
	merged := hi
	merged.segDesc = describe(mergedSize, mergedRecs)
	newSealed := make([]segFile, 0, len(s.sealed))
	found := false
	for _, sf := range s.sealed {
		switch {
		case sf.seq == hi.seq:
			newSealed = append(newSealed, merged)
			found = true
		case inRun[sf.seq]:
			// Dropped: superseded run member.
		default:
			newSealed = append(newSealed, sf)
		}
	}
	if !found {
		// The run head vanished from the sealed set — impossible unless
		// the bookkeeping broke; fail loudly rather than lose a segment.
		s.mu.Unlock()
		return fmt.Errorf("store: compact: run head seg-%d missing from sealed set", hi.seq)
	}
	s.sealed = newSealed
	// Fresh sidecar for the merged segment, so the next open skips
	// decoding it — written under the lock, so its applied set is the
	// tombstones mergedRecs was judged by: a DeletePrefix landing after
	// the unlock is, by construction, outside the set, and the next
	// open's staleness check demotes the sidecar instead of trusting it.
	s.writeSummary(hi.seq, mergedSize, mergedSize, false, mergedRecs, payloads[:nonEvents])
	s.mu.Unlock()
	if compactStageHook != nil {
		compactStageHook("post-cleanup", hi.seq)
	}
	return nil
}
