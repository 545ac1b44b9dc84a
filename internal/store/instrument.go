package store

import "bgpblackholing/internal/obs"

// Instruments is the store's telemetry seam: pre-resolved metric
// handles the write path updates with a few atomic operations. Every
// field is optional, and a nil handle is a no-op (obs.Counter and
// obs.Histogram take nil receivers): a nil Instruments (the default) is
// one with no handle wired, costs a pointer compare per site, and keeps
// the un-instrumented hot path allocation-, clock- and syscall-free.
//
// The struct holds obs primitives rather than a registry so label
// resolution and family lookup happen once, at wiring time, never per
// append.
type Instruments struct {
	// Append path.
	AppendEvents  *obs.Counter   // events durably appended (post-encode)
	AppendSeconds *obs.Histogram // whole-batch Append call latency

	// Fsync path — every fsync of the active segment, whatever
	// triggered it (group commit, interval timer, seal, failover,
	// explicit Sync, Close).
	FsyncTotal   *obs.Counter
	FsyncErrors  *obs.Counter
	FsyncSeconds *obs.Histogram
	// CommitBatch observes the number of records each group commit
	// flushed — the amortization the SyncPolicy buys.
	CommitBatch *obs.Histogram

	// Segment lifecycle.
	Seals     *obs.Counter // segments sealed (size, partition roll, failover, compaction)
	Failovers *obs.Counter // wounded-segment failovers

	// Compaction passes.
	CompactRuns    *obs.Counter
	CompactSeconds *obs.Histogram
	CompactMerged  *obs.Counter // segments rewritten by passes
	CompactSkipped *obs.Counter // segments policies left cold
	CompactErased  *obs.Counter // tombstoned records physically removed
	CompactDropped *obs.Counter // superseded flush duplicates removed

	// Cold-open read path.
	Hydrations       *obs.Counter // lazy segments decoded on demand
	SidecarWrites    *obs.Counter // sidecars written (seal, compaction, heal)
	SidecarFallbacks *obs.Counter // sealed segments open fully decoded for want of a fresh sidecar
}

// fsync syncs the active segment through the instrumentation seam. Its
// one caller is the durability step, Store.sync.
func (s *Store) fsync() error {
	start := s.inst.FsyncSeconds.Now()
	err := s.active.file.Sync()
	s.inst.FsyncTotal.Inc()
	s.inst.FsyncSeconds.ObserveSince(start)
	if err != nil {
		s.inst.FsyncErrors.Inc()
	}
	return err
}

// Health is the store's failure snapshot, feeding readiness checks: a
// wounded active segment means the last write or fsync failed and the
// next append must fail over; a parked async error is a timer-driven
// group-commit fsync failure no caller has observed yet; a hydration
// error means a cold segment could not be (fully) decoded on demand,
// so queries may be running over partial data.
type Health struct {
	WoundedSegment bool
	AsyncSyncError string
	HydrationError string
}

// Health reports the store's current failure state.
func (s *Store) Health() Health {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h := Health{WoundedSegment: s.writeFailed}
	if s.asyncErr != nil {
		h.AsyncSyncError = s.asyncErr.Error()
	}
	if s.hydrateErr != nil {
		h.HydrationError = s.hydrateErr.Error()
	}
	return h
}
