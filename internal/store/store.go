package store

import (
	"errors"
	"fmt"
	"io"
	"iter"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"bgpblackholing/internal/bgp"
	"bgpblackholing/internal/core"
)

// Options configures Open.
type Options struct {
	// ReadOnly opens the store for querying only: Append, DeletePrefix
	// and compaction fail, leftover temp files stay, and a torn segment
	// tail is skipped in memory instead of truncated on disk.
	ReadOnly bool
	// MaxSegmentBytes seals the active segment once it exceeds this many
	// bytes (default 8 MiB).
	MaxSegmentBytes int64
	// CompactSegments, when > 0, starts a background compactor that
	// runs Policy (or the MergeAll seal-and-dedupe pass when Policy is
	// zero) whenever the sealed segment count reaches this threshold.
	// Zero disables background compaction; Compact can still be
	// called explicitly.
	CompactSegments int
	// Policy is the compaction policy. Besides steering the background
	// compactor, a non-zero Policy.Partition makes the active segment
	// roll whenever an appended event's time partition differs from the
	// segment's, so every segment holds a single partition's history.
	Policy Policy
	// Sync is the group-commit fsync policy for the append path; the
	// zero value syncs only at seal, explicit Sync and Close.
	Sync SyncPolicy
	// OpenSegment, when non-nil, replaces the os.File operations for
	// the active segment's write handle — the fault-injection seam
	// (internal/faultfs implements it). create=true asks for a fresh
	// exclusive file, create=false reopens an existing segment for
	// appending. Sealed-segment reads and compaction rewrites go
	// through the real filesystem regardless.
	OpenSegment func(path string, create bool) (SegmentFile, error)
	// Instruments, when non-nil, receives write-path telemetry
	// (appends, fsyncs, seals, group-commit batch sizes, compaction
	// passes). Nil keeps the hot path free of even a time.Now call.
	Instruments *Instruments
	// ColdOpen defers decoding sealed segments that carry a fresh
	// ".sum" sidecar summary: open reserves their index ordinals from
	// the sidecar alone and the first query whose filter could touch a
	// cold segment hydrates it (decodes and indexes its records). A
	// missing, corrupt or stale sidecar demotes that segment to the
	// classic full decode — results are byte-identical either way — and
	// a read-write open rewrites it (self-heal). Off by default so
	// existing stores keep their eager-open behavior (and Stats report
	// fully-warm numbers) unless the caller opts in.
	ColdOpen bool
	// Mmap maps segment files read-only for open and hydration scans on
	// platforms that support it, so cold history is paged in by the OS
	// instead of being copied onto the Go heap; unsupported platforms
	// fall back to buffered reads transparently.
	Mmap bool
}

// SegmentFile is the subset of *os.File the store's write path uses;
// Options.OpenSegment injects alternative implementations (fault
// injection, latency) under the real append/seal/sync code paths.
type SegmentFile interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// SyncPolicy is the group-commit fsync policy for the append path. The
// zero value preserves the classic behavior — records are fsynced only
// when a segment seals, on an explicit Sync, and at Close — which is
// the fastest option, with crash durability entirely in the caller's
// hands. The other knobs bound the loss window: after a crash, at most
// the records appended since the last policy-driven sync are lost, and
// the segment recovers torn-tail clean.
type SyncPolicy struct {
	// EveryN fsyncs once every N appended records (a group commit):
	// the fsync cost amortizes over N events while the crash-loss
	// window stays below N records.
	EveryN int
	// Interval fsyncs at most this long after the first unsynced
	// append — whichever of EveryN and Interval trips first wins. The
	// timer-driven sync's error, if any, surfaces on the next Append
	// or Sync call.
	Interval time.Duration
	// Always fsyncs on every Append call — maximum durability, one
	// fsync per batch.
	Always bool
}

// ErrReadOnly is returned by mutating calls on a read-only store.
var ErrReadOnly = errors.New("store: opened read-only")

// lockName is the writer-lock file enforcing the single-writer
// invariant: a second read-write Open of the same directory fails
// loudly instead of interleaving appends into the same segment. The
// file holds the owning pid; a lock left by a crashed process is
// detected and stolen.
const lockName = "LOCK"

// acquireLock takes the exclusive writer lock for dir, returning the
// lock file's path.
func acquireLock(dir string) (string, error) {
	path := filepath.Join(dir, lockName)
	for attempt := 0; attempt < 3; attempt++ {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			if _, werr := fmt.Fprintf(f, "%d\n", os.Getpid()); werr != nil {
				f.Close()
				os.Remove(path)
				return "", werr
			}
			if cerr := f.Close(); cerr != nil {
				os.Remove(path)
				return "", cerr
			}
			return path, nil
		}
		if !os.IsExist(err) {
			return "", err
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			if os.IsNotExist(rerr) {
				continue // released between the create and the read
			}
			return "", rerr
		}
		pid, _ := strconv.Atoi(strings.TrimSpace(string(data)))
		if pid > 0 && processAlive(pid) {
			return "", fmt.Errorf("store: %s is locked by running process %d (stores are single-writer; open read-only instead)", dir, pid)
		}
		// The owner is gone (a crash): steal the stale lock.
		os.Remove(path)
	}
	return "", fmt.Errorf("store: %s: could not acquire writer lock", dir)
}

// processAlive probes a pid with the null signal.
func processAlive(pid int) bool {
	p, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	err = p.Signal(syscall.Signal(0))
	// EPERM still proves the process exists.
	return err == nil || errors.Is(err, os.ErrPermission)
}

// ErrClosed is returned by calls on a closed store.
var ErrClosed = errors.New("store: closed")

const defaultMaxSegmentBytes = 8 << 20

// noMinStart is the minStartNano sentinel for a segment holding no
// event records yet.
const noMinStart = math.MaxInt64

// Stats describes the store's current shape.
type Stats struct {
	// Events is the number of live (queryable) events held in memory.
	Events int
	// Prefixes is the number of distinct prefixes in the trie.
	Prefixes int
	// Segments is the number of segment files, including the active one.
	Segments int
	// Bytes is the total size of all segment files.
	Bytes int64
	// Tombstones counts the DeletePrefix erasure directives in force.
	Tombstones int
	// PendingErasure counts event records that are dead (tombstoned or
	// superseded) but still physically on disk, awaiting the next
	// compaction of their segment.
	PendingErasure int
	// RecoveredTails counts segments whose tail was torn (crash) and
	// skipped or truncated during open.
	RecoveredTails int
	// Unsynced counts records appended since the last fsync — the
	// group-commit lag a crash right now would lose.
	Unsynced int
	// MinStart and MaxEnd bound the stored events' time span (zero when
	// the store is empty). They can be wider than the live span after
	// deletions.
	MinStart, MaxEnd time.Time
	// SegmentsCold counts sealed segments whose records have not been
	// decoded yet (Options.ColdOpen, sidecar-backed); SegmentsHydrated
	// counts those decoded on demand since open. Prefixes reflects only
	// hydrated events until the store warms up.
	SegmentsCold, SegmentsHydrated int
	// OpenDecodedEvents counts event records open decoded from sealed
	// segments — zero on a pure sidecar cold open, the proof that cold
	// history stayed cold. HydratedEvents counts event records decoded
	// by on-demand hydration since open.
	OpenDecodedEvents, HydratedEvents int
	// MappedBytes is the number of segment bytes currently mmap'd
	// (Options.Mmap); mappings are scoped to open/hydration scans, so a
	// quiescent store reports zero.
	MappedBytes int64
	// Identity is the store's shard identity (SetIdentity), absent from
	// the JSON of an unstamped store and of an aggregate over several.
	Identity string `json:",omitempty"`
}

// Store is the persistent blackholing event store. See the package
// comment for the design; all methods are safe for concurrent use.
type Store struct {
	mu   sync.RWMutex
	dir  string
	opts Options
	inst *Instruments // immutable after Open and never nil: un-instrumented is no handle wired
	lock string       // writer-lock file path; empty when read-only

	identity string // shard identity (SetIdentity), "" when unstamped

	// events holds every indexed event by ordinal (append order); a nil
	// slot is a dead event (tombstoned, or a superseded duplicate
	// dropped by compaction). Mutating slots copies the slice first so
	// snapshots handed out by All stay safe. eventSeg is parallel: the
	// segment whose file holds each ordinal's record.
	events   []*core.Event
	eventSeg []uint64
	live     int

	// tombs are the DeletePrefix directives in force; tombSeg is the
	// segment each tombstone record lives in (compaction re-emits a
	// tombstone when its segment merges).
	tombs   []Tombstone
	tombSeg []uint64

	sealed []segFile   // sealed segments, ascending seq
	active SegmentFile // nil when read-only or closed
	seq    uint64      // active segment sequence number
	size   int64       // active segment size in bytes

	// Group-commit state: records appended since the last fsync, the
	// armed Interval timer (nil when idle), a timer-driven sync failure
	// awaiting surfacing, and whether the active segment is wounded (a
	// failed write or sync) and must be failed over before more appends.
	unsynced    int
	syncTimer   *time.Timer
	asyncErr    error
	writeFailed bool

	// Active segment bookkeeping for partition rolling and erasure
	// tracking: live event count, dead-on-disk record count, earliest
	// event start, and the segment's time partition.
	activeEvents   int
	activeDead     int
	activeMinStart int64
	activePart     int64

	closed bool

	recoveredTails int
	sealedBytes    int64

	// Cold-open bookkeeping: lazy (sidecar-backed, undecoded) sealed
	// segments, cumulative on-demand hydrations, event records open
	// decoded from sealed segments, event records decoded by hydration,
	// segment bytes currently mmap'd, and the last hydration failure
	// (surfaced via Health; the segment stays lazy and retries on the
	// next touching query).
	coldSegs       int
	hydratedSegs   int
	openDecoded    int
	hydratedEvents int
	mappedBytes    int64
	hydrateErr     error

	// Active-segment summary accumulator: every event record appended
	// to the active segment (file order, dead-on-arrival included) and
	// every non-event record payload, so seal can write the segment's
	// sidecar without re-reading the file.
	activeRecs   []*core.Event
	activeOthers [][]byte

	trie        *Trie
	byUser      map[bgp.ASN][]int32
	byProvider  map[core.ProviderRef][]int32
	byCommunity map[bgp.Community][]int32
	byDay       map[int64][]int32 // unix day → events overlapping it
	// days is the materialized per-day aggregate view behind
	// DailyCounts: refcounted distinct providers / users / prefixes per
	// unix day, maintained by index/unindex so /figure4-style dashboard
	// queries answer in O(days) instead of O(events).
	days     map[int64]*dayAgg
	minStart time.Time
	maxEnd   time.Time

	scratch []byte

	// compactMu serializes whole compactions; s.mu is only held for
	// Compact's brief swap phases, never across a merge write.
	compactMu   sync.Mutex
	compactCh   chan struct{}
	compactDone chan struct{}
}

// Open opens (or creates) the event store in dir, replays every segment
// and rebuilds the in-memory indexes. A torn tail on the newest segment
// — the signature of a crash mid-append — is truncated away; torn tails
// on older segments are skipped. Partially written compaction temp
// files are removed, and segments a compaction marker declares
// superseded (a crash between a merge's atomic commit and its cleanup)
// are skipped and deleted instead of double-indexed. A read-write Open
// takes the directory's writer lock; a second concurrent writer fails
// loudly.
func Open(dir string, opts Options) (*Store, error) {
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = defaultMaxSegmentBytes
	}
	if opts.OpenSegment == nil {
		opts.OpenSegment = openSegmentFile
	}
	if opts.Instruments == nil {
		opts.Instruments = &Instruments{}
	}
	var lock string
	if !opts.ReadOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		var err error
		if lock, err = acquireLock(dir); err != nil {
			return nil, err
		}
	}
	s, err := open(dir, opts)
	if err != nil {
		if lock != "" {
			os.Remove(lock)
		}
		return nil, err
	}
	s.lock = lock
	return s, nil
}

func open(dir string, opts Options) (*Store, error) {
	s := &Store{
		dir:            dir,
		opts:           opts,
		inst:           opts.Instruments,
		trie:           &Trie{},
		byUser:         map[bgp.ASN][]int32{},
		byProvider:     map[core.ProviderRef][]int32{},
		byCommunity:    map[bgp.Community][]int32{},
		byDay:          map[int64][]int32{},
		days:           map[int64]*dayAgg{},
		activeMinStart: noMinStart,
	}
	segs, sidecars, err := listDir(dir, opts.ReadOnly)
	if err != nil {
		if opts.ReadOnly && os.IsNotExist(err) {
			return nil, fmt.Errorf("store: %s: no such store", dir)
		}
		return nil, err
	}
	if s.identity, err = readIdentity(dir); err != nil {
		return nil, err
	}

	// Sidecar summaries: structurally validate (magic, CRC, version,
	// matching seq, segment file size unchanged since write). Orphans
	// and invalid sidecars are removed on a read-write open — the heal
	// pass below rewrites what's worth keeping.
	bySeq := make(map[uint64]int, len(segs))
	for i, sf := range segs {
		bySeq[sf.seq] = i
	}
	sums := make([]*segSummary, len(segs))
	for seq, path := range sidecars {
		i, ok := bySeq[seq]
		if !ok {
			if !opts.ReadOnly {
				os.Remove(path) // orphan: its segment is gone
			}
			continue
		}
		m, merr := loadSidecar(path)
		if merr == nil && m.seq == seq {
			if fi, serr := os.Stat(segs[i].path); serr == nil && fi.Size() == m.fileSize {
				sums[i] = m
				continue
			}
		}
		if !opts.ReadOnly {
			os.Remove(path)
		}
	}

	// Scan pass. The newest segment is always scanned — it carries the
	// crash-torn tail recovery truncates, and it becomes the active
	// segment. Older segments are scanned only without a valid sidecar
	// (or always, when ColdOpen is off). Scan backings (possibly mmap'd
	// views) are released when open finishes decoding.
	scans := make([]scanResult, len(segs))
	scanned := make([]bool, len(segs))
	var releases []func()
	defer func() {
		for _, r := range releases {
			r()
		}
	}()
	scanAt := func(i int) error {
		sc, done, serr := s.scanSegmentFile(segs[i].path)
		if serr != nil {
			return serr
		}
		releases = append(releases, done)
		scans[i], scanned[i] = sc, true
		return nil
	}
	for i := 0; i < len(segs); {
		last := i == len(segs)-1
		if scanned[i] || (opts.ColdOpen && sums[i] != nil && !last) {
			i++
			continue
		}
		if err := scanAt(i); err != nil {
			// A crash between a segment's creation and its first sync
			// can leave the newest file without a complete magic; treat
			// it like a torn tail, not corruption.
			if errors.Is(err, errNotSegment) && last {
				if !opts.ReadOnly {
					if rerr := os.Remove(segs[i].path); rerr != nil {
						return nil, rerr
					}
					os.Remove(sumPath(dir, segs[i].seq))
				}
				segs, scans, scanned, sums = segs[:i], scans[:i], scanned[:i], sums[:i]
				s.recoveredTails++
				if i > 0 {
					// The previous segment is the new newest: it must be
					// scanned too, even if a sidecar would have covered it.
					i = len(segs) - 1
				}
				continue
			}
			return nil, err
		}
		i++
	}

	// recsOf yields a segment's record payloads without forcing a scan:
	// a lazy segment's sidecar carries its non-event records (markers,
	// tombstones) verbatim, which is all the passes below need.
	recsOf := func(i int) [][]byte {
		if scanned[i] {
			return scans[i].records
		}
		return sums[i].others
	}

	// Honour compaction markers: a marker supersedes exactly the seqs
	// it lists. Superseded segments are leftovers of a crash between a
	// merge's atomic commit and its cleanup — indexing them would
	// double-count every event they hold.
	superseded := map[uint64]bool{}
	for i := range segs {
		for _, rec := range recsOf(i) {
			if !isMarker(rec) {
				continue
			}
			listed, merr := markerV2Seqs(rec)
			if merr != nil {
				return nil, fmt.Errorf("store: %s: %w", segs[i].path, merr)
			}
			for _, q := range listed {
				// A marker can only speak for segments older than
				// itself; anything else is corruption — ignore it
				// rather than delete live data.
				if q < segs[i].seq {
					superseded[q] = true
				}
			}
		}
	}
	if len(superseded) > 0 {
		keptSegs, keptScans := segs[:0:0], scans[:0:0]
		keptScanned, keptSums := scanned[:0:0], sums[:0:0]
		for i, sf := range segs {
			if superseded[sf.seq] {
				if !opts.ReadOnly {
					if err := os.Remove(sf.path); err != nil {
						return nil, err
					}
					os.Remove(sumPath(dir, sf.seq))
				}
				continue
			}
			keptSegs = append(keptSegs, sf)
			keptScans = append(keptScans, scans[i])
			keptScanned = append(keptScanned, scanned[i])
			keptSums = append(keptSums, sums[i])
		}
		segs, scans, scanned, sums = keptSegs, keptScans, keptScanned, keptSums
	}

	// Tombstones from every kept segment — scanned records or sidecar
	// copies — are collected before any event is indexed or reserved:
	// their time-based semantics are independent of replay order. The
	// raw payloads double as the staleness oracle below.
	var tombPayloads [][]byte
	for i, sf := range segs {
		for _, rec := range recsOf(i) {
			if !isTombstone(rec) {
				continue
			}
			tb, terr := decodeTombstone(rec)
			if terr != nil {
				return nil, fmt.Errorf("store: %s: %w", sf.path, terr)
			}
			s.tombs = append(s.tombs, tb)
			s.tombSeg = append(s.tombSeg, sf.seq)
			tombPayloads = append(tombPayloads, slices.Clone(rec))
		}
	}

	// Staleness: the tombstone set only grows, so a sidecar is stale
	// exactly when a tombstone outside its recorded applied set could
	// kill one of its live events — its liveness counts can't be
	// trusted. Demote such segments to a full decode now; the heal pass
	// rewrites their sidecars.
	for i := range segs {
		if sums[i] == nil || scanned[i] {
			continue
		}
		applied := make(map[string]bool, len(sums[i].applied))
		for _, p := range sums[i].applied {
			applied[string(p)] = true
		}
		for j, p := range tombPayloads {
			if !applied[string(p)] && sums[i].tombMayAffect(s.tombs[j]) {
				if err := scanAt(i); err != nil {
					return nil, err
				}
				sums[i] = nil
				break
			}
		}
	}

	// Build pass, ascending seq. Scanned segments decode and index
	// their tombstone survivors; lazy segments reserve a contiguous
	// ordinal block straight from the sidecar. Ordinals land in the
	// same (segment, record) order either way, so query results sort
	// identically on a cold and a warm store.
	type healSeg struct {
		i    int
		recs []sumRec
	}
	var heals []healSeg
	var lastEvs []*core.Event
	fallbacks := 0
	for i := range segs {
		lastIdx := i == len(segs)-1
		if scanned[i] {
			if !lastIdx && sums[i] == nil {
				fallbacks++
			}
			segs[i].minStartNano = noMinStart
			var evs []*core.Event
			for _, rec := range scans[i].records {
				if isMarker(rec) || isTombstone(rec) {
					continue
				}
				ev, derr := DecodeEvent(rec)
				if derr != nil {
					return nil, fmt.Errorf("store: %s: %w", segs[i].path, derr)
				}
				evs = append(evs, ev)
				segs[i].hasEvents = true
				if nano := ev.Start.UTC().UnixNano(); nano < segs[i].minStartNano {
					segs[i].minStartNano = nano
				}
				if !lastIdx {
					s.openDecoded++
				}
			}
			heal := !lastIdx && !opts.ReadOnly && sums[i] == nil
			var recs []sumRec
			if heal {
				recs = make([]sumRec, 0, len(evs))
			}
			for _, ev := range evs {
				dead := s.tombstoned(ev)
				if dead {
					segs[i].dead++
				} else {
					s.index(ev, segs[i].seq)
				}
				if heal {
					recs = append(recs, sumRec{ev: ev, dead: dead})
				}
			}
			segs[i].size = scans[i].validLen
			if scans[i].truncated {
				s.recoveredTails++
				if !opts.ReadOnly && lastIdx {
					// Crash tore the newest segment's tail: truncate so new
					// appends start at a clean record boundary.
					if err := os.Truncate(segs[i].path, scans[i].validLen); err != nil {
						return nil, err
					}
				}
			}
			if heal {
				heals = append(heals, healSeg{i: i, recs: recs})
			}
			if lastIdx {
				lastEvs = evs
			}
			continue
		}
		// Lazy: trust the sidecar, decode nothing.
		m := sums[i]
		segs[i].size = m.validLen
		segs[i].minStartNano = noMinStart
		if m.eventRecords > 0 {
			segs[i].minStartNano = m.allMinStart
		}
		segs[i].hasEvents = m.eventRecords > 0
		segs[i].dead = m.eventRecords - m.liveCount
		if m.truncated {
			s.recoveredTails++
		}
		if m.liveCount > 0 {
			segs[i].lazy = true
			segs[i].sum = m
			segs[i].base = int32(len(s.events))
			segs[i].n = int32(m.liveCount)
			for k := 0; k < m.liveCount; k++ {
				s.events = append(s.events, nil)
				s.eventSeg = append(s.eventSeg, segs[i].seq)
			}
			s.live += m.liveCount
			s.coldSegs++
			if t := time.Unix(0, m.liveMinStart).UTC(); s.minStart.IsZero() || t.Before(s.minStart) {
				s.minStart = t
			}
			if t := time.Unix(0, m.liveMaxEnd).UTC(); t.After(s.maxEnd) {
				s.maxEnd = t
			}
		}
	}
	s.inst.SidecarFallbacks.Add(uint64(fallbacks))

	// Self-heal: sealed segments the open had to fully decode get a
	// fresh sidecar, so the next open is cold again. Best-effort — a
	// failed write just means another full decode next time.
	healed := 0
	for _, h := range heals {
		fi, statErr := os.Stat(segs[h.i].path)
		if statErr != nil {
			continue
		}
		m := buildSummary(segs[h.i].seq, fi.Size(), scans[h.i].validLen, scans[h.i].truncated,
			h.recs, nonEventPayloads(scans[h.i].records), tombPayloads)
		if writeSidecar(dir, m) == nil {
			healed++
		}
	}
	s.inst.SidecarWrites.Add(uint64(healed))

	if opts.ReadOnly {
		s.sealed = segs
		for _, sf := range s.sealed {
			s.sealedBytes += sf.size
		}
		return s, nil
	}

	// Reopen the newest segment for appending, or start the first one.
	// The reopened size is the scan's validLen, not the file size: any
	// torn bytes past it were truncated above (or belong to a garbage
	// tail new appends must not extend).
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		f, err := s.opts.OpenSegment(last.path, false)
		if err != nil {
			return nil, err
		}
		s.active, s.seq, s.size = f, last.seq, scans[len(scans)-1].validLen
		s.activeDead = last.dead
		s.activeMinStart = last.minStartNano
		if last.hasEvents && opts.Policy.Partition > 0 {
			s.activePart = partitionKey(last.minStartNano, opts.Policy.Partition)
		}
		for _, ev := range lastEvs {
			if !s.tombstoned(ev) {
				s.activeEvents++
			}
		}
		s.activeRecs = lastEvs
		s.activeOthers = nonEventPayloads(scans[len(scans)-1].records)
		s.sealed = segs[:len(segs)-1]
	} else {
		if err := s.startSegment(1); err != nil {
			return nil, err
		}
	}
	for _, sf := range s.sealed {
		s.sealedBytes += sf.size
	}
	if opts.CompactSegments > 0 {
		s.compactCh = make(chan struct{}, 1)
		s.compactDone = make(chan struct{})
		go s.compactLoop()
	}
	return s, nil
}

// nonEventPayloads copies a scan's marker and tombstone payloads (the
// copies outlive the scan's possibly-mmap'd backing).
func nonEventPayloads(recs [][]byte) [][]byte {
	var out [][]byte
	for _, rec := range recs {
		if isMarker(rec) || isTombstone(rec) {
			out = append(out, slices.Clone(rec))
		}
	}
	return out
}

// scanSegmentFile scans one segment through the configured read seam:
// an mmap'd view under Options.Mmap (the page cache holds the bytes,
// not the Go heap) or a buffered read. The returned release function
// must run only after every record is decoded or copied — records
// alias the backing memory.
func (s *Store) scanSegmentFile(path string) (scanResult, func(), error) {
	if s.opts.Mmap && mmapSupported {
		if data, done, err := mapFile(path); err == nil {
			sc, serr := scanSegment(data, path)
			if serr != nil {
				done()
				return scanResult{}, nil, serr
			}
			n := int64(len(data))
			s.mappedBytes += n
			return sc, func() { s.mappedBytes -= n; done() }, nil
		}
		// Mapping failed (exotic filesystem): fall back to a read.
	}
	sc, err := readSegment(path)
	if err != nil {
		return scanResult{}, nil, err
	}
	return sc, func() {}, nil
}

// startSegment creates segment seq and makes it the active one.
func (s *Store) startSegment(seq uint64) error {
	f, err := createSegment(s.opts.OpenSegment, filepath.Join(s.dir, segName(seq)))
	if err != nil {
		return err
	}
	s.active, s.seq, s.size = f, seq, int64(len(segMagic))
	s.activeEvents, s.activeDead, s.activeMinStart, s.activePart = 0, 0, noMinStart, 0
	s.activeRecs, s.activeOthers = nil, nil
	return nil
}

// index adds ev to the in-memory state under the next ordinal, recording
// the segment holding its record.
func (s *Store) index(ev *core.Event, seq uint64) {
	ord := int32(len(s.events))
	s.events = append(s.events, nil)
	s.eventSeg = append(s.eventSeg, seq)
	s.live++
	s.indexAt(ev, ord)
}

// unindex removes ordinal ord from every index and nils its slot,
// returning the segment that still holds its record on disk. The caller
// must hold the write lock and have copy-on-write-cloned s.events if
// snapshots may be live.
func (s *Store) unindex(ord int32) uint64 {
	ev := s.events[ord]
	s.events[ord] = nil
	s.live--
	s.postings(ev, func(l []int32) []int32 { return removeOrd(l, ord) })
	s.dayRemove(ev)
	return s.eventSeg[ord]
}

// moveOrd relocates the live event at ordinal from to the (empty)
// ordinal to, rewriting every index posting — compaction uses it to put
// a duplicate's survivor at the key's first-appearance position, which
// is where the merged segment writes it. Caller holds the write lock
// with s.events cloned.
func (s *Store) moveOrd(from, to int32) {
	ev := s.events[from]
	s.events[to], s.events[from] = ev, nil
	s.eventSeg[to] = s.eventSeg[from]
	s.postings(ev, func(l []int32) []int32 { return insertOrd(removeOrd(l, from), to) })
}

// tombstoned reports whether any tombstone in force kills ev.
func (s *Store) tombstoned(ev *core.Event) bool {
	for _, tb := range s.tombs {
		if tb.Matches(ev) {
			return true
		}
	}
	return false
}

func unixDay(t time.Time) int64 {
	const day = 24 * 60 * 60
	sec := t.Unix()
	if sec < 0 {
		return (sec - day + 1) / day
	}
	return sec / day
}

// Append persists the events (in order) and indexes them. The write
// lands in the OS page cache; call Sync for durability. An event a
// tombstone in force already covers is written to the log but stays
// invisible (its record is dropped at the next compaction).
func (s *Store) Append(events ...*core.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return ErrClosed
	case s.opts.ReadOnly:
		return ErrReadOnly
	}
	defer s.inst.AppendSeconds.ObserveSince(s.inst.AppendSeconds.Now())
	s.inst.AppendEvents.Add(uint64(len(events)))
	for _, ev := range events {
		// Time-partitioned segments: roll the active segment when the
		// event belongs to a different partition, so merges never have
		// to cross partition boundaries.
		if s.opts.Policy.Partition > 0 {
			pk := partitionKey(ev.Start.UTC().UnixNano(), s.opts.Policy.Partition)
			if s.activeEvents+s.activeDead > 0 && pk != s.activePart {
				if err := s.seal(); err != nil {
					return err
				}
			}
			if s.activeEvents+s.activeDead == 0 {
				s.activePart = pk
			}
		}
		payload := EncodeEvent(s.scratch[:0], ev)
		s.scratch = payload[:0]
		rec := appendRecord(nil, payload)
		if err := s.writeRecord(rec); err != nil {
			return fmt.Errorf("store: append: %w", err)
		}
		if nano := ev.Start.UTC().UnixNano(); nano < s.activeMinStart {
			s.activeMinStart = nano
		}
		s.activeRecs = append(s.activeRecs, ev)
		if s.tombstoned(ev) {
			s.activeDead++ // dead on arrival: logged but invisible
		} else {
			s.index(ev, s.seq)
			s.activeEvents++
		}
		if s.size >= s.opts.MaxSegmentBytes {
			if err := s.seal(); err != nil {
				return err
			}
		}
	}
	return s.maybeGroupCommit()
}

// writeRecord appends one raw record to the active segment, tracking
// size and group-commit lag. A wounded segment (an earlier write or
// fsync failure left its tail in an unknown state) is failed over to a
// fresh segment first, so a torn record can never sit in the middle of
// a record boundary new appends extend.
func (s *Store) writeRecord(rec []byte) error {
	if s.writeFailed {
		if err := s.failoverSeal(); err != nil {
			return fmt.Errorf("segment failover: %w", err)
		}
	}
	if _, err := s.active.Write(rec); err != nil {
		s.writeFailed = true
		return err
	}
	s.size += int64(len(rec))
	s.unsynced++
	return nil
}

// maybeGroupCommit applies Options.Sync after a batch of appended
// records: fsync now when the policy demands it, or arm the Interval
// timer. A pending timer-sync failure surfaces here first. Caller
// holds the write lock.
func (s *Store) maybeGroupCommit() error {
	if err := s.asyncErr; err != nil {
		s.asyncErr = nil
		return fmt.Errorf("store: group commit: %w", err)
	}
	pol := s.opts.Sync
	if pol.Always || (pol.EveryN > 0 && s.unsynced >= pol.EveryN) {
		if err := s.syncActive(); err != nil {
			return fmt.Errorf("store: group commit: %w", err)
		}
		return nil
	}
	if pol.Interval > 0 && s.unsynced > 0 && s.syncTimer == nil {
		s.syncTimer = time.AfterFunc(pol.Interval, s.timedSync)
	}
	return nil
}

// syncActive fsyncs the active segment and resets the group-commit
// lag. Caller holds the write lock.
func (s *Store) syncActive() error {
	if s.active == nil {
		return nil
	}
	s.observeCommitBatch()
	if err := s.fsync(); err != nil {
		s.writeFailed = true
		return err
	}
	s.unsynced = 0
	s.stopSyncTimer()
	return nil
}

func (s *Store) stopSyncTimer() {
	if s.syncTimer != nil {
		s.syncTimer.Stop()
		s.syncTimer = nil
	}
}

// timedSync is the Interval policy's deadline: fsync whatever the
// group commit has accumulated. Its failure is remembered and returned
// by the next Append or Sync (a timer has no caller to report to).
func (s *Store) timedSync() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncTimer = nil
	if s.closed || s.active == nil || s.unsynced == 0 {
		return
	}
	s.observeCommitBatch()
	if err := s.fsync(); err != nil {
		s.writeFailed = true
		s.asyncErr = err
		return
	}
	s.unsynced = 0
}

// failoverSeal abandons a wounded active segment: a failed write or
// fsync left bytes past the last known-good record in an unknown
// state, so the file is sealed at its known-good length — recovery
// skips any torn bytes beyond it — and a fresh segment takes over.
// Sync and close on the wounded file are best-effort: its data is
// already at risk, and the point here is a clean record boundary for
// everything appended next.
func (s *Store) failoverSeal() error {
	next, err := createSegment(s.opts.OpenSegment, filepath.Join(s.dir, segName(s.seq+1)))
	if err != nil {
		return err
	}
	s.fsync()
	s.finishSeal(next)
	s.writeFailed = false
	s.inst.Failovers.Inc()
	return nil
}

// DeletePrefix erases the history of a prefix: every stored event whose
// prefix lies inside prefix (including exact matches) and — when upTo
// is non-zero — ended at or before upTo disappears from queries
// immediately, and its bytes are dropped from disk at the next
// compaction of its segment. The tombstone is durable (an appended
// record; call Sync for immediate durability) and stays in force for
// later appends and reopens. Returns the number of events erased now.
func (s *Store) DeletePrefix(prefix netip.Prefix, upTo time.Time) (int, error) {
	if prefix.IsValid() {
		// The covered-walk below only sees hydrated events: pull in any
		// cold segment that could hold victims first, so the erasure
		// count and dead-segment accounting match a warm store's.
		s.ensureHydrated(Filter{Prefix: prefix, Mode: PrefixCovered})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return 0, ErrClosed
	case s.opts.ReadOnly:
		return 0, ErrReadOnly
	case !prefix.IsValid():
		return 0, fmt.Errorf("store: DeletePrefix: invalid prefix")
	}
	tb := Tombstone{Prefix: prefix.Masked()}
	if !upTo.IsZero() {
		tb.UpTo = upTo.UTC()
	}
	payload := encodeTombstone(nil, tb)
	rec := appendRecord(nil, payload)
	if err := s.writeRecord(rec); err != nil {
		return 0, fmt.Errorf("store: delete: %w", err)
	}
	s.activeOthers = append(s.activeOthers, payload)
	s.tombs = append(s.tombs, tb)
	s.tombSeg = append(s.tombSeg, s.seq)

	// Collect doomed ordinals first: unindex mutates the postings the
	// trie matches alias.
	var doomed []int32
	for _, m := range s.trie.Covered(tb.Prefix) {
		for _, ord := range m.Ords {
			if ev := s.events[ord]; ev != nil && (tb.UpTo.IsZero() || !ev.End.After(tb.UpTo)) {
				doomed = append(doomed, ord)
			}
		}
	}
	if len(doomed) > 0 {
		// Copy-on-write: snapshots handed out by All keep the old array.
		s.events = slices.Clone(s.events)
		for _, ord := range doomed {
			seq := s.unindex(ord)
			if seq == s.seq {
				s.activeDead++
				s.activeEvents--
			} else {
				for i := range s.sealed {
					if s.sealed[i].seq == seq {
						s.sealed[i].dead++
						break
					}
				}
			}
		}
	}
	if s.size >= s.opts.MaxSegmentBytes {
		if err := s.seal(); err != nil {
			return len(doomed), err
		}
	}
	return len(doomed), s.maybeGroupCommit()
}

// seal syncs and closes the active segment and starts the next one.
// The replacement segment is created first, so the store keeps a valid
// active segment on every error path. Caller holds the write lock.
func (s *Store) seal() error {
	next, err := createSegment(s.opts.OpenSegment, filepath.Join(s.dir, segName(s.seq+1)))
	if err != nil {
		return err
	}
	if err := s.fsync(); err != nil {
		s.writeFailed = true
		next.Close()
		os.Remove(next.Name())
		return err
	}
	// The segment's bytes are durable: summarize it so the next open can
	// skip decoding it. (The failover path writes no sidecar — a wounded
	// segment's tail is unknown; the next open scans and heals it.)
	s.writeSealSidecar()
	s.finishSeal(next)
	return nil
}

// finishSeal retires the active segment — its data is already synced
// (or abandoned, on the failover path) — records it in the sealed set,
// and installs next as the new active segment. Caller holds the write
// lock.
func (s *Store) finishSeal(next SegmentFile) {
	// The old active's data is synced; a close error cannot lose anything.
	s.active.Close()
	s.sealed = append(s.sealed, segFile{
		seq:          s.seq,
		path:         filepath.Join(s.dir, segName(s.seq)),
		size:         s.size,
		minStartNano: s.activeMinStart,
		hasEvents:    s.activeEvents+s.activeDead > 0,
		dead:         s.activeDead,
	})
	s.sealedBytes += s.size
	s.inst.Seals.Inc()
	s.active, s.seq, s.size = next, s.seq+1, int64(len(segMagic))
	s.activeEvents, s.activeDead, s.activeMinStart, s.activePart = 0, 0, noMinStart, 0
	s.activeRecs, s.activeOthers = nil, nil
	s.unsynced = 0
	s.stopSyncTimer()
	if s.compactCh != nil && len(s.sealed) >= s.opts.CompactSegments {
		select {
		case s.compactCh <- struct{}{}:
		default:
		}
	}
}

// Sync flushes the active segment to stable storage. A deferred
// group-commit failure (an Interval timer fsync that failed) surfaces
// here if no Append reported it first.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.asyncErr; err != nil {
		s.asyncErr = nil
		return fmt.Errorf("store: group commit: %w", err)
	}
	if s.active == nil {
		return nil
	}
	return s.syncActive()
}

// Close syncs and closes the store. Further calls fail with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.stopSyncTimer()
	compactDone := s.compactDone
	if s.compactCh != nil {
		close(s.compactCh)
	}
	var err error
	if s.active != nil {
		if serr := s.fsync(); serr != nil {
			err = serr
		}
		if cerr := s.active.Close(); err == nil {
			err = cerr
		}
		s.active = nil
	}
	lock := s.lock
	s.lock = ""
	s.mu.Unlock()
	if compactDone != nil {
		<-compactDone
	}
	// Release the writer lock last, after any in-flight compaction has
	// finished touching the directory.
	if lock != "" {
		os.Remove(lock)
	}
	return err
}

// Len returns the number of live events in the store.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live
}

// Stats snapshots the store's shape.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Events:            s.live,
		Prefixes:          s.trie.Len(),
		Segments:          len(s.sealed),
		Bytes:             s.sealedBytes,
		Tombstones:        len(s.tombs),
		PendingErasure:    s.activeDead,
		Unsynced:          s.unsynced,
		RecoveredTails:    s.recoveredTails,
		MinStart:          s.minStart,
		MaxEnd:            s.maxEnd,
		SegmentsCold:      s.coldSegs,
		SegmentsHydrated:  s.hydratedSegs,
		OpenDecodedEvents: s.openDecoded,
		HydratedEvents:    s.hydratedEvents,
		MappedBytes:       s.mappedBytes,
		Identity:          s.identity,
	}
	for _, sf := range s.sealed {
		st.PendingErasure += sf.dead
	}
	if s.active != nil {
		st.Segments++
		st.Bytes += s.size
	}
	return st
}

// All returns the stored live events in append order, as a snapshot:
// events appended or erased after the call are not reflected. On a
// cold-opened store this warms every remaining lazy segment first — an
// unfiltered walk touches everything by definition.
func (s *Store) All() iter.Seq[*core.Event] {
	s.ensureHydratedAll()
	s.mu.RLock()
	events := s.events[:len(s.events):len(s.events)]
	s.mu.RUnlock()
	return func(yield func(*core.Event) bool) {
		for _, ev := range events {
			if ev == nil {
				continue
			}
			if !yield(ev) {
				return
			}
		}
	}
}

func (s *Store) compactLoop() {
	defer close(s.compactDone)
	pol := s.opts.Policy
	if pol == (Policy{}) {
		pol = Policy{MergeAll: true}
	}
	for range s.compactCh {
		// Best-effort: a failed background compaction leaves the store
		// exactly as it was (no rename happened).
		s.Compact(pol)
	}
}

// dupKey identifies records of the same underlying blackholing
// occurrence: the engine serializes events per prefix, so two records
// sharing (prefix, start, start-unknown) are the same event closed
// twice — typically once artificially by an end-of-window flush and
// once, longer, by a later overlapping replay.
type dupKey struct {
	prefix       netip.Prefix
	start        int64
	startUnknown bool
}

func keyOf(ev *core.Event) dupKey {
	return dupKey{ev.Prefix, ev.Start.UTC().UnixNano(), ev.StartUnknown}
}

// supersedes reports whether a replaces b for the same dupKey.
func supersedes(a, b *core.Event) bool {
	if !a.End.Equal(b.End) {
		return a.End.After(b.End)
	}
	return a.Detections >= b.Detections
}
