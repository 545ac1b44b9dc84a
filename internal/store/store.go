package store

import (
	"cmp"
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
	// ColdOpen is read nowhere: every open is cold (see Open).
	//
	// Deprecated: no effect.
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
	// window stays below N records. 1 syncs every non-empty Append batch.
	EveryN int
	// Interval fsyncs at most this long after the first unsynced
	// append — whichever of EveryN and Interval trips first wins. The
	// timer-driven sync's error, if any, surfaces on the next Append
	// or Sync call.
	Interval time.Duration
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

// ErrNotCanonical is returned by Append for an event with a set or key
// list that is not strictly ascending.
var ErrNotCanonical = errors.New("store: event is not in canonical form")

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
	// decoded yet (sidecar-backed, see Open); SegmentsHydrated counts
	// those decoded on demand since open. Prefixes reflects only
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

	ledgers
	live int // slots holding an event

	sealed []segFile  // sealed segments, ascending seq
	active *activeSeg // the segment appends land in; nil when read-only or closed

	// Group-commit state: records appended since the last fsync, the
	// armed Interval timer (nil when idle), a timer-driven sync failure
	// awaiting surfacing, and whether the active segment is wounded (a
	// failed write or sync) and must be failed over before more appends.
	unsynced    int
	syncTimer   *time.Timer
	asyncErr    error
	writeFailed bool

	closed bool

	recoveredTails int

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

	trie        *Trie
	byUser      map[bgp.ASN][]int32
	byProvider  map[core.ProviderRef][]int32
	byCommunity map[bgp.Community][]int32
	byDay       map[int64][]int32 // unix day → events overlapping it
	// days is the materialized per-day aggregate view behind
	// DailyCounts: refcounted distinct providers / users / prefixes per
	// unix day, maintained by index/unindex so /figure4-style dashboard
	// queries answer in O(days) instead of O(events). provs and pfxs
	// number its providers and prefixes.
	days     map[int64]*dayAgg
	provs    intern[core.ProviderRef]
	pfxs     intern[netip.Prefix]
	minStart time.Time
	maxEnd   time.Time

	scratch []byte

	// compactMu serializes whole compactions; s.mu is only held for
	// Compact's brief swap phases, never across a merge write.
	compactMu   sync.Mutex
	compactCh   chan struct{}
	compactDone chan struct{}
}

// ledgers are what the store holds by position, each entry with the
// segment whose file holds its record: slots, one per ordinal in append
// order, and the DeletePrefix directives in force. Both are
// copy-on-write — every in-place write clones the slice first — so a
// snapshot (a read walk's cursor, a compaction's phase 1) stays safe to
// read without the lock.
type ledgers struct {
	slots []slot
	tombs []tomb
}

// slot is one ordinal: its event, nil when dead (tombstoned, or a
// superseded duplicate dropped by compaction).
type slot struct {
	ev  *core.Event
	seg uint64
}

// tomb is one tombstone in force: compaction re-emits it when its
// segment merges.
type tomb struct {
	Tombstone
	seg uint64
}

// snapshot is the ledgers as they stand: appends past it reallocate.
func (l ledgers) snapshot() ledgers {
	return ledgers{l.slots[:len(l.slots):len(l.slots)], l.tombs[:len(l.tombs):len(l.tombs)]}
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
//
// Every open is cold: it decodes the newest segment and each sealed one
// whose sidecar is missing, corrupt or stale (sidecar.go), and reserves
// the rest until a query touches them. Answers are the same either way;
// Stats().Prefixes counts only the events hydrated so far.
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

// open rebuilds the store from dir as a sequence of passes over one
// slice, one entry per listed segment. Only a read-write open changes
// the directory, and each pass says what it may remove.
func open(dir string, opts Options) (*Store, error) {
	o := &opener{Store: &Store{
		dir:         dir,
		opts:        opts,
		inst:        opts.Instruments,
		trie:        &Trie{},
		byUser:      map[bgp.ASN][]int32{},
		byProvider:  map[core.ProviderRef][]int32{},
		byCommunity: map[bgp.Community][]int32{},
		byDay:       map[int64][]int32{},
		days:        map[int64]*dayAgg{},
		provs:       intern[core.ProviderRef]{ids: map[core.ProviderRef]uint32{}},
		pfxs:        intern[netip.Prefix]{ids: map[netip.Prefix]uint32{}},
	}}
	// Scan backings (possibly mmap'd views) outlive the passes: records
	// alias them until build has decoded or copied every one.
	defer func() {
		for _, release := range o.releases {
			release()
		}
	}()
	for _, pass := range []func() error{
		o.list, o.loadSidecars, o.scan, o.markers, o.tombstones, o.staleness, o.build, o.heal, o.activate,
	} {
		if err := pass(); err != nil {
			return nil, err
		}
	}
	return o.Store, nil
}

// openSeg is one listed segment on its way through open's passes: the
// segFile the store will keep, the sidecar that may stand in for its
// records, and the scan that read them.
type openSeg struct {
	segFile
	summary *segSummary // its sidecar, while valid and fresh; nil otherwise
	scan    *scanResult // its records, once scanned
	recs    []sumRec    // build's: its event records, decoded, with their liveness
}

// records yields the segment's record payloads without forcing a scan:
// a sidecar carries its segment's non-event records (markers,
// tombstones) verbatim, which is all the passes before build need.
func (p *openSeg) records() [][]byte {
	if p.scan != nil {
		return p.scan.records
	}
	return p.summary.others
}

// opener is a store being opened.
type opener struct {
	*Store
	segs     []openSeg
	sidecars map[uint64]string // seq → path, as listed
	releases []func()
}

// list reads the directory: segments in ascending seq, sidecar paths,
// the shard identity. listDir removes in-flight files.
func (o *opener) list() error {
	segs, sidecars, err := listDir(o.dir, o.opts.ReadOnly)
	if err != nil {
		if o.opts.ReadOnly && os.IsNotExist(err) {
			return fmt.Errorf("store: %s: no such store", o.dir)
		}
		return err
	}
	o.segs, o.sidecars = make([]openSeg, len(segs)), sidecars
	for i, sf := range segs {
		o.segs[i].segFile = sf
	}
	o.identity, err = readIdentity(o.dir)
	return err
}

// loadSidecars attaches each structurally valid sidecar (magic, CRC,
// version, matching seq, segment file size unchanged since it was
// written) to its segment. It removes every other one — invalid, or an
// orphan whose segment is gone; heal rewrites what is worth keeping.
func (o *opener) loadSidecars() error {
	for i := range o.segs {
		p := &o.segs[i]
		path, ok := o.sidecars[p.seq]
		if !ok {
			continue
		}
		if m, err := loadSidecar(path); err == nil && m.seq == p.seq {
			if fi, err := os.Stat(p.path); err == nil && fi.Size() == m.fileSize {
				p.summary = m
				delete(o.sidecars, p.seq)
			}
		}
	}
	if !o.opts.ReadOnly {
		for _, path := range o.sidecars {
			os.Remove(path)
		}
	}
	return nil
}

// scanSeg reads p's records through the configured seam.
func (o *opener) scanSeg(p *openSeg) error {
	sc, release, err := o.scanSegmentFile(p.path)
	if err != nil {
		return err
	}
	o.releases = append(o.releases, release)
	p.scan = &sc
	return nil
}

// scan reads the segments whose records open needs. The newest always:
// it carries the crash-torn tail recovery truncates, and it becomes the
// active segment. Older ones only without a valid sidecar. It removes a
// newest segment without a complete magic, and its sidecar.
func (o *opener) scan() error {
	for i := 0; i < len(o.segs); {
		p, last := &o.segs[i], i == len(o.segs)-1
		if p.scan != nil || (p.summary != nil && !last) {
			i++
			continue
		}
		err := o.scanSeg(p)
		if errors.Is(err, errNotSegment) && last {
			// A crash between a segment's creation and its first sync
			// can leave the newest file without a complete magic; treat
			// it like a torn tail, not corruption.
			if !o.opts.ReadOnly {
				if err := os.Remove(p.path); err != nil {
					return err
				}
				os.Remove(sumPath(o.dir, p.seq))
			}
			o.segs = o.segs[:i]
			o.recoveredTails++
			// The previous segment is the new newest: it must be scanned
			// too, even if a sidecar would have covered it.
			i = max(i-1, 0)
			continue
		}
		if err != nil {
			return err
		}
		i++
	}
	return nil
}

// markers honours compaction markers: a marker supersedes exactly the
// seqs it lists. Superseded segments are leftovers of a crash between a
// merge's atomic commit and its cleanup — indexing them would
// double-count every event they hold — so it drops them from the
// slice, and removes them and their sidecars.
func (o *opener) markers() error {
	superseded := map[uint64]bool{}
	for i := range o.segs {
		p := &o.segs[i]
		for _, rec := range p.records() {
			if !isMarker(rec) {
				continue
			}
			listed, err := markerV2Seqs(rec)
			if err != nil {
				return fmt.Errorf("store: %s: %w", p.path, err)
			}
			for _, q := range listed {
				// A marker can only speak for segments older than
				// itself; anything else is corruption — ignore it
				// rather than delete live data.
				if q < p.seq {
					superseded[q] = true
				}
			}
		}
	}
	if len(superseded) == 0 {
		return nil
	}
	kept := o.segs[:0]
	for _, p := range o.segs {
		if !superseded[p.seq] {
			kept = append(kept, p)
		} else if !o.opts.ReadOnly {
			if err := os.Remove(p.path); err != nil {
				return err
			}
			os.Remove(sumPath(o.dir, p.seq))
		}
	}
	o.segs = kept
	return nil
}

// tombstones collects the tombstones of every kept segment — scanned
// records or sidecar copies — before any event is indexed or reserved:
// their time-based semantics are independent of replay order. It
// removes nothing.
func (o *opener) tombstones() error {
	for i := range o.segs {
		p := &o.segs[i]
		for _, rec := range p.records() {
			if !isTombstone(rec) {
				continue
			}
			tb, err := decodeTombstone(rec)
			if err != nil {
				return fmt.Errorf("store: %s: %w", p.path, err)
			}
			o.tombs = append(o.tombs, tomb{tb, p.seq})
		}
	}
	return nil
}

// staleness demotes the sidecars whose liveness can no longer be
// trusted to a full decode: the tombstone set only grows, so a sidecar
// is stale exactly when a tombstone outside its recorded applied set
// could kill one of its live events. It removes nothing; heal rewrites
// the demoted sidecars.
func (o *opener) staleness() error {
	inForce := o.appliedTombs()
	for i := range o.segs {
		p := &o.segs[i]
		if p.summary == nil || p.scan != nil {
			continue
		}
		applied := make(map[string]bool, len(p.summary.applied))
		for _, enc := range p.summary.applied {
			applied[string(enc)] = true
		}
		for j, enc := range inForce {
			if !applied[string(enc)] && p.summary.tombMayAffect(o.tombs[j].Tombstone) {
				if err := o.scanSeg(p); err != nil {
					return err
				}
				p.summary = nil
				break
			}
		}
	}
	return nil
}

// build describes every segment and fills the indexes, ascending seq.
// A scanned segment decodes its records and indexes its tombstone
// survivors; a lazy one takes the description its sidecar stored and
// reserves a contiguous ordinal block, decoding nothing. Ordinals land
// in the same (segment, record) order either way, so query results sort
// identically on a cold and a warm store. It truncates the newest
// segment's torn tail, so new appends start at a clean record boundary.
func (o *opener) build() error {
	for i := range o.segs {
		p, last := &o.segs[i], i == len(o.segs)-1
		if p.scan == nil {
			o.reserve(&p.segFile, p.summary)
			continue
		}
		err := o.replay(p.scan.records, nil, func(ev *core.Event, dead bool) {
			p.recs = append(p.recs, sumRec{ev: ev, dead: dead})
			if !dead {
				o.index(ev, p.seq)
			}
		})
		if err != nil {
			return fmt.Errorf("store: %s: %w", p.path, err)
		}
		p.segDesc = describe(p.scan.validLen, p.recs)
		if !last { // scanned for want of a fresh sidecar
			o.openDecoded += p.events
			o.inst.SidecarFallbacks.Inc()
		}
		if p.scan.truncated {
			o.recoveredTails++
			if last && !o.opts.ReadOnly {
				if err := os.Truncate(p.path, p.scan.validLen); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// reserve makes sf the lazy segment its fresh sidecar m describes.
func (s *Store) reserve(sf *segFile, m *segSummary) {
	sf.segDesc = m.segDesc
	if m.truncated {
		s.recoveredTails++
	}
	if m.live() == 0 {
		return
	}
	sf.lazy, sf.sum = true, m
	sf.base, sf.n = int32(len(s.slots)), int32(m.live())
	for range m.live() {
		s.slots = append(s.slots, slot{seg: sf.seq})
	}
	s.live += m.live()
	s.coldSegs++
	if t := time.Unix(0, m.liveMinStart).UTC(); s.minStart.IsZero() || t.Before(s.minStart) {
		s.minStart = t
	}
	if t := time.Unix(0, m.liveMaxEnd).UTC(); t.After(s.maxEnd) {
		s.maxEnd = t
	}
}

// heal gives every sealed segment open had to fully decode for want of
// a sidecar a fresh one, so the next open is cold again. It removes
// nothing, and a read-only open skips it.
func (o *opener) heal() error {
	if o.opts.ReadOnly {
		return nil
	}
	for i := 0; i < len(o.segs)-1; i++ {
		if p := &o.segs[i]; p.summary == nil {
			o.writeSummary(p.seq, p.scan.fileSize, p.scan.validLen, p.scan.truncated, p.recs, nonEventPayloads(p.scan.records))
		}
	}
	return nil
}

// activate files the segments as sealed and, on a read-write open,
// reopens the newest for appending (or starts the first) and starts the
// background compactor. The active segment's size is the scan's valid
// length, not the file size: any torn bytes past it were truncated by
// build (or belong to a garbage tail new appends must not extend).
func (o *opener) activate() error {
	o.sealed = make([]segFile, len(o.segs))
	for i := range o.segs {
		o.sealed[i] = o.segs[i].segFile
	}
	if o.opts.ReadOnly {
		return nil
	}
	if len(o.segs) == 0 {
		var err error
		if o.active, err = o.newSegment(1); err != nil {
			return err
		}
	} else {
		last := &o.segs[len(o.segs)-1]
		f, err := o.opts.OpenSegment(last.path, false)
		if err != nil {
			return err
		}
		o.sealed = o.sealed[:len(o.sealed)-1]
		o.active = &activeSeg{segFile: last.segFile, file: f, recs: last.recs, others: nonEventPayloads(last.scan.records)}
		// Append sets part anew on a segment that holds no event yet.
		o.active.part = partitionKey(last.minStartNano, o.opts.Policy.Partition)
	}
	if o.opts.CompactSegments > 0 {
		o.compactCh = make(chan struct{}, 1)
		o.compactDone = make(chan struct{})
		go o.compactLoop()
	}
	return nil
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

// newSegment creates segment seq, open for appending and described as
// holding nothing yet.
func (s *Store) newSegment(seq uint64) (*activeSeg, error) {
	a := &activeSeg{}
	a.seq, a.path = seq, filepath.Join(s.dir, segName(seq))
	a.segDesc = describe(int64(len(segMagic)), nil)
	var err error
	if a.file, err = createSegment(s.opts.OpenSegment, a.path); err != nil {
		return nil, err
	}
	return a, nil
}

// segment finds the store's segment seq — the active one or a sealed
// one — or nil.
func (s *Store) segment(seq uint64) *segFile {
	if s.active != nil && s.active.seq == seq {
		return &s.active.segFile
	}
	if i, ok := slices.BinarySearchFunc(s.sealed, seq, func(sf segFile, q uint64) int { return cmp.Compare(sf.seq, q) }); ok {
		return &s.sealed[i]
	}
	return nil
}

// index adds ev to the in-memory state under the next ordinal, recording
// the segment holding its record.
func (s *Store) index(ev *core.Event, seq uint64) {
	ord := int32(len(s.slots))
	s.slots = append(s.slots, slot{seg: seq})
	s.live++
	s.indexAt(ev, ord)
}

// unindex removes ordinal ord from every index and empties its slot,
// returning the segment that still holds its record on disk. The caller
// must hold the write lock and have copy-on-write-cloned s.slots if
// snapshots may be live.
func (s *Store) unindex(ord int32) uint64 {
	ev := s.slots[ord].ev
	s.slots[ord].ev = nil
	s.live--
	s.postings(ev, func(l []int32) []int32 { return removeOrd(l, ord) })
	s.dayCount(ev, -1)
	return s.slots[ord].seg
}

// moveOrd relocates the live event at ordinal from to the (empty)
// ordinal to, rewriting every index posting — compaction uses it to put
// a duplicate's survivor at the key's first-appearance position, which
// is where the merged segment writes it. Caller holds the write lock
// with s.slots cloned.
func (s *Store) moveOrd(from, to int32) {
	ev := s.slots[from].ev
	s.slots[to], s.slots[from].ev = s.slots[from], nil
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

// replay decodes a scanned segment's event records in file order —
// markers and tombstones passed over — and hands each to visit with the
// verdict of the tombstones in force: the one walk open's build pass
// and hydration share. skip, when non-nil, names records by position
// among the event records to pass over undecoded.
func (s *Store) replay(records [][]byte, skip func(k int) bool, visit func(ev *core.Event, dead bool)) error {
	k := -1
	for _, rec := range records {
		if isMarker(rec) || isTombstone(rec) {
			continue
		}
		if k++; skip != nil && skip(k) {
			continue
		}
		ev, err := DecodeEvent(rec)
		if err != nil {
			return err
		}
		visit(ev, s.tombstoned(ev))
	}
	return nil
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
// invisible (its record is dropped at the next compaction). A batch
// holding an event whose sets are not in canonical form (core.Event) is
// refused whole with ErrNotCanonical before a byte is written: the
// decoder would refuse its record, and the store could not reopen.
func (s *Store) Append(events ...*core.Event) error {
	for _, ev := range events {
		if err := ev.Check(); err != nil {
			return fmt.Errorf("%w: %v", ErrNotCanonical, err)
		}
	}
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
		pk := partitionKey(ev.Start.UTC().UnixNano(), s.opts.Policy.Partition)
		if s.active.events > 0 && pk != s.active.part {
			if err := s.roll(); err != nil {
				return err
			}
		}
		s.scratch = EncodeEvent(s.scratch[:0], ev)
		err := s.record(s.scratch, func(a *activeSeg) {
			if a.events == 0 {
				a.part = pk
			}
			r := sumRec{ev: ev, dead: s.tombstoned(ev)} // dead on arrival: logged but invisible
			a.recs = append(a.recs, r)
			a.add(r)
			if !r.dead {
				s.index(ev, a.seq)
			}
		})
		if err != nil {
			return fmt.Errorf("store: append: %w", err)
		}
	}
	return s.groupCommit()
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
	var doomed []int32
	err := s.record(payload, func(a *activeSeg) {
		a.others = append(a.others, payload)
		s.tombs = append(s.tombs, tomb{tb, a.seq})
		// Collect doomed ordinals first: unindex mutates the postings the
		// trie matches alias.
		for _, m := range s.trie.Covered(tb.Prefix) {
			for _, ord := range m.Ords {
				if ev := s.slots[ord].ev; ev != nil && tb.Matches(ev) {
					doomed = append(doomed, ord)
				}
			}
		}
		if len(doomed) > 0 {
			s.slots = slices.Clone(s.slots)
			for _, ord := range doomed {
				if sf := s.segment(s.unindex(ord)); sf != nil {
					sf.dead++
				}
			}
		}
	})
	if err != nil {
		return len(doomed), fmt.Errorf("store: delete: %w", err)
	}
	return len(doomed), s.groupCommit()
}

// record is the one record step: it frames payload onto the active
// segment — failing a wounded segment over first, so a torn record never
// sits where new records extend — has note book it against the segment,
// and rolls the segment once it is full. Caller holds the write lock.
func (s *Store) record(payload []byte, note func(*activeSeg)) error {
	if s.writeFailed {
		if err := s.roll(); err != nil {
			return fmt.Errorf("segment failover: %w", err)
		}
	}
	rec := appendRecord(nil, payload)
	if _, err := s.active.file.Write(rec); err != nil {
		s.writeFailed = true
		return err
	}
	s.active.size += int64(len(rec))
	s.unsynced++
	note(s.active)
	if s.active.size >= s.opts.MaxSegmentBytes {
		return s.roll()
	}
	return nil
}

// groupCommit applies Options.Sync after a batch of records: sync now
// when the policy asks for it — or when a failed deadline sync is parked,
// which the durability step surfaces instead — or arm the Interval
// deadline. Caller holds the write lock.
func (s *Store) groupCommit() error {
	pol := s.opts.Sync
	switch {
	case s.asyncErr != nil || (pol.EveryN > 0 && s.unsynced >= pol.EveryN):
		if err := s.sync(syncCommit); err != nil {
			return fmt.Errorf("store: group commit: %w", err)
		}
	case pol.Interval > 0 && s.unsynced > 0 && s.syncTimer == nil:
		s.syncTimer = time.AfterFunc(pol.Interval, s.timedSync)
	}
	return nil
}

// syncCause says who asks the durability step for an fsync.
type syncCause uint8

const (
	syncCommit   syncCause = iota // a group commit or Sync: a parked deadline failure surfaces instead
	syncDeadline                  // the Interval deadline: a failure is parked for the next commit
	syncRoll                      // a roll or Close: not a group commit, so no batch is observed
)

// sync is the one durability step, and the only fsync of the active
// segment. Success clears the group-commit lag; failure wounds the
// segment, so its next record fails it over. Either way the Interval
// deadline is disarmed. Caller holds the write lock.
func (s *Store) sync(why syncCause) error {
	if err := s.asyncErr; why == syncCommit && err != nil {
		s.asyncErr = nil
		return err
	}
	if why != syncRoll && s.unsynced > 0 {
		s.inst.CommitBatch.Observe(float64(s.unsynced))
	}
	err := s.fsync()
	if s.syncTimer != nil {
		s.syncTimer.Stop()
		s.syncTimer = nil
	}
	if err != nil {
		s.writeFailed = true
		if why == syncDeadline {
			s.asyncErr = err
		}
		return err
	}
	s.unsynced = 0
	return nil
}

// timedSync is the Interval deadline: it syncs whatever the group commit
// has accumulated. A timer has no caller to report to, so a failure
// surfaces on the next Append or Sync.
func (s *Store) timedSync() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncTimer = nil
	if s.active != nil && s.unsynced > 0 {
		s.sync(syncDeadline)
	}
}

// roll is the one way a segment stops taking records — full, at a
// partition boundary, for a compaction or wounded: it seals the active
// segment and starts the next. The next one is created first, so the
// store keeps a valid active segment on every error path. A healthy
// segment must sync first, and is summarized from its accumulator (no
// re-read of the file) so the next open can skip decoding it. A wounded
// one (a failed write or sync left the bytes past its last good record
// unknown) fails over: its sync is best effort, it is sealed at its
// known-good length — recovery skips any torn bytes past it — and it
// gets no sidecar, so the next open scans and heals it. Caller holds
// the write lock.
func (s *Store) roll() error {
	next, err := s.newSegment(s.active.seq + 1)
	if err != nil {
		return err
	}
	a, wounded := s.active, s.writeFailed
	if err := s.sync(syncRoll); err != nil && !wounded {
		next.file.Close()
		os.Remove(next.path)
		return err
	}
	if wounded {
		s.inst.Failovers.Inc()
	} else {
		// Liveness is re-judged against the tombstones in force now, so
		// the summary equals what a decoding reopen would compute.
		for i := range a.recs {
			a.recs[i].dead = s.tombstoned(a.recs[i].ev)
		}
		s.writeSummary(a.seq, a.size, a.size, false, a.recs, a.others)
	}
	a.file.Close() // synced or abandoned: a close error cannot lose anything
	s.sealed = append(s.sealed, a.segFile)
	s.inst.Seals.Inc()
	s.active, s.unsynced, s.writeFailed = next, 0, false
	if s.compactCh != nil && len(s.sealed) >= s.opts.CompactSegments {
		select {
		case s.compactCh <- struct{}{}:
		default:
		}
	}
	return nil
}

// Sync flushes the active segment to stable storage. A deferred
// group-commit failure (an Interval deadline sync that failed) surfaces
// here if no Append reported it first.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return ErrClosed
	case s.active == nil: // read-only
		return nil
	}
	return s.sync(syncCommit)
}

// Close syncs and closes the store. Further calls fail with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	compactDone := s.compactDone
	if s.compactCh != nil {
		close(s.compactCh)
	}
	var err error
	if s.active != nil {
		err = s.sync(syncRoll)
		if cerr := s.active.file.Close(); err == nil {
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
		Tombstones:        len(s.tombs),
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
		st.Bytes += sf.size
		st.PendingErasure += sf.dead
	}
	if s.active != nil {
		st.Segments++
		st.Bytes += s.active.size
		st.PendingErasure += s.active.dead
	}
	return st
}

// All returns the stored live events in append order, as a snapshot:
// events appended or erased after the call are not reflected. It is
// QuerySeq's walk under the zero filter, so on a cold-opened store it
// warms every remaining lazy segment first — an unfiltered walk touches
// everything by definition.
func (s *Store) All() iter.Seq[*core.Event] { return s.QuerySeq(Filter{}) }

func (s *Store) compactLoop() {
	defer close(s.compactDone)
	for range s.compactCh {
		// Best-effort: a failed background compaction leaves the store
		// exactly as it was (no rename happened).
		s.Compact(s.opts.Policy)
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
