// Package faultfs provides fault-injected wrappers for chaos testing
// the persistence and session layers: files with a volatile page-cache
// model (bytes written become durable only on Sync; a simulated power
// loss discards the rest, optionally leaving a torn tail), scheduled
// error injection at precise operation counts, optional per-operation
// latency, and a flaky net.Conn that kills sessions on schedule.
//
// The store's Options.OpenSegment seam accepts FS.Open directly, so a
// test can drive the real append/seal/sync code paths while deciding
// exactly which write reaches the disk:
//
//	fs := faultfs.New()
//	st, _ := store.Open(dir, store.Options{
//		OpenSegment: func(path string, create bool) (store.SegmentFile, error) {
//			return fs.Open(path, create)
//		},
//	})
//	fs.CrashAt(faultfs.OpWrite, 7) // power loss at the 7th record write
//
// After a crash every further operation fails with ErrCrashed and the
// on-disk state holds exactly what had been synced — reopening the
// directory with a plain store then exercises real recovery.
package faultfs

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"
)

// Op identifies one class of file operation for fault matching.
type Op uint8

// The file operations faults can target.
const (
	// OpCreate is the creation of a fresh file (Open with create=true).
	OpCreate Op = iota
	// OpWrite is one Write call (the store writes one record per call).
	OpWrite
	// OpSync is one Sync call (fsync).
	OpSync
	// OpClose is one Close call.
	OpClose
)

func (o Op) String() string {
	switch o {
	case OpCreate:
		return "create"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpClose:
		return "close"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ErrCrashed is returned by every operation after a simulated power
// loss: the process-side handle is gone, only synced bytes survive on
// disk.
var ErrCrashed = errors.New("faultfs: crashed")

// ErrInjected is the default error of FailAt rules.
var ErrInjected = errors.New("faultfs: injected I/O error")

// rule is one scheduled fault: when the countdown for its op reaches
// zero, the operation fails with err (or triggers a crash).
type rule struct {
	op        Op
	countdown int // 1 = the next matching op
	err       error
	crash     bool
}

// FS manufactures fault-injected files over the real filesystem. All
// methods are safe for concurrent use; operation counters are global
// across the FS's files, matching how a store writes through exactly
// one active segment at a time.
type FS struct {
	mu          sync.Mutex
	files       []*File
	rules       []*rule
	crashed     bool
	partialTail bool
	latency     time.Duration
	ops         map[Op]int
}

// New returns a fault-free FS; schedule faults with FailAt / CrashAt.
func New() *FS {
	return &FS{ops: map[Op]int{}}
}

// SetLatency makes every subsequent operation sleep d first —
// slow-disk simulation for backpressure tests.
func (fs *FS) SetLatency(d time.Duration) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.latency = d
}

// PartialTailOnCrash makes a crash flush half of the unsynced bytes to
// disk before discarding the rest — the torn-tail signature recovery
// must truncate away.
func (fs *FS) PartialTailOnCrash(on bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.partialTail = on
}

// FailAt schedules the n-th future operation of kind op (1-based) to
// fail with err (ErrInjected when err is nil). The file is otherwise
// untouched — no bytes are lost — so it simulates a transient I/O
// error, not a crash.
func (fs *FS) FailAt(op Op, n int, err error) {
	if err == nil {
		err = ErrInjected
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.rules = append(fs.rules, &rule{op: op, countdown: n, err: err})
}

// CrashAt schedules a simulated power loss at the n-th future
// operation of kind op (1-based): that operation and every later one
// fail with ErrCrashed, and every byte written since each file's last
// Sync is discarded (or half-flushed, with PartialTailOnCrash).
func (fs *FS) CrashAt(op Op, n int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.rules = append(fs.rules, &rule{op: op, countdown: n, crash: true})
}

// Crash simulates a power loss now.
func (fs *FS) Crash() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.crashLocked(nil, nil)
}

// Crashed reports whether a crash (scheduled or manual) has fired.
func (fs *FS) Crashed() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.crashed
}

// Ops returns how many operations of kind op have been attempted
// (including failed ones) — the group-commit tests count fsyncs here.
func (fs *FS) Ops(op Op) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.ops[op]
}

// crashLocked discards unsynced bytes in every open file. When a write
// triggers the crash, trigger/pending name the file and the bytes of
// the in-flight write, so a partial tail can tear mid-record.
func (fs *FS) crashLocked(trigger *File, pending []byte) {
	if fs.crashed {
		return
	}
	fs.crashed = true
	for _, f := range fs.files {
		volatile := f.pending
		if f == trigger {
			volatile = append(append([]byte{}, volatile...), pending...)
		}
		if fs.partialTail && len(volatile) > 1 && f.f != nil {
			// Half the volatile bytes reached the platter: a torn tail.
			f.f.Write(volatile[:len(volatile)/2])
		}
		f.pending = nil
		if f.f != nil {
			f.f.Sync()
			f.f.Close()
			f.f = nil
		}
	}
}

// before accounts one operation and applies latency, scheduled faults
// and crash state, returning the error the operation must report.
// trigger/pending describe an in-flight write for torn-tail crashes.
func (fs *FS) before(op Op, trigger *File, pending []byte) error {
	fs.mu.Lock()
	if fs.latency > 0 {
		d := fs.latency
		fs.mu.Unlock()
		time.Sleep(d)
		fs.mu.Lock()
	}
	defer fs.mu.Unlock()
	if fs.crashed {
		return ErrCrashed
	}
	fs.ops[op]++
	for i, r := range fs.rules {
		if r.op != op {
			continue
		}
		r.countdown--
		if r.countdown > 0 {
			continue
		}
		fs.rules = append(fs.rules[:i], fs.rules[i+1:]...)
		if r.crash {
			fs.crashLocked(trigger, pending)
			return ErrCrashed
		}
		return r.err
	}
	return nil
}

// File is one fault-injected file. Writes land in a volatile buffer
// (the simulated page cache) and reach the real file only on Sync, so
// a crash loses exactly the unsynced suffix. File satisfies the
// store's SegmentFile interface.
type File struct {
	fs      *FS
	f       *os.File
	path    string
	pending []byte
	closed  bool
}

// Open opens path through the fault layer: create=true makes a fresh
// file (O_CREATE|O_EXCL), create=false reopens for appending — the two
// shapes the store's active-segment path uses.
func (fs *FS) Open(path string, create bool) (*File, error) {
	if create {
		if err := fs.before(OpCreate, nil, nil); err != nil {
			return nil, err
		}
	}
	flag := os.O_WRONLY | os.O_APPEND
	if create {
		flag = os.O_CREATE | os.O_EXCL | os.O_WRONLY
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	file := &File{fs: fs, f: f, path: path}
	fs.mu.Lock()
	fs.files = append(fs.files, file)
	fs.mu.Unlock()
	return file, nil
}

// Write buffers p in the volatile page cache; it reaches the disk on
// the next Sync. A crash triggered by this very write may leave a torn
// prefix of p on disk (PartialTailOnCrash).
func (f *File) Write(p []byte) (int, error) {
	if err := f.fs.before(OpWrite, f, p); err != nil {
		return 0, err
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, os.ErrClosed
	}
	f.pending = append(f.pending, p...)
	return len(p), nil
}

// Sync flushes the volatile buffer to the real file and fsyncs it —
// only now are the bytes crash-durable.
func (f *File) Sync() error {
	if err := f.fs.before(OpSync, nil, nil); err != nil {
		return err
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return os.ErrClosed
	}
	if len(f.pending) > 0 {
		if _, err := f.f.Write(f.pending); err != nil {
			return err
		}
		f.pending = nil
	}
	return f.f.Sync()
}

// Close closes the handle. Like a real close, it does NOT make
// unsynced bytes durable — but it flushes them to the page cache (the
// real file), since only a crash, not an orderly close, loses them.
func (f *File) Close() error {
	if err := f.fs.before(OpClose, nil, nil); err != nil {
		return err
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return os.ErrClosed
	}
	f.closed = true
	if len(f.pending) > 0 {
		f.f.Write(f.pending)
		f.pending = nil
	}
	return f.f.Close()
}

// Name returns the file's path.
func (f *File) Name() string { return f.path }

// ---------------------------------------------------------------------
// FlakyConn — scheduled session faults over a real net.Conn.

// FlakyConn wraps a net.Conn and fails on schedule: after a set number
// of Read or Write calls the connection reports the configured error
// and closes the underlying conn, simulating a session reset mid-feed.
// Use it on either side of a BGP session to drive reconnect logic.
type FlakyConn struct {
	net.Conn

	mu         sync.Mutex
	readsLeft  int // remaining Read calls before failure; <0 = unlimited
	writesLeft int // remaining Write calls before failure; <0 = unlimited
	err        error
}

// Flaky wraps conn with no faults scheduled.
func Flaky(conn net.Conn) *FlakyConn {
	return &FlakyConn{Conn: conn, readsLeft: -1, writesLeft: -1}
}

// FailReadsAfter makes the (n+1)-th Read call fail with err (and every
// later one); the underlying conn is closed at that point. err nil
// defaults to ErrInjected.
func (c *FlakyConn) FailReadsAfter(n int, err error) *FlakyConn {
	if err == nil {
		err = ErrInjected
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.readsLeft, c.err = n, err
	return c
}

// FailWritesAfter makes the (n+1)-th Write call fail with err (and
// every later one); the underlying conn is closed at that point.
func (c *FlakyConn) FailWritesAfter(n int, err error) *FlakyConn {
	if err == nil {
		err = ErrInjected
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writesLeft, c.err = n, err
	return c
}

// use consumes one operation from the given budget, returning the
// scheduled error once it is exhausted.
func (c *FlakyConn) use(budget *int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if *budget < 0 {
		return nil
	}
	if *budget == 0 {
		c.Conn.Close() // the session is gone, not just this call
		return c.err
	}
	*budget--
	return nil
}

func (c *FlakyConn) Read(p []byte) (int, error) {
	if err := c.use(&c.readsLeft); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c *FlakyConn) Write(p []byte) (int, error) {
	if err := c.use(&c.writesLeft); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}
