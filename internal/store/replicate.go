package store

// Replica shipping. A store directory is a set of immutable-once-
// sealed, CRC-framed segment files plus advisory sidecars, which makes
// replication plain file synchronization: copy what the source has,
// delete what it no longer has, skip what already matches. A replica
// directory is opened read-only (OpenReadOnly / the root facade's
// OpenStoreReadOnly) and serves the full query surface — the shape the
// federated router fans out to when shards carry read replicas.
//
// Safety argument, piece by piece:
//
//   - Sealed segments never change, so name+size equality means byte
//     equality and the copy can be skipped.
//   - The active (highest-seq) segment may be mid-append on a live
//     source. Every record is length+CRC framed, so any prefix of the
//     file is a valid segment to a read-only open — scanSegment stops
//     at the first torn record exactly as crash recovery does. A
//     half-shipped tail costs the replica the newest few events until
//     the next pass, never correctness.
//   - Sidecars are advisory and self-invalidating (they record the
//     segment size they summarize). Shipping a stale one just demotes
//     that segment to a full decode on the replica.
//   - Copies go through CommitFile, so a replica opening mid-ship sees
//     either the old file or the new one; an in-flight copy a crashed
//     pass left behind is invisible to open and retired by the next
//     pass.
//   - The shard identity file (SHARD) is written once and never
//     changes, so it ships like a sealed segment.
//   - Compaction replaces segments; deleting destination files whose
//     seq vanished from the source keeps the replica from double
//     counting events that a rewrite moved into a new segment.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// ReplicaReport says what one Replicate pass did.
type ReplicaReport struct {
	// Copied lists the file names shipped this pass (segments and
	// sidecars), in ship order.
	Copied []string
	// Skipped counts source files left alone because the destination
	// already had them at the same size.
	Skipped int
	// Deleted lists destination names removed: segments and sidecars
	// whose seq the source no longer has (compaction superseded them),
	// and in-flight files a crashed pass left behind.
	Deleted []string
	// Bytes is the total payload shipped.
	Bytes int64
}

// Replicate one-shot syncs the store directory srcDir into dstDir.
// It is safe to run against a live source store (see the package
// comment above) and safe to re-run: unchanged files are skipped, so
// steady-state passes ship only the active segment's growth. The
// destination must not be an open read-write store — it is meant to be
// served by read-only opens.
func Replicate(srcDir, dstDir string) (*ReplicaReport, error) {
	sa, err1 := filepath.Abs(srcDir)
	da, err2 := filepath.Abs(dstDir)
	if err1 == nil && err2 == nil && sa == da {
		return nil, fmt.Errorf("replicate: source and destination are the same directory %s", sa)
	}
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		return nil, err
	}
	segs, sums, err := listDir(srcDir, true)
	if err != nil {
		return nil, err
	}

	rep := &ReplicaReport{}
	want := map[string]bool{} // dst basenames that should exist after this pass
	ship := func(srcPath, name string) error {
		want[name] = true
		si, err := os.Stat(srcPath)
		if err != nil {
			return err
		}
		if di, err := os.Stat(filepath.Join(dstDir, name)); err == nil && di.Size() == si.Size() {
			rep.Skipped++
			return nil
		}
		in, err := os.Open(srcPath)
		if err != nil {
			return err
		}
		defer in.Close()
		// Durable, sidecars included: a crash can't leave a
		// renamed-but-hollow file, nor lose a finished copy.
		var n int64
		err = CommitFile(dstDir, name, true, func(w *bufio.Writer) (err error) {
			n, err = io.Copy(w, in)
			return err
		})
		if err != nil {
			return err
		}
		rep.Copied = append(rep.Copied, name)
		rep.Bytes += n
		return nil
	}
	// The shard identity first: a replica that serves any of the source's
	// events advertises whose they are.
	if _, err := os.Stat(filepath.Join(srcDir, identityName)); err == nil {
		if err := ship(filepath.Join(srcDir, identityName), identityName); err != nil {
			return rep, err
		}
	}
	for _, sf := range segs {
		// Segment before sidecar: a sidecar without its segment is an
		// orphan, a segment without its sidecar just open-decodes.
		if err := ship(sf.path, segName(sf.seq)); err != nil {
			return rep, err
		}
		if sp, ok := sums[sf.seq]; ok {
			if err := ship(sp, sumName(sf.seq)); err != nil {
				return rep, err
			}
		}
	}

	// Retire destination files the source no longer has, and whatever a
	// crashed pass left in flight.
	entries, err := os.ReadDir(dstDir)
	if err != nil {
		return rep, err
	}
	for _, e := range entries {
		name := e.Name()
		_, isSeg := parseSegName(name)
		_, isSum := parseSumName(name)
		retired := (isSeg || isSum || name == identityName) && !want[name]
		if !retired && !inFlight(name) {
			continue
		}
		if err := os.Remove(filepath.Join(dstDir, name)); err != nil {
			return rep, err
		}
		rep.Deleted = append(rep.Deleted, name)
	}
	if err := syncDir(dstDir); err != nil {
		return rep, err
	}
	return rep, nil
}
