package store

import (
	"bufio"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// The commit protocol: how every file this system publishes under a
// final name — merged segments, sidecars, the shard identity, replica
// copies, MRT archives — gets there. A reader sees the old file or the
// complete new one, never a torn one; a crash leaves at most one
// in-flight file, under a name every reader ignores and every writer's
// next pass removes (a read-write open, Replicate's retire pass).

// CommitHook, when set (tests only), runs after the in-flight file is
// complete — written, flushed, fsynced if durable, closed — and before
// the rename commits it: the crash tests snapshot the directory
// here to simulate a crash at the pre-commit point of any publisher.
var CommitHook func()

// CommitFile publishes dir/name: write fills an in-flight file in the
// same directory, which is then flushed and renamed into place. A
// durable commit fsyncs the file before the rename and the directory
// after it; one that is not fsyncs nothing, which suits only a file
// that is self-checked and rebuilt when missing or wrong (sidecars). On
// any error the in-flight file is removed and dir/name is what it was.
func CommitFile(dir, name string, durable bool, write func(*bufio.Writer) error) (err error) {
	tmp, err := os.CreateTemp(dir, inFlightPattern(name))
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriterSize(tmp, 64<<10)
	if err = write(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	if durable {
		if err = tmp.Sync(); err != nil {
			return err
		}
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if CommitHook != nil {
		CommitHook()
	}
	if err = os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return err
	}
	if durable {
		return syncDir(dir)
	}
	return nil
}

// inFlightPattern is the os.CreateTemp pattern of name's in-flight
// file. Whatever name is, the result matches FORMAT.md's "seg-*.tmp-*".
func inFlightPattern(name string) string {
	return "seg-" + strings.TrimPrefix(name, "seg-") + ".tmp-*"
}

// inFlight reports whether name is an in-flight file: anything
// inFlightPattern yields, and the "SHARD.tmp-*" that replicas shipped
// before there was one pattern may still hold.
func inFlight(name string) bool {
	final, _, ok := strings.Cut(name, ".tmp-")
	return ok && (strings.HasPrefix(final, "seg-") || final == identityName)
}

// syncDir fsyncs a directory so renames and removals are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	// Some filesystems refuse fsync on directories; renames there are
	// as durable as they get.
	if errors.Is(err, io.EOF) || errors.Is(err, os.ErrInvalid) {
		return nil
	}
	return err
}
