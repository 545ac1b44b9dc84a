package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestIdentityFile: the shard identity is one line in one file, written
// once, read by every open, and never guessed at.
func TestIdentityFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Identity() != "" || s.Stats().Identity != "" {
		t.Fatalf("a new store has identity %q", s.Identity())
	}
	for _, bad := range []string{"", "two\nlines", "tab\there", "café", strings.Repeat("x", maxIdentityBytes+1)} {
		if err := s.SetIdentity(bad); err == nil {
			t.Errorf("SetIdentity(%q) succeeded", bad)
		}
	}
	const id = "prefix:8:3 1"
	if err := s.SetIdentity(id); err != nil {
		t.Fatal(err)
	}
	if err := s.SetIdentity(id); err != nil {
		t.Errorf("stamping the same identity again: %v", err)
	}
	if err := s.SetIdentity("prefix:8:3 2"); !errors.Is(err, ErrIdentity) {
		t.Errorf("stamping another identity: %v, want ErrIdentity", err)
	}
	if data, err := os.ReadFile(filepath.Join(dir, identityName)); err != nil || string(data) != id+"\n" {
		t.Fatalf("%s holds %q, %v; want the identity and a newline", identityName, data, err)
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(tmp) != 0 {
		t.Errorf("stamping left %v behind", tmp)
	}
	if err := s.Append(makeEvent(1), makeEvent(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.SetIdentity(id); !errors.Is(err, ErrClosed) {
		t.Errorf("SetIdentity on a closed store: %v, want ErrClosed", err)
	}

	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if ro.Identity() != id || ro.Stats().Identity != id {
		t.Errorf("read-only reopen: identity %q, want %q", ro.Identity(), id)
	}
	if err := ro.SetIdentity("prefix:8:3 2"); !errors.Is(err, ErrReadOnly) {
		t.Errorf("SetIdentity on a read-only store: %v, want ErrReadOnly", err)
	}
	ro.Close()

	// A replica carries the identity, and loses it with its source.
	replica := filepath.Join(t.TempDir(), "replica")
	rep, err := Replicate(dir, replica)
	if err != nil || len(rep.Copied) == 0 || rep.Copied[0] != identityName {
		t.Fatalf("Replicate: %+v, %v; want %s shipped first", rep, err, identityName)
	}
	if got, err := readIdentity(replica); got != id || err != nil {
		t.Errorf("replica identity %q, %v", got, err)
	}
	if rep, err = Replicate(dir, replica); err != nil || len(rep.Copied) != 0 {
		t.Errorf("second pass: %+v, %v; want nothing shipped", rep, err)
	}

	// Anything in the file that is not one identity line fails the open,
	// read-only or not: an unreadable stamp is not "no stamp".
	for _, content := range []string{"", id, id + "\n\n", "\n", "bad\x00byte\n", strings.Repeat("x", maxIdentityBytes+1) + "\n"} {
		if err := os.WriteFile(filepath.Join(dir, identityName), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{{}, {ReadOnly: true}, {ReadOnly: true, Mmap: true}} {
			if s, err := Open(dir, opts); err == nil {
				s.Close()
				t.Errorf("identity file %q: open %+v succeeded", content, opts)
			}
		}
	}
	if err := os.Remove(filepath.Join(dir, identityName)); err != nil {
		t.Fatal(err)
	}
	if rep, err = Replicate(dir, replica); err != nil || len(rep.Deleted) != 1 || rep.Deleted[0] != identityName {
		t.Errorf("pass over an unstamped source: %+v, %v; want the replica's %s retired", rep, err, identityName)
	}
}
