package store

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// identityName is the shard-identity file: one line naming the slice of
// a sharded fleet's events this directory holds (the root package's
// "<plan spec> <index>", e.g. "prefix:8:3 1"; opaque here). It sits
// beside LOCK, is written once, and is read by every open mode. No
// segment refers to it, so compaction never touches it; Replicate ships
// it, so a replica advertises what its source does.
const identityName = "SHARD"

// maxIdentityBytes bounds the identity line, newline excluded.
const maxIdentityBytes = 256

// ErrIdentity is returned by SetIdentity on a store already stamped
// with a different identity.
var ErrIdentity = errors.New("store: stamped with another shard identity")

// checkIdentity reports whether id can be an identity line.
func checkIdentity(id string) error {
	if id == "" || len(id) > maxIdentityBytes {
		return fmt.Errorf("store: shard identity of %d bytes (want 1..%d)", len(id), maxIdentityBytes)
	}
	for i := 0; i < len(id); i++ {
		if id[i] < ' ' || id[i] > '~' {
			return fmt.Errorf("store: shard identity %q: byte %d is not printable ASCII", id, i)
		}
	}
	return nil
}

// readIdentity returns dir's identity, "" when it has none. A file that
// is no identity line fails the open rather than reading as unstamped:
// the stamp is what keeps foreign events out.
func readIdentity(dir string) (string, error) {
	path := filepath.Join(dir, identityName)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	id, ok := strings.CutSuffix(string(data), "\n")
	if !ok {
		return "", fmt.Errorf("store: %s: no newline-terminated identity line", path)
	}
	if err := checkIdentity(id); err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	return id, nil
}

// Identity returns the store's shard identity, "" when unstamped.
func (s *Store) Identity() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.identity
}

// SetIdentity stamps the store with its shard identity, durably
// (CommitFile). Stamping again with the same identity is a no-op; a
// different one fails with ErrIdentity — a directory's slice of the
// event space does not change under the events it already holds.
func (s *Store) SetIdentity(id string) error {
	if err := checkIdentity(id); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return ErrClosed
	case s.opts.ReadOnly:
		return ErrReadOnly
	case s.identity == id:
		return nil
	case s.identity != "":
		return fmt.Errorf("%w: have %q, asked for %q", ErrIdentity, s.identity, id)
	}
	err := CommitFile(s.dir, identityName, true, func(w *bufio.Writer) error {
		_, err := w.WriteString(id + "\n")
		return err
	})
	if err != nil {
		return err
	}
	s.identity = id
	return nil
}
