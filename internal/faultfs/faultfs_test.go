package faultfs

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestGoroutineLeakCheck proves the leak helper both ways: a goroutine
// started after the snapshot and still parked is reported with its
// stack, and once it has exited the same snapshot is clean.
func TestGoroutineLeakCheck(t *testing.T) {
	before := SnapshotGoroutines()
	release := make(chan struct{})
	go func() { <-release }()
	got := before.leaked(20 * time.Millisecond)
	if !strings.Contains(got, "TestGoroutineLeakCheck") {
		t.Fatalf("parked goroutine not reported; leaked = %q", got)
	}
	close(release)
	CheckGoroutines(t, before)
}

// TestVolatileWrites proves the page-cache model: bytes written but not
// synced vanish at a crash; synced bytes survive.
func TestVolatileWrites(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg")
	fs := New()
	f, err := fs.Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("volatile")); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash: got %v, want ErrCrashed", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "durable" {
		t.Fatalf("on-disk after crash: %q, want only the synced bytes", data)
	}
}

// TestPartialTail proves the torn-tail mode flushes a strict prefix of
// the volatile bytes.
func TestPartialTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg")
	fs := New()
	fs.PartialTailOnCrash(true)
	f, err := fs.Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("0123456789"))
	fs.Crash()
	data, _ := os.ReadFile(path)
	if len(data) == 0 || len(data) >= 10 {
		t.Fatalf("torn tail holds %d bytes, want a strict non-empty prefix of 10", len(data))
	}
	if string(data) != "0123456789"[:len(data)] {
		t.Fatalf("torn tail %q is not a prefix of the written bytes", data)
	}
}

// TestFailAtSchedule proves the countdown targets exactly the n-th
// operation of the chosen kind and fires once.
func TestFailAtSchedule(t *testing.T) {
	fs := New()
	f, err := fs.Open(filepath.Join(t.TempDir(), "seg"), true)
	if err != nil {
		t.Fatal(err)
	}
	fs.FailAt(OpWrite, 2, nil)
	if _, err := f.Write([]byte("a")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if _, err := f.Write([]byte("b")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write 2: got %v, want ErrInjected", err)
	}
	if _, err := f.Write([]byte("c")); err != nil {
		t.Fatalf("write 3 (rule consumed): %v", err)
	}
	if got := fs.Ops(OpWrite); got != 3 {
		t.Fatalf("Ops(OpWrite) = %d, want 3", got)
	}
}

// TestFlakyConn proves the read budget trips the scheduled error and
// closes the underlying conn.
func TestFlakyConn(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	fc := Flaky(client).FailReadsAfter(1, nil)
	go server.Write([]byte{1})
	buf := make([]byte, 1)
	if _, err := fc.Read(buf); err != nil {
		t.Fatalf("read 1 within budget: %v", err)
	}
	if _, err := fc.Read(buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("read 2: got %v, want ErrInjected", err)
	}
	// The underlying conn is closed once the budget trips: the peer's
	// next write fails.
	if _, err := server.Write([]byte{2}); err == nil {
		t.Fatal("underlying conn still open after budget tripped")
	}
}
