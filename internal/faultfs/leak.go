package faultfs

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Goroutines is a snapshot of the live goroutines: their stack dumps,
// keyed by the function whose go statement started them. Goroutines the
// runtime, the testing package and net/http's idle keep-alive
// connections own are left out: they outlive any one test by design.
type Goroutines map[string][]string

// SnapshotGoroutines records the goroutines alive now. Take it before
// the code under test starts any.
func SnapshotGoroutines() Goroutines {
	g := Goroutines{}
	for _, s := range goroutineStacks() {
		if c := creator(s); c != "" {
			g[c] = append(g[c], s)
		}
	}
	return g
}

// leakPatience is how long a leak check waits for goroutines to wind
// down: they exit asynchronously after the call that stops them returns.
const leakPatience = 5 * time.Second

// leaked waits up to patience for every goroutine started since the
// snapshot to exit, and returns the stacks of those that did not (empty
// when none leaked).
func (before Goroutines) leaked(patience time.Duration) string {
	deadline := time.Now().Add(patience)
	for wait := time.Millisecond; ; wait *= 2 {
		var leaked []string
		for c, now := range SnapshotGoroutines() {
			if extra := len(now) - len(before[c]); extra > 0 {
				leaked = append(leaked, now[len(now)-extra:]...)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return strings.Join(leaked, "\n\n")
		}
		time.Sleep(wait)
	}
}

// CheckGoroutines fails t, printing the leaked stacks, when goroutines
// started since the snapshot are still running.
func CheckGoroutines(t testing.TB, before Goroutines) {
	t.Helper()
	if s := before.leaked(leakPatience); s != "" {
		t.Errorf("goroutines leaked:\n%s", s)
	}
}

// LeakCheckMain is a TestMain body: it runs the package's tests and
// then fails the run if any of them left a goroutine behind.
func LeakCheckMain(m *testing.M) {
	before := SnapshotGoroutines()
	code := m.Run()
	if code == 0 {
		if s := before.leaked(leakPatience); s != "" {
			fmt.Fprintf(os.Stderr, "goroutines leaked by this package's tests:\n%s\n", s)
			code = 1
		}
	}
	os.Exit(code)
}

// goroutineStacks returns one stack dump per live goroutine.
func goroutineStacks() []string {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Split(strings.TrimSpace(string(buf[:n])), "\n\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// creator names the function that started the goroutine whose stack
// dump is s, or "" for one the leak check ignores.
func creator(s string) string {
	_, c, ok := strings.Cut(s, "\ncreated by ")
	if !ok {
		return "" // the main goroutine
	}
	c, _, _ = strings.Cut(c, "\n")
	c, _, _ = strings.Cut(c, " in goroutine ")
	for _, own := range []string{"runtime.", "testing.", "os/signal.", "net/http.(*Transport)."} {
		if strings.HasPrefix(c, own) {
			return ""
		}
	}
	return c
}
