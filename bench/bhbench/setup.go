package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// setupReps is how many times a workload's set-up runs. setup_s is
// their median, so one slow start does not read as a regression; all
// but the last are torn down straight away.
const setupReps = 3

// repeatSetup runs setup setupReps times (once in a traced run, which
// does not report setup_s), each in a fresh directory, and returns the
// median wall time in seconds, as measured. The last set-up is left
// standing for the timed phase; its teardown is the caller's to run.
//
// The caller reports it at reference speed by the timed phase's median
// reading, not by readings of its own: a reading taken as a set-up
// ends shares the CPU with servers that are still starting, and read
// anything from 94 to 248 µs beside set-ups that all took 1.1–1.5 s.
func (e *env) repeatSetup(ctx context.Context, name string, setup func(ctx context.Context, dir string) (teardown func(), err error)) (float64, func(), error) {
	reps := setupReps
	if e.trace {
		reps = 1
	}
	var walls []float64
	for i := 0; ; i++ {
		dir, err := e.tempDir(name)
		if err != nil {
			return 0, nil, err
		}
		start := time.Now()
		teardown, err := setup(ctx, dir)
		if err != nil {
			return 0, nil, fmt.Errorf("set-up: %w", err)
		}
		walls = append(walls, time.Since(start).Seconds())
		if i == reps-1 {
			return median(walls), teardown, nil
		}
		teardown()
		if err := os.RemoveAll(dir); err != nil {
			return 0, nil, err
		}
	}
}

// goldenUpdate makes checkGolden rewrite the recorded digests instead
// of comparing against them (-update-golden).
var goldenUpdate bool

const goldenSeed = 42

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// checkGolden compares output bytes with the digest recorded for the
// default fixture seed. Other worlds have no golden: their oracle is
// that runs repeat byte for byte.
func (e *env) checkGolden(out *outcome, name string, data []byte) {
	if e.fixture != goldenSeed {
		return
	}
	path := filepath.Join(e.root, "bench", "golden", fmt.Sprintf("%s.seed%d.sha256", name, goldenSeed))
	got := sha256Hex(data)
	if goldenUpdate {
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			out.problemf("write golden %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		out.problemf("golden %s: %v", name, err)
		return
	}
	if strings.TrimSpace(string(want)) != got {
		out.problemf("%s output sha256 %s does not match golden %s", name, got, strings.TrimSpace(string(want)))
	}
}
