package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// binaries are the commands the end-to-end workloads drive. They are
// the only surface those workloads touch: flags in, files and sockets
// out.
var binaries = []string{"bhreport", "bhgen", "bhdetect", "bhserve", "bhroute"}

// buildBinaries compiles the cmd/ programs from the checkout's source
// into buildDir/bin. The Go build cache lives under buildDir as well,
// so the second run in a checkout relinks nothing and the benchmark
// never writes outside the checkout.
func buildBinaries(ctx context.Context, root, buildDir string) (time.Duration, error) {
	binDir := filepath.Join(buildDir, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return 0, err
	}
	args := []string{"build", "-o", binDir + string(filepath.Separator)}
	for _, b := range binaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(),
		"GOCACHE="+filepath.Join(buildDir, "gocache"),
		"GOFLAGS=-mod=mod",
		"GOTOOLCHAIN=local",
	)
	start := time.Now()
	out, err := cmd.CombinedOutput()
	if err != nil {
		return 0, fmt.Errorf("go build ./cmd/...: %w\n%s", err, out)
	}
	return time.Since(start), nil
}
