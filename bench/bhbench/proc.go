package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procSet owns everything a run leaves outside its own memory: child
// processes and the run directory. cleanup is safe to call from the
// signal handler and from the normal exit path, in any order.
type procSet struct {
	mu       sync.Mutex
	children []*child
	runDir   string
}

// lockedBuffer collects a child's stderr while other goroutines poll
// it for the listen addresses the servers log.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// child is one spawned binary.
type child struct {
	name   string
	cmd    *exec.Cmd
	stderr *lockedBuffer
	exited chan struct{} // closed once Wait has returned
	err    error         // Wait's result, valid after exited
}

// command prepares (but does not start) a binary from the build
// directory. Children die with the benchmark even if it is killed
// outright (Pdeathsig), and see only flags: no inherited stdin.
func (ps *procSet) command(ctx context.Context, bin string, args ...string) *child {
	cmd := exec.CommandContext(ctx, bin, args...)
	c := &child{name: filepath.Base(bin), cmd: cmd, stderr: &lockedBuffer{}, exited: make(chan struct{})}
	cmd.Stderr = c.stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Env = append(os.Environ(), "TMPDIR="+ps.runDir)
	return c
}

// start launches a long-running child (a server) and tracks it.
func (ps *procSet) start(c *child) error {
	if err := c.cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", c.name, err)
	}
	ps.mu.Lock()
	ps.children = append(ps.children, c)
	ps.mu.Unlock()
	go func() {
		c.err = c.cmd.Wait()
		close(c.exited)
	}()
	return nil
}

// stop asks a server to shut down (SIGINT, as an operator would),
// escalates to SIGKILL after a grace period, and waits until it has
// ended. Its rusage is valid afterwards.
func (c *child) stop() {
	if c.cmd.Process == nil {
		return
	}
	select {
	case <-c.exited:
		return
	default:
	}
	_ = c.cmd.Process.Signal(os.Interrupt)
	select {
	case <-c.exited:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.exited
	}
}

// kill ends a child at once; used on the error and signal paths.
func (c *child) kill() {
	if c.cmd.Process == nil {
		return
	}
	_ = c.cmd.Process.Kill()
	<-c.exited
}

// usage is what the kernel accounted to an ended child.
type usage struct {
	cpu      time.Duration
	maxRSSMB float64
}

func (c *child) usage() usage {
	ps := c.cmd.ProcessState
	if ps == nil {
		return usage{}
	}
	u := usage{cpu: ps.UserTime() + ps.SystemTime()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		u.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return u
}

// cleanup kills every child still running and removes the run
// directory.
func (ps *procSet) cleanup() {
	ps.mu.Lock()
	children := ps.children
	ps.children = nil
	ps.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	if ps.runDir != "" {
		_ = os.RemoveAll(ps.runDir)
	}
}

// waitLog polls a child's stderr until re matches and returns the
// first submatch. A child that exits first fails at once with its
// stderr, not after the timeout.
func (c *child) waitLog(re *regexp.Regexp, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		if m := re.FindStringSubmatch(c.stderr.String()); m != nil {
			return m[1], nil
		}
		select {
		case <-c.exited:
			return "", fmt.Errorf("%s exited before logging %q: %v\n%s", c.name, re, c.err, c.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("%s did not log %q within %v\n%s", c.name, re, timeout, c.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// batchResult is one exec→exit of a batch binary.
type batchResult struct {
	stdout []byte
	stderr string
	wall   time.Duration
	usage  usage
}

// runToExit runs a batch binary exec→exit. A non-zero exit carries the
// captured stderr in the error.
func (ps *procSet) runToExit(ctx context.Context, bin string, args ...string) (*batchResult, error) {
	c := ps.command(ctx, bin, args...)
	var stdout bytes.Buffer
	c.cmd.Stdout = &stdout
	start := time.Now()
	err := c.cmd.Run()
	wall := time.Since(start)
	close(c.exited)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w\n%s", c.name, strings.Join(args, " "), err, c.stderr.String())
	}
	return &batchResult{stdout: stdout.Bytes(), stderr: c.stderr.String(), wall: wall, usage: c.usage()}, nil
}

// clockTick is the kernel's USER_HZ; Linux fixes it at 100 on every
// architecture Go supports.
const clockTick = 100

// procCPU reads a live process's utime+stime from /proc/PID/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(data))
}

// parseProcStatCPU extracts fields 14 and 15 (utime, stime). The comm
// field may contain spaces and parentheses, so fields are counted
// from the last ')'.
func parseProcStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	fields := strings.Fields(stat[i+1:])
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("non-numeric cpu fields in /proc stat line")
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}
