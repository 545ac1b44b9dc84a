package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// cpuMeter reads the CPU clocks of running servers from /proc, without
// touching the servers.
type cpuMeter struct {
	servers []*server
}

func newCPUMeter(servers ...*server) *cpuMeter { return &cpuMeter{servers: servers} }

// each returns every server's CPU time so far.
func (m *cpuMeter) each() []time.Duration {
	out := make([]time.Duration, len(m.servers))
	for i, s := range m.servers {
		out[i] = procCPUFine(s.cmd.Process.Pid)
	}
	return out
}

// total is the servers' CPU time so far, summed.
func (m *cpuMeter) total() time.Duration {
	return sumDurations(m.each())
}

func sumDurations(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// procCPUFine reads a live process's CPU time to the nanosecond: the
// run time of each of its threads from /proc/PID/task/TID/schedstat.
// /proc/PID/stat counts in 10 ms ticks, coarser than a slice of a few
// hundred requests is long. Where the kernel keeps no schedstat, the
// ticks are what there is.
func procCPUFine(pid int) time.Duration {
	dir := "/proc/" + strconv.Itoa(pid) + "/task"
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread ended since the listing
		}
		ns, ok := parseSchedstat(string(data))
		if !ok {
			coarse, _ := procCPU(pid)
			return coarse
		}
		total += ns
	}
	return total
}

// parseSchedstat extracts the first field, the time spent on a CPU in
// nanoseconds.
func parseSchedstat(line string) (time.Duration, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return 0, false
	}
	ns, err := strconv.ParseInt(fields[0], 10, 64)
	return time.Duration(ns), err == nil
}
