package main

import (
	"fmt"
	"math/bits"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// Pinning. A closed loop with one client never has two things to run
// at once: the client waits while the server works and the reverse.
// Left to the kernel, the two are spread over the box's CPUs and every
// request pays for waking an idle CPU, at a price that moves with the
// host (sized on query-shard: client on one CPU and server on the
// other read 0.136 ms in two runs and 0.186 ms in the next four).
// Confined to one CPU, a hand-off is a context switch and nothing
// else, and whatever else runs on the box has the other CPUs to go to.

// cpuSet is an affinity mask for up to 1024 CPUs.
type cpuSet [16]uint64

func getAffinity() (cpuSet, error) {
	var set cpuSet
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
	if errno != 0 {
		return set, errno
	}
	return set, nil
}

func setAffinity(tid int, set *cpuSet) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*set), uintptr(unsafe.Pointer(set)))
	if errno != 0 {
		return errno
	}
	return nil
}

// lastCPU returns the set holding only the highest CPU of set (the
// first one is where the kernel tends to put its own work).
func (set cpuSet) lastCPU() (cpuSet, int) {
	var one cpuSet
	for w := len(set) - 1; w >= 0; w-- {
		if set[w] != 0 {
			bit := bits.Len64(set[w]) - 1
			one[w] = 1 << bit
			return one, w*64 + bit
		}
	}
	return one, -1
}

// confine applies set to every thread of this process. Threads and
// children started afterwards inherit it. Two passes, so that a
// thread the runtime started during the first is caught by the second.
func confine(set *cpuSet) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// A thread that ended since the listing is not an error.
			if err := setAffinity(tid, set); err != nil && err != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity: %w", err)
			}
		}
	}
	return nil
}
