package main

import (
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a Linux CPU affinity mask.
type cpuSet [16]uint64

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() ([]int, error) {
	var set cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))); errno != 0 {
		return nil, errno
	}
	var cpus []int
	for i := 0; i < len(set)*64; i++ {
		if set[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// pinProcess restricts every thread of this process to cpus. Threads the
// runtime starts later inherit the mask from the thread that creates
// them. The root and the fleet are pinned to disjoint CPUs so that the
// scheduler never stacks them on one core for part of a run.
func pinProcess(cpus []int) error {
	var set cpuSet
	for _, c := range cpus {
		set[c/64] |= 1 << (c % 64)
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))); errno != 0 && errno != syscall.ESRCH {
			return errno
		}
	}
	return nil
}
