package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The node and the benchmark each get a CPU of their own when the host
// has two or more: the node's CPU time is then never the benchmark's, and
// run-to-run placement of their threads stops moving the numbers. With a
// single CPU both run unpinned.

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func getAffinity() (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, e
	}
	return m, nil
}

// setAffinity pins thread tid (0: the calling thread) to one CPU.
func setAffinity(tid, cpu int) error {
	var m cpuMask
	m[cpu/64] |= 1 << (cpu % 64)
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return e
	}
	return nil
}

// cpuPlan says where the benchmark and the node run; -1 means unpinned.
type cpuPlan struct {
	Bench int `json:"bench_cpu"`
	Node  int `json:"node_cpu"`
}

var plan = cpuPlan{Bench: -1, Node: -1}

// pinBenchmark pins every thread of this process to the first allowed CPU
// and reserves the second for the node. Threads the runtime starts later
// inherit the mask of the thread that starts them.
func pinBenchmark() error {
	m, err := getAffinity()
	if err != nil {
		return fmt.Errorf("sched_getaffinity: %w", err)
	}
	var cpus []int
	for i := 0; i < len(m)*64 && len(cpus) < 2; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	if len(cpus) < 2 {
		return nil
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
		if err := setAffinity(tid, cpus[0]); err != nil {
			return fmt.Errorf("sched_setaffinity: %w", err)
		}
	}
	// Two Ps on the one CPU: a goroutine asleep in a system call (the
	// pacer's nanosleep) then never holds the only P while the sink has
	// frames to read.
	runtime.GOMAXPROCS(2)
	plan = cpuPlan{Bench: cpus[0], Node: cpus[1]}
	return nil
}

// onNodeCPU runs start on a thread temporarily pinned to the node's CPU,
// so a process it forks inherits that CPU. The node's runtime sizes
// GOMAXPROCS from that mask, to 1: with -workers 0 the node is serial, and
// one P keeps its reader and writer goroutines from contending for the
// one CPU as two threads.
func onNodeCPU(start func() error) error {
	if plan.Node < 0 {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, plan.Node); err != nil {
		return fmt.Errorf("sched_setaffinity: %w", err)
	}
	defer setAffinity(0, plan.Bench)
	return start()
}
