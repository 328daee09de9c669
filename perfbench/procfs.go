package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// procSample is one reading of a process's counters from /proc.
type procSample struct {
	CPUNs     int64 // run time of all live threads, from /proc/<pid>/task/*/schedstat
	StatCPUNs int64 // utime+stime from /proc/<pid>/stat, in 10 ms ticks
	HWMKB     int64 // VmHWM: peak resident set
	VolCtxsw  int64 // voluntary context switches summed over threads
	WChar     int64 // bytes passed to write-family syscalls
	SyscW     int64 // write-family syscalls
}

// parseStatCPU returns utime+stime in nanoseconds from the contents of
// /proc/<pid>/stat. The command field may itself contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(data string) (int64, error) {
	i := strings.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command field")
	}
	f := strings.Fields(data[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after command", len(f))
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return (ut + st) * (1e9 / clockTicks), nil
}

// parseSchedstat returns a thread's run time in ns: the first field of
// /proc/<pid>/task/<tid>/schedstat. Unlike stat's tick counts it is exact
// to the nanosecond, which a phase of a few seconds needs.
func parseSchedstat(data string) (int64, error) {
	f := strings.Fields(data)
	if len(f) < 1 {
		return 0, fmt.Errorf("schedstat: empty")
	}
	return strconv.ParseInt(f[0], 10, 64)
}

// threadCPU returns the calling thread's run time in ns.
func threadCPU() int64 {
	data, err := os.ReadFile("/proc/thread-self/schedstat")
	if err != nil {
		return 0
	}
	ns, _ := parseSchedstat(string(data))
	return ns
}

// processCPU returns the run time of this process's live threads in ns.
func processCPU() int64 {
	s, _ := readProc(os.Getpid())
	return s.CPUNs
}

// parseKeyed reads "Key: value [unit]" lines (the layout of
// /proc/<pid>/status and /proc/<pid>/io) into a map of integers; lines
// whose value is not an integer are skipped.
func parseKeyed(data string) map[string]int64 {
	out := map[string]int64{}
	sc := bufio.NewScanner(strings.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			continue
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(k)] = n
	}
	return out
}

// readProc samples a live process. Context switches are summed over
// /proc/<pid>/task/*/status because the process-level status file
// reports only the main thread's.
func readProc(pid int) (procSample, error) {
	var s procSample
	dir := fmt.Sprintf("/proc/%d", pid)
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return s, err
	}
	if s.StatCPUNs, err = parseStatCPU(string(stat)); err != nil {
		return s, err
	}
	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return s, err
	}
	st := parseKeyed(string(status))
	s.HWMKB = st["VmHWM"]
	tasks, _ := filepath.Glob(dir + "/task/*")
	for _, t := range tasks {
		// A thread may exit between the glob and the reads; it is skipped.
		if data, err := os.ReadFile(t + "/status"); err == nil {
			s.VolCtxsw += parseKeyed(string(data))["voluntary_ctxt_switches"]
		}
		if data, err := os.ReadFile(t + "/schedstat"); err == nil {
			if ns, err := parseSchedstat(string(data)); err == nil {
				s.CPUNs += ns
			}
		}
	}
	io, err := os.ReadFile(dir + "/io")
	if err != nil {
		return s, err
	}
	iom := parseKeyed(string(io))
	s.WChar, s.SyscW = iom["wchar"], iom["syscw"]
	return s, nil
}
