package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// hostRecord describes the machine a result was measured on, with short
// probes of the two host behaviours the workloads are most exposed to:
// fsync rate on the data directory's filesystem and timer overshoot.
type hostRecord struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Kernel     string  `json:"kernel"`
	DataFS     string  `json:"data_fs"`
	FsyncPerS  float64 `json:"fsync_per_s"`
	TimerP50Us float64 `json:"timer_overshoot_p50_us"`
	TimerP99Us float64 `json:"timer_overshoot_p99_us"`
	CPUs       cpuPlan `json:"cpus"`
}

// fsTypes names the statfs magic numbers a data directory is likely on.
var fsTypes = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
}

func probeHost(root, dir string) hostRecord {
	h := hostRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitOf(root),
		DataFS:     "unknown",
		CPUs:       plan,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err == nil {
		if name, ok := fsTypes[int64(st.Type)]; ok {
			h.DataFS = name
		} else {
			h.DataFS = fmt.Sprintf("0x%x", st.Type)
		}
	}
	h.FsyncPerS = probeFsync(dir, 200*time.Millisecond)
	h.TimerP50Us, h.TimerP99Us = probeTimer(200, 200*time.Microsecond)
	return h
}

// commitOf names the commit being measured: BENCH_COMMIT when set (a
// checkout without .git has no other way to know), else git's HEAD.
func commitOf(root string) string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// probeFsync appends 4 KiB blocks to a scratch file with an fsync after
// each for d and returns fsyncs per second.
func probeFsync(dir string, d time.Duration) float64 {
	path := filepath.Join(dir, "fsync-probe")
	f, err := os.Create(path)
	if err != nil {
		return 0
	}
	defer os.Remove(path)
	defer f.Close()
	buf := make([]byte, 4096)
	start := time.Now()
	n := 0
	for time.Since(start) < d {
		if _, err := f.Write(buf); err != nil {
			return 0
		}
		if err := f.Sync(); err != nil {
			return 0
		}
		n++
	}
	return float64(n) / time.Since(start).Seconds()
}

// probeTimer sleeps n times for d and returns the median and p99 of how
// far each sleep overshot, in µs.
func probeTimer(n int, d time.Duration) (p50, p99 float64) {
	over := make([]float64, n)
	for i := range over {
		t := time.Now()
		time.Sleep(d)
		over[i] = float64(time.Since(t)-d) / 1e3
	}
	sort.Float64s(over)
	return percentile(over, 50), percentile(over, 99)
}
