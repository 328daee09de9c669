package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// pprofTraces runs `go tool pprof -traces` on a profile file.
func pprofTraces(profile string) (string, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return string(out), nil
}

// profStack is one stack of a -traces listing: its sample time and its
// frames, innermost first.
type profStack struct {
	seconds float64
	frames  []string
}

// parseTraces parses `go tool pprof -traces` output: stacks separated by
// dashed lines, each opening with "<value> <innermost function>" and
// continuing one caller per line.
func parseTraces(out string) []profStack {
	var stacks []profStack
	var cur *profStack
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "-----------+") {
			cur = nil
			continue
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if cur == nil {
			if len(f) < 2 {
				continue
			}
			d, err := time.ParseDuration(f[0])
			if err != nil {
				continue // header lines: File:, Type:, Duration: ...
			}
			stacks = append(stacks, profStack{seconds: d.Seconds(), frames: []string{f[1]}})
			cur = &stacks[len(stacks)-1]
			continue
		}
		if len(f) == 1 && !strings.HasPrefix(f[0], "bytes:") {
			cur.frames = append(cur.frames, f[0])
		}
	}
	return stacks
}
