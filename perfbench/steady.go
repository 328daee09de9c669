package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness check reads.
type benchSpec struct {
	Seconds   int `json:"run_seconds"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs each workload n times with seeds 1..n, as separate
// processes exactly like the timed runs, and prints for every end-to-end
// metric the median, the quartiles and the interquartile spread as a share
// of the median next to the metric's bound. A spread above a third of the
// bound is flagged: two sets of runs could then disagree by more than the
// bound on noise alone.
func runSteady(o options, n int) error {
	data, err := os.ReadFile(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	seconds := spec.Seconds
	if o.seconds > 0 {
		seconds = o.seconds
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, wl := range spec.Workloads {
		name := wl.Name
		vals := map[string][]float64{}
		failed, attempted := 0, 0
		for seed := 1; seed <= n; seed++ {
			cmd := exec.Command(self, "-node", o.nodeBin, "-work", o.work, "-root", o.root,
				"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %v\n%s", name, seed, err, stderr.String())
			}
			var r result
			if err := json.Unmarshal(lastLine(out), &r); err != nil {
				return fmt.Errorf("%s seed %d: result: %w", name, seed, err)
			}
			var rec struct {
				Unbounded map[string]metricOut `json:"unbounded"`
			}
			for _, l := range bytes.Split(out, []byte("\n")) {
				if bytes.Contains(l, []byte(`"unbounded"`)) {
					_ = json.Unmarshal(l, &rec) // informational only
				}
			}
			for _, k := range unboundedNames {
				vals[k] = append(vals[k], rec.Unbounded[k].Value)
			}
			if !r.Correct || r.Failed != 0 {
				return fmt.Errorf("%s seed %d: incorrect result, %d of %d ops failed\n%s", name, seed, r.Failed, r.Attempted, stderr.String())
			}
			failed += r.Failed
			attempted += r.Attempted
			var line []string
			for _, m := range spec.EndToEnd {
				v := r.Metrics[m.Name].Value
				vals[m.Name] = append(vals[m.Name], v)
				line = append(line, fmt.Sprintf("%s=%.4g", m.Name, v))
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", name, seed, strings.Join(line, " "))
		}
		fmt.Printf("%s: %d runs of %d s, %d of %d ops failed\n", name, n, seconds, failed, attempted)
		fmt.Printf("  %-18s %12s %12s %12s %8s %8s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, m := range spec.EndToEnd {
			q1, q2, q3 := quartiles(vals[m.Name])
			spread := (q3 - q1) / q2
			flag := ""
			if spread > m.Bound/3 {
				flag = "  above bound/3"
			}
			fmt.Printf("  %-18s %12.4g %12.4g %12.4g %7.1f%% %7.0f%%%s\n",
				m.Name+" ("+m.Unit+")", q1, q2, q3, 100*spread, 100*m.Bound, flag)
		}
		for _, k := range unboundedNames {
			q1, q2, q3 := quartiles(vals[k])
			fmt.Printf("  %-18s %12.4g %12.4g %12.4g %7.1f%% %8s\n", k, q1, q2, q3, 100*(q3-q1)/q2, "none")
		}
	}
	return nil
}

// unboundedNames are the measured figures a run prints without a bound.
var unboundedNames = []string{"tput_tps", "tput_per_cpu_tps", "p50_ms"}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
