// Command perfbench is the cross-node benchmark of cmd/auroranode. It
// runs the node as a separate process and is both of its peers over one
// loopback TCP connection: upstream, it sends HA-framed batches into
// input "in"; downstream, it receives the node's routed output "sink"
// through an ha.LinkReceiver and acknowledges it. Every tuple therefore
// crosses the node's decode, dedup, ack, engine, HA output log, encode
// and wire paths, and every result is checked against the benchmark's
// own model of the query.
//
// Run it through run.sh, which builds the node and the benchmark first:
//
//	bash perfbench/run.sh --workload relay --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --steady 10
//
// The last line of standard output is the result as JSON. With --trace 0
// it carries the end-to-end metrics; with --trace 1 a separate traced
// run prints the per-layer ledger instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setupRuns is how many times each run spawns the node to measure set-up;
// the lower quartile is reported and the last spawn carries on into the
// measurement. A spawn's time is its own cost plus whatever the host's
// other load adds to it; the lower quartile keeps the first and sheds most
// of the second.
const setupRuns = 61

// drainTimeout bounds how long a run waits for the results of its last
// inputs.
const drainTimeout = 15 * time.Second

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	nodeBin  string
	work     string
	root     string
}

func main() {
	var o options
	var steady int
	flag.StringVar(&o.workload, "workload", "", "workload: relay, relay-durable or agg")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 0, "measured seconds per run (-steady defaults to BENCHMARK.json run_seconds)")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced per-layer run instead of the timed run")
	flag.StringVar(&o.nodeBin, "node", "", "auroranode binary (run.sh sets it)")
	flag.StringVar(&o.work, "work", "", "scratch directory for node state and artifacts (run.sh sets it)")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.IntVar(&steady, "steady", 0, "run every workload this many times with seeds 1..N and print the spread of each end-to-end metric")
	flag.Parse()
	// The benchmark's heap is mostly expected results awaiting their
	// arrival; collecting less often keeps its CPU off the node's.
	debug.SetGCPercent(400)
	if o.nodeBin == "" || o.work == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -node and -work are required; run it through perfbench/run.sh")
		os.Exit(2)
	}
	if steady > 0 {
		if err := runSteady(o, steady); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w := findWorkload(o.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		os.Exit(2)
	}
	dir := filepath.Join(o.work, fmt.Sprintf("%s-seed%d-trace%d", w.name, o.seed, o.trace))
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := pinBenchmark(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: pinning:", err)
		os.Exit(1)
	}
	host := probeHost(o.root, dir)
	var res result
	var info map[string]metricOut
	var err error
	if o.trace == 1 {
		res, err = runTraced(w, o, dir)
	} else {
		res, info, err = runTimed(w, o, dir)
	}
	rec, _ := json.Marshal(map[string]any{"host": host, "workload": w.name, "seed": o.seed, "trace": o.trace, "unbounded": info})
	fmt.Println(string(rec))
	_ = os.WriteFile(filepath.Join(dir, "host.json"), rec, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run failed:", err)
		res.Correct = false
	}
	if res.Metrics == nil {
		res.Metrics = map[string]metricOut{}
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if err != nil {
		os.Exit(1)
	}
}

// prepare writes the node's network file and, for a durable workload, the
// preloaded data directory every spawn starts from.
func prepare(w *workload, o options, dir string) (sessionConfig, error) {
	cfg := sessionConfig{nodeBin: o.nodeBin, netFile: filepath.Join(dir, "network.json")}
	js, err := w.net.nodeJSON()
	if err != nil {
		return cfg, err
	}
	if err := os.WriteFile(cfg.netFile, js, 0o644); err != nil {
		return cfg, err
	}
	if w.durable {
		cfg.template = filepath.Join(dir, "preload")
		cfg.dataDir = filepath.Join(dir, "data")
		if err := writePreload(w, o.seed, cfg.template); err != nil {
			return cfg, fmt.Errorf("preload: %w", err)
		}
	}
	return cfg, nil
}

// startMeasured spawns the node setupRuns times, timing each set-up, and
// returns the last session still running, warmed up at the workload's
// fixed rate.
func startMeasured(w *workload, o options, cfg sessionConfig, spawns int, warm time.Duration) (*session, []float64, error) {
	var setups, connects []float64
	defer func() {
		fmt.Fprintf(os.Stderr, "  set-up: spawn to connect %s ms; spawn to ready %s ms\n", fmtList(scale(connects, 1e3), "%.1f"), fmtList(scale(setups, 1e3), "%.1f"))
	}()
	for i := 0; i < spawns; i++ {
		s, err := newSession(w, o.seed, cfg)
		if err != nil {
			return nil, nil, err
		}
		d, err := s.setup(30 * time.Second)
		if err != nil {
			s.close()
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		connects = append(connects, s.connectedAfter.Seconds())
		if i < spawns-1 {
			s.close()
			continue
		}
		if err := s.openLoop(w.rate, warm); err != nil {
			s.close()
			return nil, nil, err
		}
		return s, setups, nil
	}
	return nil, nil, fmt.Errorf("no spawns")
}

// phaseCounters is a snapshot of every counter a phase is measured by.
type phaseCounters struct {
	at                                          time.Time
	proc                                        procSample
	benchCPUNs                                  int64
	busyNs                                      float64
	ops                                         int
	frames, sized, bytes, gossip, results, acks int64
}

// snapshot reads every counter; withBusy adds the node's engine.busy_ns,
// an HTTP round trip to the node.
func (s *session) snapshot(withBusy bool) (phaseCounters, error) {
	p, err := readProc(s.node.pid())
	if err != nil {
		return phaseCounters{}, fmt.Errorf("read /proc: %w", err)
	}
	var busy float64
	if withBusy {
		if busy, err = s.node.counter("engine.busy_ns"); err != nil {
			return phaseCounters{}, err
		}
	}
	self, err := readProc(os.Getpid())
	if err != nil {
		return phaseCounters{}, fmt.Errorf("read /proc: %w", err)
	}
	return phaseCounters{
		at: time.Now(), proc: p, busyNs: busy, ops: s.nextOp, benchCPUNs: self.CPUNs,
		frames: s.frames.Load(), sized: s.sizedFrames.Load(), bytes: s.bytes.Load(), gossip: s.gossip.Load(),
		results: s.results.Load(), acks: s.acks.Load(),
	}, nil
}

// phaseCounts are the per-tuple and per-result ratios of one phase.
type phaseCounts struct {
	ops                 int
	cpuUsPerTuple       float64
	framesPerResult     float64
	bytesPerResult      float64
	gossipPerResult     float64
	acksPerTuple        float64
	ctxswPerTuple       float64
	writesPerTuple      float64
	wcharPerTuple       float64
	busyUsPerTuple      float64
	tuplesPerInputFrame float64
	outFramesPerTuple   float64
	resultsPerTuple     float64
	benchCPUUsPerTuple  float64
	statCPUUsPerTuple   float64 // the same CPU from /proc/<pid>/stat ticks
}

func diff(a, b phaseCounters, inputFrames int) phaseCounts {
	ops := float64(b.ops - a.ops)
	res := float64(b.results - a.results)
	c := phaseCounts{
		ops:                b.ops - a.ops,
		cpuUsPerTuple:      float64(b.proc.CPUNs-a.proc.CPUNs) / 1e3 / ops,
		acksPerTuple:       float64(b.acks-a.acks) / ops,
		ctxswPerTuple:      float64(b.proc.VolCtxsw-a.proc.VolCtxsw) / ops,
		writesPerTuple:     float64(b.proc.SyscW-a.proc.SyscW) / ops,
		wcharPerTuple:      float64(b.proc.WChar-a.proc.WChar) / ops,
		busyUsPerTuple:     (b.busyNs - a.busyNs) / 1e3 / ops,
		benchCPUUsPerTuple: float64(b.benchCPUNs-a.benchCPUNs) / 1e3 / ops,
		outFramesPerTuple:  float64(b.frames-a.frames) / ops,
		resultsPerTuple:    res / ops,
		statCPUUsPerTuple:  float64(b.proc.StatCPUNs-a.proc.StatCPUNs) / 1e3 / ops,
	}
	if res > 0 {
		c.framesPerResult = float64(b.frames-a.frames) / res
		if sized := float64(b.sized - a.sized); sized > 0 {
			perFrame := float64(b.frames-a.frames) / res / sized
			c.bytesPerResult = float64(b.bytes-a.bytes) * perFrame
			c.gossipPerResult = float64(b.gossip-a.gossip) * perFrame
		}
	}
	if inputFrames > 0 {
		c.tuplesPerInputFrame = ops / float64(inputFrames)
	}
	return c
}

// fixedResult is what a fixed-rate phase measured: its counts as a
// whole, the same counts per one-second window, and the op bounds of the
// windows.
type fixedResult struct {
	total   phaseCounts
	windows []phaseCounts
	bounds  []int // window i holds ops [bounds[i], bounds[i+1])
	end     phaseCounters
}

// fixedPhase runs the open loop for d in one-second windows. Figures are
// taken per window and reported as the median window, so a second in
// which the host stalls the run moves a quartile, not the result.
func (s *session) fixedPhase(d time.Duration) (fixedResult, error) {
	var r fixedResult
	a, err := s.snapshot(true)
	if err != nil {
		return r, err
	}
	s.setLatencyWindow()
	frames := s.inputFrames()
	prev, prevFrames := a, frames
	for left := d; left > 0; left -= time.Second {
		r.bounds = append(r.bounds, s.nextOp)
		if err := s.openLoop(s.w.rate, min(left, time.Second)); err != nil {
			return r, err
		}
		cur, err := s.snapshot(false)
		if err != nil {
			return r, err
		}
		r.windows = append(r.windows, diff(prev, cur, s.inputFrames()-prevFrames))
		prev, prevFrames = cur, s.inputFrames()
	}
	r.bounds = append(r.bounds, s.nextOp)
	s.closeLatencyWindow()
	if r.end, err = s.snapshot(true); err != nil {
		return r, err
	}
	r.total = diff(a, r.end, s.inputFrames()-frames)
	return r, nil
}

// windowP50 returns the median over windows of each window's p50
// latency.
func windowP50(lat []latSample, bounds []int) float64 {
	var p50s []float64
	for i := 0; i+1 < len(bounds); i++ {
		var w []float64
		for _, l := range lat {
			if l.op >= bounds[i] && l.op < bounds[i+1] {
				w = append(w, l.ms)
			}
		}
		if len(w) > 0 {
			sort.Float64s(w)
			p50s = append(p50s, percentile(w, 50))
		}
	}
	return median(p50s)
}

// finish drains the session and fills in the verdict.
func (s *session) finish(res *result) error {
	limit, err := s.drain(drainTimeout)
	res.Attempted, res.Failed = s.chk.verdict(limit)
	if err != nil {
		return err
	}
	return judge(res, s.recv.Holes(), int(s.replayed.Load()), s.preloadResults)
}

// judge decides a drained run: it is correct only when no op failed, the
// sink's link sequence has no holes and as many preloaded results arrived
// as the preloaded log held. Any failure is an error, so the run reports
// it instead of its numbers.
func judge(res *result, holes, replayed, preloaded int) error {
	switch {
	case res.Failed > 0:
		return fmt.Errorf("%d of %d ops failed: a result was missing, duplicated, altered or unexpected", res.Failed, res.Attempted)
	case holes != 0:
		return fmt.Errorf("sink link sequence has %d holes", holes)
	case replayed != preloaded:
		return fmt.Errorf("%d preloaded results redelivered, want %d", replayed, preloaded)
	}
	res.Correct = true
	return nil
}

// runTimed is the timed run: set-up, warm-up, a fixed-rate phase for
// latency and CPU per tuple, a closed-loop phase for throughput, then the
// drain and the exactly-once check.
func runTimed(w *workload, o options, dir string) (res result, info map[string]metricOut, err error) {
	res = result{Metrics: map[string]metricOut{}}
	cfg, err := prepare(w, o, dir)
	if err != nil {
		return res, info, err
	}
	s, setups, err := startMeasured(w, o, cfg, setupRuns, warmFor(w))
	if err != nil {
		return res, info, err
	}
	defer s.close()
	fixed := time.Duration(o.seconds) * time.Second * 2 / 3
	closed := time.Duration(o.seconds)*time.Second - fixed

	fr, err := s.fixedPhase(fixed)
	if err != nil {
		return res, info, err
	}
	counts, b := fr.total, fr.end
	// Peak RSS is read after the fixed-rate phase: the closed loop's
	// backlog sets a peak that swings with how deep the node's queues ran.
	rss := b.proc.HWMKB
	rates, perCPU, err := s.closedLoop(w.window, closed)
	if err != nil {
		return res, info, err
	}
	c, err := s.snapshot(false)
	if err != nil {
		return res, info, err
	}
	if err := s.finish(&res); err != nil {
		return res, info, err
	}
	lat, lag := s.samples()
	all := make([]float64, len(lat))
	for i, l := range lat {
		all[i] = l.ms
	}
	ls, gl := summarize(all), summarize(lag)
	var cpus []float64
	for _, wc := range fr.windows {
		cpus = append(cpus, wc.cpuUsPerTuple)
	}
	res.Metrics["cpu_us_per_tuple"] = metricOut{median(cpus), "us"}
	res.Metrics["rss_mb"] = metricOut{float64(rss) / 1024, "MB"}
	q1, _, _ := quartiles(setups)
	res.Metrics["setup_s"] = metricOut{q1, "s"}

	// Throughput and latency are measured and printed with every run but
	// carry no bound: on the reference host their run-to-run spread is
	// wider than any bound that could tell a change from noise (README).
	info = map[string]metricOut{
		"tput_tps":         {median(rates), "1/s"},
		"tput_per_cpu_tps": {median(perCPU), "1/s"},
		"p50_ms":           {windowP50(lat, fr.bounds), "ms"},
	}
	if ls.HasTail {
		info[fmt.Sprintf("p%g_ms", ls.TailP)] = metricOut{ls.TailV, "ms"}
	}
	info["latency_samples"] = metricOut{float64(ls.N), "count"}
	el := c.at.Sub(b.at).Seconds()
	fmt.Fprintf(os.Stderr, "%s seed %d: %d ops attempted, %d failed; fixed phase %d ops at %.0f/s, %.2f per input frame; closed loop window %d\n",
		w.name, o.seed, res.Attempted, res.Failed, counts.ops, w.rate, counts.tuplesPerInputFrame, w.window)
	fmt.Fprintf(os.Stderr, "  latency over the phase: %s; generator lag: %s\n", ls, gl)
	fmt.Fprintf(os.Stderr, "  per window: cpu_us_per_tuple %s; closed-loop tput %s, per node CPU second %s\n", fmtList(cpus, "%.2f"), fmtList(rates, "%.0f"), fmtList(perCPU, "%.0f"))
	fmt.Fprintf(os.Stderr, "  closed loop: node cpu %.0f%%, bench cpu %.0f%% of one CPU\n",
		100*float64(c.proc.CPUNs-b.proc.CPUNs)/1e9/el, 100*float64(c.benchCPUNs-b.benchCPUNs)/1e9/el)
	printCounts(os.Stderr, counts, s)
	return res, info, nil
}

// warmFor is the warm-up before measuring. A node that has just replayed
// a recovered log runs slow for a while after (README), so the durable
// workload warms up longer.
func warmFor(w *workload) time.Duration {
	if w.durable {
		return 3 * time.Second
	}
	return 1500 * time.Millisecond
}

func printCounts(f *os.File, c phaseCounts, s *session) {
	fmt.Fprintf(f, "  node cpu_us_per_tuple %.3f (from stat ticks %.3f)\n", c.cpuUsPerTuple, c.statCPUUsPerTuple)
	fmt.Fprintf(f, "  per layer (fixed phase): transport.frames_per_result %.3f  transport.bytes_per_result %.1f  stats.gossip_bytes_per_result %.1f\n",
		c.framesPerResult, c.bytesPerResult, c.gossipPerResult)
	fmt.Fprintf(f, "    ha.acks_per_tuple %.4f  ha.dup_suppressed %d  ha.replayed %d  auroranode.ctxsw_per_tuple %.3f\n",
		c.acksPerTuple, s.recv.Suppressed(), s.replayed.Load(), c.ctxswPerTuple)
	fmt.Fprintf(f, "    auroranode.write_syscalls_per_tuple %.3f  auroranode.wchar_per_tuple %.1f  engine.busy_us_per_tuple %.3f  input tuples/frame %.2f  bench cpu us/tuple %.2f\n",
		c.writesPerTuple, c.wcharPerTuple, c.busyUsPerTuple, c.tuplesPerInputFrame, c.benchCPUUsPerTuple)
}

func fmtList(vs []float64, format string) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf(format, v)
	}
	return strings.Join(parts, " ")
}

func scale(vs []float64, k float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v * k
	}
	return out
}
