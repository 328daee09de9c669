package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/trace"
)

// spanEvery samples one input tuple in this many for a span in the traced
// phase.
const spanEvery = 16

// runTraced is the traced run. It is never used for end-to-end numbers:
// after set-up and warm-up it runs an untraced fixed-rate phase (the
// counts and the baseline CPU), a fixed-rate phase with spans sampled at
// the source, and a closed-loop phase under the CPU profiler; then it
// times each layer's functions in-process and prints the ledger. It
// writes the benchmark's layer spans, the node's /trace export and the
// node's CPU profile next to the run's host record.
func runTraced(w *workload, o options, dir string) (result, error) {
	res := result{Metrics: map[string]metricOut{}}
	cfg, err := prepare(w, o, dir)
	if err != nil {
		return res, err
	}
	cfg.traceRec = true
	s, _, err := startMeasured(w, o, cfg, 1, warmFor(w))
	if err != nil {
		return res, err
	}
	defer s.close()
	total := time.Duration(o.seconds) * time.Second
	phase := total * 3 / 10
	profSecs := max(1, int((total-2*phase)/time.Second))

	s.capture.Store(true)
	fb, err := s.fixedPhase(phase)
	base := fb.total
	s.capture.Store(false)
	if err != nil {
		return res, err
	}
	_, lag := s.samples()

	s.tracer = trace.NewTracer("bench", spanEvery, nil)
	s.traced.Store(true)
	ft, err := s.fixedPhase(phase)
	traced := ft.total
	s.traced.Store(false)
	if err != nil {
		return res, err
	}

	profile := filepath.Join(dir, "node-cpu.pprof")
	profErr := make(chan error, 1)
	go func() {
		profErr <- s.node.fetch(fmt.Sprintf("/debug/pprof/profile?seconds=%d", profSecs), profile)
	}()
	if _, _, err := s.closedLoop(w.window, time.Duration(profSecs)*time.Second+300*time.Millisecond); err != nil {
		return res, err
	}
	if err := <-profErr; err != nil {
		return res, fmt.Errorf("cpu profile: %w", err)
	}
	if err := s.finish(&res); err != nil {
		return res, err
	}
	if err := s.node.fetch("/trace?format=chrome", filepath.Join(dir, "node-trace.json")); err != nil {
		return res, fmt.Errorf("node trace: %w", err)
	}
	s.close()

	rec := trace.NewRecorder(4096)
	trainLen := max(1, int(math.Round(base.tuplesPerInputFrame)))
	lc, err := measureLayers(w, o.seed, s.sentCap, s.captured, trainLen, dir, rec)
	if err != nil {
		return res, err
	}
	if err := os.WriteFile(filepath.Join(dir, "bench-spans.json"), trace.ChromeTrace(rec.Events()), 0o644); err != nil {
		return res, err
	}
	shares, profSeconds, err := cpuShares(profile)
	if err != nil {
		return res, err
	}

	m := res.Metrics
	put := func(name, unit string, v float64) { m[name] = metricOut{v, unit} }
	put("transport.frames_per_result", "count", base.framesPerResult)
	put("transport.bytes_per_result", "B", base.bytesPerResult)
	put("stats.gossip_bytes_per_result", "B", base.gossipPerResult)
	put("ha.acks_per_tuple", "count", base.acksPerTuple)
	put("ha.dup_suppressed", "count", float64(s.recv.Suppressed()))
	put("auroranode.ctxsw_per_tuple", "count", base.ctxswPerTuple)
	put("auroranode.write_syscalls_per_tuple", "count", base.writesPerTuple)
	put("auroranode.wchar_per_tuple", "B", base.wcharPerTuple)
	put("engine.busy_us_per_tuple", "us", base.busyUsPerTuple)
	sort.Float64s(lag)
	put("bench.gen_lag_ms", "ms", percentile(lag, 99))

	var q, p, n float64
	s.mu.Lock()
	spans := append([]spanSample(nil), s.spans...)
	s.mu.Unlock()
	for _, sp := range spans {
		q += float64(sp.queue)
		p += float64(sp.proc)
		n += float64(sp.net)
	}
	if k := float64(len(spans)); k > 0 {
		q, p, n = q/k/1e3, p/k/1e3, n/k/1e3
	}
	put("engine.queue_us", "us", q)
	put("engine.proc_us", "us", p)
	put("transport.net_us", "us", n)

	put("op.kernel_ns_per_tuple", "ns", lc.kernel.wall)
	put("engine.run_ns_per_tuple", "ns", lc.run.wall)
	put("engine.planes_ns_per_tuple", "ns", lc.planes.wall)
	put("transport.encode_ns_per_frame", "ns", lc.encode.wall)
	put("transport.decode_ns_per_frame", "ns", lc.decode.wall)
	put("transport.loopback_ns_per_frame", "ns", lc.wire.wall)
	put("ha.dedup_ns_per_frame", "ns", lc.dedup.wall)
	put("ha.send_ns_per_result", "ns", lc.send.wall)
	put("stats.gossip_ns", "ns", lc.gossip.wall)
	put("storage.commit_us", "us", lc.commit.wall/1e3)
	put("storage.checkpoint_us", "us", lc.checkpoint.wall/1e3)
	for _, mod := range shareModules {
		put("auroranode.cpu_share."+mod, "share", shares[mod])
	}
	put("trace.overhead_cpu_us_per_tuple", "us", traced.cpuUsPerTuple-base.cpuUsPerTuple)

	// The ledger: each layer call's CPU cost times its calls per input
	// tuple on the node's path, against the CPU the node actually spent.
	// A loopback frame's CPU covers both ends; the node is the sending end
	// of each result frame and the receiving end of each input frame, so
	// half of it is charged per frame of either kind.
	inFramesPerTuple := 1 / base.tuplesPerInputFrame
	rows := []ledgerRow{
		{"transport.TCP loopback frame, one end", inFramesPerTuple + base.outFramesPerTuple, lc.wire.cpu / 2},
		{"transport.DecodeInto (input frame)", inFramesPerTuple, lc.decode.cpu},
		{"ha.LinkReceiver.OnBatch (input frame)", inFramesPerTuple, lc.dedup.cpu},
		{"engine.Ingest+Run, planes off (tuple)", 1, lc.run.cpu},
		{"engine stats+SLO+journal planes (tuple)", 1, lc.planes.cpu},
		{"ha.LinkSender.Send (result)", base.resultsPerTuple, lc.send.cpu},
		{"stats.Plane.Gossip (output frame)", base.outFramesPerTuple, lc.gossip.cpu},
	}
	if w.durable {
		rows = append(rows,
			ledgerRow{"storage.Log.Append+fsync (result)", base.resultsPerTuple, lc.commit.cpu},
			ledgerRow{"storage.SaveCheckpoint (ack sent)", base.acksPerTuple, lc.checkpoint.cpu})
	}
	explained := 0.0
	f := os.Stderr
	fmt.Fprintf(f, "%s seed %d traced run: %d ops attempted, %d failed; fixed phases at %.0f/s, %.2f tuples per input frame\n",
		w.name, o.seed, res.Attempted, res.Failed, w.rate, base.tuplesPerInputFrame)
	fmt.Fprintf(f, "  %-42s %10s %12s %12s\n", "layer call (CPU)", "calls/tup", "ns/call", "us/tuple")
	for _, r := range rows {
		us := r.calls * r.ns / 1e3
		explained += us
		fmt.Fprintf(f, "  %-42s %10.4f %12.1f %12.3f\n", r.name, r.calls, r.ns, us)
	}
	fmt.Fprintf(f, "  %-42s %10s %12s %12.3f\n", "sum of the layer calls", "", "", explained)
	fmt.Fprintf(f, "  %-42s %10s %12s %12.3f\n", "node cpu_us_per_tuple (untraced phase)", "", "", base.cpuUsPerTuple)
	fmt.Fprintf(f, "  %-42s %10s %12s %12.3f\n", "left over: syscalls, scheduling, GC, rest", "", "", base.cpuUsPerTuple-explained)
	fmt.Fprintf(f, "  inside the rows above: op.ProcessTrain %.1f ns/tuple (in engine.Run), transport.Encode %.1f ns per output frame (in the loopback frame)\n",
		lc.kernel.cpu, lc.encode.cpu)
	if w.durable {
		fmt.Fprintf(f, "  wall time per call: storage.Log.Append+fsync %.1f us, storage.SaveCheckpoint %.1f us\n", lc.commit.wall/1e3, lc.checkpoint.wall/1e3)
	}
	fmt.Fprintf(f, "  spans: %d sampled; mean queue %.1f us, proc %.1f us, net %.1f us\n", len(spans), q, p, n)
	fmt.Fprintf(f, "  node cpu profile: %.2f s of samples; shares:", profSeconds)
	for _, mod := range shareModules {
		fmt.Fprintf(f, " %s %.1f%%", mod, 100*shares[mod])
	}
	fmt.Fprintln(f)
	printCounts(f, base, s)
	put("ledger.unexplained_us_per_tuple", "us", base.cpuUsPerTuple-explained)
	fmt.Fprintf(f, "  artifacts: %s/{bench-spans.json,node-trace.json,node-cpu.pprof}\n", dir)
	return res, nil
}

type ledgerRow struct {
	name  string
	calls float64
	ns    float64
}
