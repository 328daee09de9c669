package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ha"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/transport"
)

// setupFrame is how many ops a session sends at once when the node first
// connects: enough for agg to close its first windows.
const setupFrame = 128

// sizeSample is the sampling interval of sink frame sizes.
const sizeSample = 8

// captureFrames is how many node-to-sink frames a traced session keeps
// for the per-layer codec, dedup and gossip measurements.
const captureFrames = 512

// session is the benchmark's side of one node process: it is the node's
// upstream peer (sending HA-framed batches into input "in") and its
// downstream peer (receiving stream "sink" through an ha.LinkReceiver and
// acknowledging it), over the one loopback connection the node dials.
type session struct {
	w       *workload
	tcp     *transport.TCP
	node    *nodeProc
	chk     *checker
	gen     generator
	recv    *ha.LinkReceiver
	tracer  *trace.Tracer // samples spans while traced is set
	traced  atomic.Bool
	capture atomic.Bool // keep frames for the per-layer measurements

	// Sender state, owned by the sending goroutine.
	nextOp  int
	nextSeq uint64 // input link sequence

	dueMu sync.Mutex
	due   []int64 // per op: the time it was due to be sent (0 for preloaded ops)

	preloadResults int           // results the preloaded log holds
	connectedAfter time.Duration // spawn to the node's connection

	frames, bytes, gossip, results, acks, replayed atomic.Int64
	sentFrames, sizedFrames                        atomic.Int64
	pace                                           pacer
	firstResult                                    chan struct{}
	firstOnce, closeOnce                           sync.Once
	progress                                       chan struct{} // pulsed on every arrival

	mu       sync.Mutex
	latLo    int // ops [latLo, latHi) contribute latency samples
	latHi    int
	lat      []latSample
	genLag   []float64       // ms, per open-loop wake-up in the latency window
	captured []transport.Msg // result frames received
	sentCap  []transport.Msg // input frames sent
	spans    []spanSample
	spanGen  map[uint64]int64 // span id -> generator wait, for spans in flight
	scratch  []byte           // encode buffer, receive goroutine only
}

// spanSample is one finished span's components: queue (less the
// benchmark's own generator wait), proc and net.
type spanSample struct {
	queue, proc, net int64
}

// sessionConfig carries what a session needs beyond its workload.
type sessionConfig struct {
	nodeBin  string
	netFile  string
	dataDir  string // "" unless durable; the preload is copied here first
	template string // preloaded data dir to copy
	traceRec bool   // run the node with a flight recorder
}

func newSession(w *workload, seed int64, cfg sessionConfig) (*session, error) {
	s := &session{
		w:           w,
		chk:         newChecker(),
		firstResult: make(chan struct{}),
		progress:    make(chan struct{}, 1),
		latLo:       -1,
		latHi:       -1,
		spanGen:     map[uint64]int64{},
	}
	s.gen = w.newGen(seed, s.chk)
	// The preloaded ops are the inputs a previous incarnation processed:
	// their results sit unacknowledged in its output log.
	for op := 0; op < w.preload; op++ {
		vals := s.gen.next(op)
		if _, pass := relayRef(vals[0].AsInt(), vals[1].AsInt(), vals[2].AsInt()); pass {
			s.preloadResults++
		}
		s.due = append(s.due, 0)
	}
	s.nextOp, s.nextSeq = w.preload, 1
	s.recv = ha.NewLinkReceiver(s.deliver, s.ack, 32)
	tcp, err := transport.ListenTCP("bench", "127.0.0.1:0", s.handle)
	if err != nil {
		return nil, fmt.Errorf("bench listen: %w", err)
	}
	s.tcp = tcp
	args := []string{
		"-id", "node", "-listen", "127.0.0.1:0", "-network", cfg.netFile,
		"-peer", "bench=" + tcp.Addr(), "-route", "out=bench/sink",
		"-stats", "100ms", "-slo", "-workers", "0", "-http", "127.0.0.1:0",
	}
	if w.durable {
		if err := os.RemoveAll(cfg.dataDir); err != nil {
			tcp.Close()
			return nil, err
		}
		if err := copyTree(cfg.template, cfg.dataDir); err != nil {
			tcp.Close()
			return nil, fmt.Errorf("copy preload: %w", err)
		}
		args = append(args, "-data-dir", cfg.dataDir)
	}
	if cfg.traceRec {
		args = append(args, "-trace", "1")
	}
	node, err := startNode(cfg.nodeBin, args)
	if err != nil {
		tcp.Close()
		return nil, err
	}
	s.node = node
	return s, nil
}

// close stops the node and the transport and waits for both.
func (s *session) close() {
	s.closeOnce.Do(func() {
		s.node.stop()
		s.tcp.Close()
	})
}

// setup waits for the node to connect and reports the set-up time: spawn
// to first result, or, over a preloaded log, spawn to the last preloaded
// result.
func (s *session) setup(timeout time.Duration) (time.Duration, error) {
	deadline := time.Now().Add(timeout)
	for !s.connected() {
		if !s.node.alive() {
			return 0, fmt.Errorf("%s", s.node.exitReport())
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("node did not connect within %v; stderr:\n%s", timeout, s.node.stderrText())
		}
		// A runtime timer would round this poll up to a millisecond.
		s.pace.waitUntil(time.Now().UnixNano() + 50_000)
	}
	s.connectedAfter = time.Since(s.node.spawned)
	if s.w.preload == 0 {
		s.sendNow(setupFrame)
	}
	for {
		if s.w.preload > 0 {
			if int(s.replayed.Load()) >= s.preloadResults {
				return time.Since(s.node.spawned), nil
			}
		} else {
			select {
			case <-s.firstResult:
				return time.Since(s.node.spawned), nil
			default:
			}
		}
		if err := s.waitProgress(deadline); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
	}
}

func (s *session) connected() bool {
	for _, p := range s.tcp.Peers() {
		if p == "node" {
			return true
		}
	}
	return false
}

// waitProgress blocks until the sink sees another arrival, the node dies
// or the deadline passes.
func (s *session) waitProgress(deadline time.Time) error {
	wait := time.Until(deadline)
	if wait <= 0 {
		return fmt.Errorf("deadline passed; node stderr:\n%s", s.node.stderrText())
	}
	if wait > 5*time.Millisecond {
		wait = 5 * time.Millisecond
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-s.progress:
	case <-s.node.exited:
		return fmt.Errorf("%s", s.node.exitReport())
	case <-t.C:
	}
	return nil
}

// sendNow sends n ops due now as one frame, their due times 1 ns apart so
// they stay distinct and increasing.
func (s *session) sendNow(n int) {
	dues := make([]int64, n)
	now := time.Now().UnixNano()
	for j := range dues {
		dues[j] = now + int64(j)
	}
	s.sendOps(dues)
}

// sendOps generates one op per due time and sends them as one HA-framed
// batch. A due time at or before the last one sent is moved just past it.
func (s *session) sendOps(dues []int64) {
	n := len(dues)
	ts := make([]stream.Tuple, n)
	s.dueMu.Lock()
	last := int64(0)
	if k := len(s.due); k > 0 {
		last = s.due[k-1]
	}
	for j := range dues {
		if dues[j] <= last {
			dues[j] = last + 1
		}
		last = dues[j]
	}
	s.due = append(s.due, dues...)
	s.dueMu.Unlock()
	for j := range ts {
		ts[j] = stream.Tuple{Seq: s.nextSeq + uint64(j), TS: dues[j], Vals: s.gen.next(s.nextOp + j)}
	}
	now := time.Now().UnixNano()
	if s.traced.Load() {
		for j := range ts {
			if sp := s.tracer.Sample(dues[j]); sp != nil {
				sent := max(now, dues[j])
				sp.Mark(trace.KindQueue, "bench.gen", sent)
				ts[j].Span = sp
				s.mu.Lock()
				s.spanGen[sp.ID] = sent - dues[j]
				s.mu.Unlock()
			}
		}
	}
	m := transport.Msg{Stream: "in", Kind: transport.KindData, BaseSeq: s.nextSeq, Tuples: ts, Ctrl: ha.LinkBatchCtrl()}
	if s.capture.Load() {
		s.mu.Lock()
		if len(s.sentCap) < captureFrames {
			s.sentCap = append(s.sentCap, m)
		}
		s.mu.Unlock()
	}
	s.nextOp += n
	s.nextSeq += uint64(n)
	s.sentFrames.Add(1)
	_ = s.tcp.Send("node", m) // a dead connection shows as missing results
}

// handle is the transport handler: acks for the input link and result
// frames on the sink stream.
func (s *session) handle(from string, m transport.Msg) {
	switch {
	case m.Kind == transport.KindBackChannel && m.Stream == "in":
		if _, ok := ha.ParseLinkAck(m.Ctrl); ok {
			s.acks.Add(1)
		}
	case m.Kind == transport.KindData && m.Stream == "sink" && ha.IsLinkBatch(m.Ctrl):
		if s.frames.Add(1)%sizeSample == 0 {
			// Re-encoding costs the benchmark as much as the node's own
			// encode, so frame sizes are sampled; the digest trailer's
			// share is the size difference without it.
			s.scratch = transport.Encode(s.scratch[:0], m)
			size := len(s.scratch) + 4 // plus the length prefix
			s.sizedFrames.Add(1)
			s.bytes.Add(int64(size))
			if len(m.Digests) > 0 {
				bare := m
				bare.Digests = nil
				s.scratch = transport.Encode(s.scratch[:0], bare)
				s.gossip.Add(int64(size - 4 - len(s.scratch)))
			}
		}
		if s.capture.Load() {
			s.mu.Lock()
			if len(s.captured) < captureFrames {
				s.captured = append(s.captured, m)
			}
			s.mu.Unlock()
		}
		s.recv.OnBatch(m.Tuples)
	}
}

// deliver receives each result the sink's dedup admits.
func (s *session) deliver(t stream.Tuple) {
	arrive := time.Now().UnixNano()
	key, opHint := s.keyOf(t)
	closeOp, ok := s.chk.observe(key, t.Vals, opHint)
	s.results.Add(1)
	if opHint >= 0 && opHint < s.w.preload {
		s.replayed.Add(1)
	}
	if ok {
		s.mu.Lock()
		if s.latLo >= 0 && closeOp >= s.latLo && (s.latHi < 0 || closeOp < s.latHi) {
			s.lat = append(s.lat, latSample{closeOp, float64(arrive-s.dueOf(closeOp)) / 1e6})
		}
		if sp := t.Span; sp != nil {
			sp.Mark(trace.KindNet, "node>bench", arrive)
			gen := s.spanGen[sp.ID]
			delete(s.spanGen, sp.ID)
			s.spans = append(s.spans, spanSample{queue: sp.Queue - gen, proc: sp.Proc, net: sp.Net})
		}
		s.mu.Unlock()
	}
	s.firstOnce.Do(func() { close(s.firstResult) })
	select {
	case s.progress <- struct{}{}:
	default:
	}
}

// keyOf identifies the expected result a sink tuple answers and the op it
// belongs to: relay results carry their op in C; an aggregate result
// carries its branch in K and, as TS, the due time of its window's first
// op.
func (s *session) keyOf(t stream.Tuple) (resultKey, int) {
	if len(t.Vals) != 3 {
		return resultKey{Branch: -1}, -1
	}
	if s.w.net.Name == "agg" {
		op := s.opOfDue(t.TS)
		return resultKey{Branch: t.Vals[1].AsInt(), Op: op}, op
	}
	op := int(t.Vals[2].AsInt())
	return resultKey{Op: op}, op
}

func (s *session) dueOf(op int) int64 {
	s.dueMu.Lock()
	defer s.dueMu.Unlock()
	if op < 0 || op >= len(s.due) {
		return 0
	}
	return s.due[op]
}

// opOfDue finds the op due at ts; due times strictly increase with op.
func (s *session) opOfDue(ts int64) int {
	s.dueMu.Lock()
	defer s.dueMu.Unlock()
	i := sort.Search(len(s.due), func(i int) bool { return s.due[i] >= ts })
	if i < len(s.due) && s.due[i] == ts {
		return i
	}
	return -1
}

// ack sends the sink's complete-prefix acknowledgement to the node.
func (s *session) ack(recv uint64) {
	_ = s.tcp.Send("node", transport.Msg{
		Stream: "sink", Kind: transport.KindBackChannel, Ctrl: ha.AppendLinkAck(nil, recv),
	})
}

// tick is the generator's wake-up period in the fixed-rate phase: the
// granularity at which a Go program sleeping on a runtime timer wakes on
// the reference host (the host record's timer probe), so the frames are
// those such a source would send. Waking once per tuple instead gave
// frames of 1 to 3 tuples whose per-frame wake-ups made the node's CPU per
// tuple two to three times higher and too unsteady to bound (README).
const tick = time.Millisecond

// openLoop sends at a fixed rate for d: op i of the phase is due at
// start + i/rate. The generator wakes every tick, and at each wake-up
// every op then due goes out as one frame. Frame sizes therefore follow
// from the rate and from how late the host wakes the generator; each run
// prints the input tuples per frame it saw.
func (s *session) openLoop(rate float64, d time.Duration) error {
	interval := 1e9 / rate
	start := time.Now().UnixNano()
	end := start + d.Nanoseconds()
	sent := 0
	dueAt := func(i int) int64 { return start + int64(float64(i)*interval) }
	wake := start
	for {
		now := time.Now().UnixNano()
		if now >= end {
			return nil
		}
		if !s.node.alive() {
			return fmt.Errorf("%s", s.node.exitReport())
		}
		var dues []int64
		for due := dueAt(sent); due <= now && due < end; due = dueAt(sent) {
			dues = append(dues, due)
			sent++
		}
		if len(dues) > 0 {
			s.sendOps(dues)
			s.noteLag(now - wake)
		}
		nextTick := start + ((now-start)/int64(tick)+1)*int64(tick)
		wake = max(nextTick, dueAt(sent))
		s.pace.waitUntil(wake)
	}
}

// noteLag records, inside the latency window, how late the generator woke
// against the wake-up it slept until.
func (s *session) noteLag(late int64) {
	s.mu.Lock()
	if s.latLo >= 0 && s.latHi < 0 {
		s.genLag = append(s.genLag, float64(late)/1e6)
	}
	s.mu.Unlock()
}

// pacer puts the generator to sleep until a due time. It sleeps in the
// nanosleep system call rather than on a runtime timer: with no goroutine
// runnable, the Go runtime waits for timers in epoll with millisecond
// resolution, so time.Sleep overshoots short waits by up to a
// millisecond, while the kernel's high-resolution timer wakes the thread
// within tens of microseconds. The runtime hands the sleeping thread's P
// to the sink's goroutines meanwhile.
type pacer struct{}

func (pacer) waitUntil(due int64) {
	for {
		wait := due - time.Now().UnixNano()
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(wait)
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// closedLoop keeps at most window ops outstanding for d. At each wake-up
// every op the window has room for goes out as one frame, so frames grow
// with the results that arrived since the last one. For each whole second
// of the phase it returns the ops completed per second of wall time and per
// second of the node's CPU time.
func (s *session) closedLoop(window int, d time.Duration) (wall, perCPU []float64, err error) {
	start := time.Now()
	end := start.Add(d)
	p0, err := readProc(s.node.pid())
	if err != nil {
		return nil, nil, err
	}
	markAt, markOps, markCPU := start, s.chk.completedOps(), p0.CPUNs
	for {
		now := time.Now()
		if el := now.Sub(markAt); el >= time.Second || (!now.Before(end) && el >= time.Second/2) {
			p, err := readProc(s.node.pid())
			if err != nil {
				return nil, nil, err
			}
			c := s.chk.completedOps()
			wall = append(wall, float64(c-markOps)/el.Seconds())
			if cpu := p.CPUNs - markCPU; cpu > 0 {
				perCPU = append(perCPU, float64(c-markOps)/(float64(cpu)/1e9))
			}
			markAt, markOps, markCPU = now, c, p.CPUNs
		}
		if !now.Before(end) {
			return wall, perCPU, nil
		}
		room := window - (s.nextOp - s.chk.completedOps())
		if room <= 0 {
			if err := s.waitProgress(end.Add(10 * time.Second)); err != nil {
				return nil, nil, err
			}
			continue
		}
		s.sendNow(room)
	}
}

// drain sends ops until every op sent so far is determined (its windows
// closed), then waits until their results have arrived or the deadline
// passes. It returns the number of attempted ops: those in determined
// groups.
func (s *session) drain(timeout time.Duration) (int, error) {
	sentBefore := s.nextOp
	for s.chk.determinedOps() < sentBefore {
		s.sendNow(1)
	}
	limit := s.chk.determinedOps()
	s.recv.AckNow()
	deadline := time.Now().Add(timeout)
	for s.chk.completedOps() < limit {
		if err := s.waitProgress(deadline); err != nil {
			return limit, fmt.Errorf("drain: %d of %d ops complete: %w", s.chk.completedOps(), limit, err)
		}
	}
	return limit, nil
}

// setLatencyWindow makes ops from the next one sent onward (until
// closeLatencyWindow) contribute latency and generator-lag samples.
func (s *session) setLatencyWindow() {
	s.mu.Lock()
	s.latLo, s.latHi = s.nextOp, -1
	s.lat, s.genLag = s.lat[:0], s.genLag[:0]
	s.mu.Unlock()
}

func (s *session) closeLatencyWindow() {
	s.mu.Lock()
	s.latHi = s.nextOp
	s.mu.Unlock()
}

// samples returns the latency and generator-lag samples of the window,
// in ms. Results of window ops that arrive after the window closed count
// too, so read them after the drain.
func (s *session) samples() (lat []latSample, lag []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]latSample(nil), s.lat...), append([]float64(nil), s.genLag...)
}

// latSample is one result's latency, keyed by the op that closed it.
type latSample struct {
	op int
	ms float64
}

// writePreload builds the data directory a previous incarnation of the
// node would have left: an output log for route bench/sink holding the
// results of the workload's first ops, none of them acknowledged. The
// manager keeps route logs under outlog/<path-escaped key>.
func writePreload(w *workload, seed int64, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	l, err := storage.OpenLog(filepath.Join(dir, "outlog", "bench%2Fsink"), storage.LogConfig{SyncEvery: 1 << 30})
	if err != nil {
		return err
	}
	sink := storage.NewOutputSink(l)
	gen := w.newGen(seed, newChecker())
	seq := uint64(0)
	for op := 0; op < w.preload; op++ {
		vals := gen.next(op)
		out, pass := relayRef(vals[0].AsInt(), vals[1].AsInt(), vals[2].AsInt())
		if !pass {
			continue
		}
		seq++
		if err := sink.Append(uint64(op+1), stream.Tuple{Seq: seq, TS: int64(op + 1), Vals: out}); err != nil {
			l.Close()
			return err
		}
	}
	if err := l.Sync(); err != nil {
		l.Close()
		return err
	}
	return l.Close()
}

// copyTree copies a directory of regular files, then syncs every copied
// file and directory and the parent of dst. Otherwise the node's first
// fsync would also flush the copy, and the removal of the one before it,
// inside the timed set-up.
func copyTree(src, dst string) error {
	var dirs []string
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			dirs = append(dirs, target)
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return writeSynced(target, data)
	})
	if err != nil {
		return err
	}
	dirs = append(dirs, filepath.Dir(dst))
	for i := len(dirs) - 1; i >= 0; i-- {
		if err := syncPath(dirs[i]); err != nil {
			return err
		}
	}
	return nil
}

func writeSynced(name string, data []byte) error {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func syncPath(name string) error {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// inputFrames returns how many frames the session has sent the node.
func (s *session) inputFrames() int { return int(s.sentFrames.Load()) }
