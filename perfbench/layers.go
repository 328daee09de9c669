package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/events"
	"repro/internal/ha"
	"repro/internal/op"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/transport"
)

// This file times the public functions of each layer the node's hot path
// goes through, on the workload's own network and on frames captured from
// the run, and records a span around every timed round so the rounds can
// be laid against each other in a Chrome trace.

// layerRounds is how many timed rounds each measurement takes; the median
// round is reported. A round repeats the call batch for at least
// minRound, because a thread's run time in schedstat advances only at
// scheduler ticks.
const (
	layerRounds = 9
	minRound    = 40 * time.Millisecond
)

type layerTimer struct {
	rec *trace.Recorder
}

// cost is one layer call's median cost: wall time, and CPU time of the
// calling thread (what the call itself burns, without time spent waiting
// on a disk or a peer), in ns per operation.
type cost struct {
	wall, cpu float64
}

// measure runs fn layerRounds times on one locked thread; each call
// performs ops operations. It returns the median cost per operation.
func (lt *layerTimer) measure(name string, ops int, fn func()) cost {
	return lt.measureWith(name, ops, threadCPU, fn)
}

// measureWith is measure with a chosen CPU clock.
func (lt *layerTimer) measureWith(name string, ops int, cpuNow func() int64, fn func()) cost {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := time.Now()
	fn() // warm caches, pools and lazy set-up; size the rounds
	reps := 1
	if one := time.Since(t0); one < minRound {
		reps = int(minRound/max(one, time.Microsecond)) + 1
	}
	walls := make([]float64, layerRounds)
	cpus := make([]float64, layerRounds)
	for i := range walls {
		c0, t0 := cpuNow(), time.Now()
		for r := 0; r < reps; r++ {
			fn()
		}
		d, c := time.Since(t0), cpuNow()-c0
		lt.rec.Add(trace.Event{Node: "bench", Name: name, Kind: trace.KindProc, Start: t0.UnixNano(), Dur: d.Nanoseconds()})
		n := float64(ops * reps)
		walls[i] = float64(d.Nanoseconds()) / n
		cpus[i] = float64(c) / n
	}
	return cost{median(walls), median(cpus)}
}

// layerCosts is the cost of each layer call.
type layerCosts struct {
	kernel, run, planes   cost // per input tuple
	encode, decode, dedup cost // per frame
	send                  cost // ha.LinkSender.Send, per result
	wire                  cost // one frame through a loopback transport.TCP pair, both ends
	gossip                cost // per Plane.Gossip call
	commit, checkpoint    cost // per call, on the data directory's filesystem
}

// inputTrains draws n tuples from the workload's generator, cut into
// trains of length l.
func inputTrains(w *workload, seed int64, n, l int) [][]stream.Tuple {
	gen := w.newGen(seed, newChecker())
	var trains [][]stream.Tuple
	for op := 0; op < n; op += l {
		train := make([]stream.Tuple, 0, l)
		for j := 0; j < l && op+j < n; j++ {
			train = append(train, stream.Tuple{Seq: uint64(op + j + 1), TS: int64(op + j + 1), Vals: gen.next(op + j)})
		}
		trains = append(trains, train)
	}
	return trains
}

// opChain drives a network's operators directly, box by box in the
// description's (topological) order, with no engine around them: the cost
// of the batch kernels alone.
type opChain struct {
	d       netDesc
	ops     []op.Operator
	index   map[string]int
	dests   map[portRef]([]portRef) // (box, out port) -> (box, in port)
	pending [][][]stream.Tuple      // per box, per in port
}

type portRef struct {
	box  string
	port int
}

func newOpChain(d netDesc) (*opChain, error) {
	c := &opChain{d: d, index: map[string]int{}, dests: map[portRef][]portRef{}}
	in := map[portRef]*stream.Schema{}
	for _, b := range d.Inputs {
		in[portRef{b, 0}] = inputSchema
	}
	for _, a := range d.Arcs {
		from, to := parseArcPort(a[0]), parseArcPort(a[1])
		c.dests[portRef{from.Box, from.Port}] = append(c.dests[portRef{from.Box, from.Port}], portRef{to.Box, to.Port})
	}
	for i, b := range d.Boxes {
		o, err := op.Build(b.Spec)
		if err != nil {
			return nil, err
		}
		schemas := make([]*stream.Schema, o.NumIn())
		for p := range schemas {
			if schemas[p] = in[portRef{b.ID, p}]; schemas[p] == nil {
				return nil, fmt.Errorf("box %s port %d has no input", b.ID, p)
			}
		}
		outs, err := o.Bind(schemas)
		if err != nil {
			return nil, err
		}
		for p, s := range outs {
			for _, dst := range c.dests[portRef{b.ID, p}] {
				in[dst] = s
			}
		}
		c.index[b.ID] = i
		c.ops = append(c.ops, o)
		c.pending = append(c.pending, make([][]stream.Tuple, o.NumIn()))
	}
	return c, nil
}

// run pushes one train through every box.
func (c *opChain) run(train []stream.Tuple) {
	for _, b := range c.d.Inputs {
		i := c.index[b]
		c.pending[i][0] = append(c.pending[i][0], train...)
	}
	for i, o := range c.ops {
		id := c.d.Boxes[i].ID
		emit := func(port int, t stream.Tuple) {
			for _, dst := range c.dests[portRef{id, port}] {
				j := c.index[dst.box]
				c.pending[j][dst.port] = append(c.pending[j][dst.port], t)
			}
		}
		for p, ts := range c.pending[i] {
			if len(ts) > 0 {
				op.ProcessAll(o, p, ts, emit)
				c.pending[i][p] = ts[:0]
			}
		}
	}
}

// measureLayers times every layer. inFrames are input frames the run sent
// and outFrames result frames it received; trainLen is the input frame
// length of the fixed-rate phase; dir is on the data directory's
// filesystem.
func measureLayers(w *workload, seed int64, inFrames, outFrames []transport.Msg, trainLen int, dir string, rec *trace.Recorder) (layerCosts, error) {
	lt := &layerTimer{rec: rec}
	var lc layerCosts
	const tuples = 8192
	trains := inputTrains(w, seed, tuples, trainLen)

	chain, err := newOpChain(w.net)
	if err != nil {
		return lc, fmt.Errorf("op chain: %w", err)
	}
	lc.kernel = lt.measure("op.ProcessTrain", tuples, func() {
		for _, t := range trains {
			chain.run(t)
		}
	})

	engineRound := func(cfg engine.Config) (func(), error) {
		net, err := w.net.build()
		if err != nil {
			return nil, err
		}
		e, err := engine.New(net, cfg)
		if err != nil {
			return nil, err
		}
		e.OnOutput(func(string, stream.Tuple) {})
		return func() {
			for _, t := range trains {
				for _, tp := range t {
					e.Ingest("in", tp)
				}
				e.Run()
			}
		}, nil
	}
	bare, err := engineRound(engine.Config{})
	if err != nil {
		return lc, fmt.Errorf("engine: %w", err)
	}
	planes, err := engineRound(engine.Config{
		Stats: stats.NewStore(int64(100*time.Millisecond), 8), StatsEvery: 64,
		SLO: &engine.SLOConfig{}, Journal: events.NewJournal("bench", 1024),
	})
	if err != nil {
		return lc, fmt.Errorf("engine: %w", err)
	}
	// Alternate the two configurations so drift in the host hits both.
	var off, on []cost
	for i := 0; i < 3; i++ {
		off = append(off, lt.measure("engine.Run", tuples, bare))
		on = append(on, lt.measure("engine.Run+planes", tuples, planes))
	}
	lc.run = cost{median(wallsOf(off)), median(cpusOf(off))}
	lc.planes = cost{median(wallsOf(on)) - lc.run.wall, median(cpusOf(on)) - lc.run.cpu}

	if len(outFrames) > 0 {
		var buf []byte
		lc.encode = lt.measure("transport.Encode", len(outFrames), func() {
			for _, m := range outFrames {
				buf = transport.Encode(buf[:0], m)
			}
		})
		plane := stats.NewPlane("bench", int64(100*time.Millisecond), 8, 0)
		for _, m := range outFrames {
			plane.Merge(m.Digests)
		}
		const calls = 1000
		lc.gossip = lt.measure("stats.Plane.Gossip", calls, func() {
			for i := 0; i < calls; i++ {
				_ = plane.Gossip()
			}
		})
	}
	if len(inFrames) > 0 {
		var wire [][]byte
		for _, m := range inFrames {
			wire = append(wire, transport.Encode(nil, m))
		}
		var m transport.Msg
		var derr error
		lc.decode = lt.measure("transport.DecodeInto", len(wire), func() {
			for _, b := range wire {
				if _, err := transport.DecodeInto(&m, b); err != nil {
					derr = err
				}
			}
		})
		if derr != nil {
			return lc, fmt.Errorf("decode captured frame: %w", derr)
		}
		// Renumber the captured batches from link sequence 1, so each
		// round's fresh receiver sees the contiguous stream a node does.
		var batches [][]stream.Tuple
		seq := uint64(1)
		for _, m := range inFrames {
			b := append([]stream.Tuple(nil), m.Tuples...)
			for i := range b {
				b[i].Seq = seq
				seq++
			}
			batches = append(batches, b)
		}
		lc.dedup = lt.measure("ha.LinkReceiver.OnBatch", len(batches), func() {
			r := ha.NewLinkReceiver(func(stream.Tuple) {}, func(uint64) {}, 32)
			for _, b := range batches {
				r.OnBatch(b)
			}
		})
	}

	if len(outFrames) > 0 {
		// The node's per-result send path short of the transport: stamp,
		// retain in the output log, hand one batch to the send function,
		// and truncate on the ack that follows every 32 results.
		const sends = 4096
		var seq uint64
		lc.send = lt.measure("ha.LinkSender.Send", sends, func() {
			ls := ha.NewLinkSender(func([]stream.Tuple) error { return nil })
			for i := 0; i < sends; i++ {
				ls.Send(outFrames[i%len(outFrames)].Tuples[0])
				if seq++; seq%32 == 0 {
					ls.Ack(ls.Log().Received() + 32)
				}
			}
		})
		wire, err := measureWire(lt, outFrames)
		if err != nil {
			return lc, err
		}
		lc.wire = wire
	}
	if lc.commit, lc.checkpoint, err = measureStorage(lt, dir); err != nil {
		return lc, err
	}
	return lc, nil
}

func wallsOf(cs []cost) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = c.wall
	}
	return out
}

func cpusOf(cs []cost) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = c.cpu
	}
	return out
}

// measureWire sends frames through a pair of transport.TCP endpoints in
// this process and waits for each round to arrive: encode, WFQ, write,
// read and decode over loopback, both ends. Its CPU clock is the whole
// process, since the two ends run on their own goroutines.
func measureWire(lt *layerTimer, frames []transport.Msg) (cost, error) {
	got := make(chan struct{}, len(frames))
	recv, err := transport.ListenTCP("wire-b", "127.0.0.1:0", func(string, transport.Msg) { got <- struct{}{} })
	if err != nil {
		return cost{}, err
	}
	defer recv.Close()
	send, err := transport.ListenTCP("wire-a", "127.0.0.1:0", nil)
	if err != nil {
		return cost{}, err
	}
	defer send.Close()
	if _, err := send.Dial(recv.Addr()); err != nil {
		return cost{}, err
	}
	var serr error
	c := lt.measureWith("transport.TCP loopback", len(frames), processCPU, func() {
		for _, m := range frames {
			if err := send.Send("wire-b", m); err != nil {
				serr = err
			}
		}
		for range frames {
			<-got
		}
	})
	return c, serr
}

// measureStorage times one output-log commit (Log.Append with the sync
// setting the node's output logs use) and one checkpoint save, in dir.
func measureStorage(lt *layerTimer, dir string) (commit, checkpoint cost, err error) {
	ldir := filepath.Join(dir, "commit-probe")
	defer os.RemoveAll(ldir)
	l, err := storage.OpenLog(ldir, storage.LogConfig{})
	if err != nil {
		return commit, checkpoint, err
	}
	defer l.Close()
	const appends = 32
	seq := uint64(0)
	var aerr error
	commit = lt.measure("storage.Log.Append", appends, func() {
		for i := 0; i < appends; i++ {
			seq++
			t := stream.Tuple{Seq: seq, TS: int64(seq), Vals: []stream.Value{stream.Int(1), stream.Int(2), stream.Int(int64(seq))}}
			if err := l.Append(transport.Msg{Kind: transport.KindData, BaseSeq: seq, Tuples: []stream.Tuple{t}}); err != nil {
				aerr = err
			}
		}
	})
	if aerr != nil {
		return commit, checkpoint, fmt.Errorf("log append: %w", aerr)
	}
	path := filepath.Join(dir, "checkpoint-probe.json")
	defer os.Remove(path)
	const saves = 16
	var serr error
	checkpoint = lt.measure("storage.SaveCheckpoint", saves, func() {
		for i := 0; i < saves; i++ {
			cp := storage.NodeCheckpoint{SavedAt: time.Now().UnixNano(), DedupRecv: map[string]uint64{"bench/in": uint64(i)}, PlaneSeq: uint64(i)}
			if err := storage.SaveCheckpoint(path, cp); err != nil {
				serr = err
			}
		}
	})
	if serr != nil {
		return commit, checkpoint, fmt.Errorf("checkpoint: %w", serr)
	}
	return commit, checkpoint, nil
}

// cpuShares reads a CPU profile with `go tool pprof -traces` and returns,
// per module, the share of sample time whose innermost repository frame
// lies in that module; stacks with no repository frame count as runtime.
func cpuShares(profile string) (map[string]float64, float64, error) {
	out, err := pprofTraces(profile)
	if err != nil {
		return nil, 0, err
	}
	byMod := map[string]float64{}
	total := 0.0
	for _, st := range parseTraces(out) {
		mod := "runtime"
		for _, fn := range st.frames {
			if m, ok := moduleOf(fn); ok {
				mod = m
				break
			}
		}
		byMod[mod] += st.seconds
		total += st.seconds
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("profile %s has no samples", profile)
	}
	for m := range byMod {
		byMod[m] /= total
	}
	return byMod, total, nil
}

// shareModules are the modules whose CPU share the ledger reports; any
// other repository package lands in "other".
var shareModules = []string{"engine", "op", "transport", "ha", "storage", "stats", "sketch", "events", "stream", "auroranode", "runtime", "other"}

// moduleOf maps a function name to its repository module: the package
// under internal/, or "auroranode" for the command's own code.
func moduleOf(fn string) (string, bool) {
	const prefix = "repro/internal/"
	if len(fn) > len(prefix) && fn[:len(prefix)] == prefix {
		rest := fn[len(prefix):]
		for i := 0; i < len(rest); i++ {
			if rest[i] == '.' || rest[i] == '/' {
				rest = rest[:i]
				break
			}
		}
		for _, m := range shareModules {
			if m == rest {
				return m, true
			}
		}
		return "other", true
	}
	if len(fn) > 5 && fn[:5] == "main." {
		return "auroranode", true
	}
	return "", false
}
