package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/op"
	"repro/internal/query"
	"repro/internal/stream"
)

// netBox, netArc and netDesc describe a query network once; the same
// description becomes the node's -network JSON file and, for the per-layer
// measurements, an in-process query.Network.
type netBox struct {
	ID   string
	Spec op.Spec
}

type netDesc struct {
	Name   string
	Boxes  []netBox
	Arcs   [][2]string // "box:port" pairs
	Inputs []string    // boxes whose port 0 the input "in" feeds
	Output string      // box whose port 0 is the output "out"
}

var inputSchema = stream.MustSchema("in",
	stream.Field{Name: "A", Kind: stream.KindInt},
	stream.Field{Name: "B", Kind: stream.KindInt},
	stream.Field{Name: "C", Kind: stream.KindInt},
)

// nodeJSON renders the description in cmd/auroranode's -network format.
func (d netDesc) nodeJSON() ([]byte, error) {
	type kv = map[string]any
	var boxes, arcs, inputs []kv
	for _, b := range d.Boxes {
		boxes = append(boxes, kv{"id": b.ID, "kind": b.Spec.Kind, "params": b.Spec.Params})
	}
	for _, a := range d.Arcs {
		arcs = append(arcs, kv{"from": a[0], "to": a[1]})
	}
	var schema []kv
	for _, f := range inputSchema.Fields() {
		schema = append(schema, kv{"name": f.Name, "kind": "int"})
	}
	for _, b := range d.Inputs {
		inputs = append(inputs, kv{"name": "in", "schema": schema, "box": b, "port": 0})
	}
	return json.MarshalIndent(kv{
		"name": d.Name, "boxes": boxes, "arcs": arcs, "inputs": inputs,
		"outputs": []kv{{"name": "out", "box": d.Output, "port": 0}},
	}, "", "  ")
}

// build returns the description as an in-process network.
func (d netDesc) build() (*query.Network, error) {
	b := query.NewBuilder(d.Name)
	for _, box := range d.Boxes {
		b.AddBox(box.ID, box.Spec)
	}
	for _, a := range d.Arcs {
		b.ConnectPorts(parseArcPort(a[0]), parseArcPort(a[1]), false)
	}
	for _, in := range d.Inputs {
		b.BindInput("in", inputSchema, in, 0)
	}
	b.BindOutput("out", d.Output, 0, nil)
	return b.Build()
}

func parseArcPort(s string) query.Port {
	box, port, _ := strings.Cut(s, ":")
	var p int
	fmt.Sscanf(port, "%d", &p)
	return query.Port{Box: box, Port: p}
}

// generator produces the input stream of one session, op by op, and
// registers with the checker every result the ops sent so far determine.
type generator interface {
	next(op int) []stream.Value
}

// workload is one benchmark traffic mix.
type workload struct {
	name    string
	net     netDesc
	durable bool    // run the node with -data-dir over a preloaded output log
	preload int     // ops whose outputs the previous incarnation left unacknowledged
	rate    float64 // fixed-rate phase, input tuples per second
	window  int     // closed-loop bound on outstanding input tuples
	newGen  func(seed int64, c *checker) generator
}

var relayNet = netDesc{
	Name: "relay",
	Boxes: []netBox{
		{"f", op.Spec{Kind: op.KindFilter, Params: map[string]string{"predicate": "B < 95"}}},
		{"m", op.Spec{Kind: op.KindMap, Params: map[string]string{"exprs": "A=A; B=3*B + A%7; C=C"}}},
	},
	Arcs:   [][2]string{{"f:0", "m:0"}},
	Inputs: []string{"f"},
	Output: "m",
}

// aggBranches is the number of filter→map→tumble branches of agg.
const aggBranches = 4

func aggNet() netDesc {
	d := netDesc{Name: "agg", Output: "u"}
	for k := 0; k < aggBranches; k++ {
		f, m, t := fmt.Sprintf("f%d", k), fmt.Sprintf("m%d", k), fmt.Sprintf("t%d", k)
		d.Boxes = append(d.Boxes,
			netBox{f, op.Spec{Kind: op.KindFilter, Params: map[string]string{"predicate": fmt.Sprintf("C %% %d == %d", aggBranches, k)}}},
			netBox{m, op.Spec{Kind: op.KindMap, Params: map[string]string{"exprs": fmt.Sprintf("A=A; K=%d; V=B*%d", k, k+1)}}},
			netBox{t, op.Spec{Kind: op.KindTumble, Params: map[string]string{"agg": "sum", "on": "V", "groupby": "A,K"}}},
		)
		d.Arcs = append(d.Arcs, [2]string{f + ":0", m + ":0"}, [2]string{m + ":0", t + ":0"},
			[2]string{t + ":0", fmt.Sprintf("u:%d", k)})
		d.Inputs = append(d.Inputs, f)
	}
	d.Boxes = append(d.Boxes, netBox{"u", op.Spec{Kind: op.KindUnion, Params: map[string]string{"inputs": fmt.Sprint(aggBranches)}}})
	return d
}

// The fixed rates leave the node unsaturated on the reference host: 12% and
// 16% of closed-loop capacity on relay and agg, about 27% of relay-durable's
// disk-bound capacity (README). The fixed-rate phase then measures the
// cost of the work, not queueing behind a backlog. The closed-loop windows
// are wide enough to keep the node busy.
var workloads = []*workload{
	{
		name:   "relay",
		net:    relayNet,
		rate:   12000,
		window: 16384,
		newGen: newRelayGen,
	},
	{
		name:    "relay-durable",
		net:     relayNet,
		durable: true,
		preload: 4096,
		rate:    2000,
		window:  2048,
		newGen:  newRelayGen,
	},
	{
		name:   "agg",
		net:    aggNet(),
		rate:   40000,
		window: 32768,
		newGen: newAggGen,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// relayGen draws A uniform in [0,1000) and B uniform in [0,100), so the
// filter passes 95% of tuples; C is the op number, the tuple's identity.
type relayGen struct {
	rng *rand.Rand
	c   *checker
	lo  int // first op not yet in a group
}

func newRelayGen(seed int64, c *checker) generator {
	return &relayGen{rng: rand.New(rand.NewSource(seed)), c: c}
}

func (g *relayGen) next(op int) []stream.Value {
	a, b := int64(g.rng.Intn(1000)), int64(g.rng.Intn(100))
	if out, ok := relayRef(a, b, int64(op)); ok {
		gi := g.c.addGroup(g.lo, 1)
		g.c.closeGroup(gi, op+1)
		g.c.expect(resultKey{Op: op}, out, gi, op)
		g.lo = op + 1
	}
	return []stream.Value{stream.Int(a), stream.Int(b), stream.Int(int64(op))}
}

// aggGen models sensor readings: key A (one of 32 sensors) arrives in
// runs of 48 to 80 consecutive readings, and consecutive runs never share
// a key, so each run is one tumble window per branch. B is the reading,
// uniform in [0,1000); C is the op number, so branch k sees the tuples
// with C%4 == k, at least 12 of each run.
type aggGen struct {
	rng     *rand.Rand
	c       *checker
	runLeft int
	curA    int64
	run     int // checker group of the current run; -1 before the first
	tumbles [aggBranches]refTumble
}

func newAggGen(seed int64, c *checker) generator {
	g := &aggGen{rng: rand.New(rand.NewSource(seed)), c: c, run: -1, curA: -1}
	for k := range g.tumbles {
		g.tumbles[k].agg = sumInts
	}
	return g
}

func (g *aggGen) next(op int) []stream.Value {
	if g.runLeft == 0 {
		a := int64(g.rng.Intn(32))
		for a == g.curA {
			a = int64(g.rng.Intn(32))
		}
		if g.run >= 0 {
			g.c.closeGroup(g.run, op)
		}
		g.run = g.c.addGroup(op, aggBranches)
		g.curA, g.runLeft = a, 48+g.rng.Intn(33)
	}
	g.runLeft--
	b := int64(g.rng.Intn(1000))
	k := int64(op % aggBranches)
	key := []stream.Value{stream.Int(g.curA), stream.Int(k)}
	if w, ok := g.tumbles[k].add(key, stream.Int(b*(k+1)), op); ok {
		// A window closes on the first tuple of the next run that its
		// branch sees, so it belongs to the previous run's group.
		g.c.expect(resultKey{Branch: k, Op: w.FirstOp}, w.Vals, g.run-1, op)
	}
	return []stream.Value{stream.Int(g.curA), stream.Int(b), stream.Int(int64(op))}
}
