package main

import (
	"sort"
	"sync"

	"repro/internal/stream"
)

// This file is the benchmark's own model of what the node must output. It
// shares no code with the operators it checks: the filter, map and tumble
// below are written from the paper's definitions (§2.2, Fig 2), and the
// node's outputs are compared against them result by result.

// relayRef is the relay query: filter B < 95, then map B = 3B + A%7,
// keeping A and C.
func relayRef(a, b, c int64) (out []stream.Value, pass bool) {
	if b >= 95 {
		return nil, false
	}
	return []stream.Value{stream.Int(a), stream.Int(3*b + a%7), stream.Int(c)}, true
}

// refWindow is one closed tumble window.
type refWindow struct {
	Key     []stream.Value
	Vals    []stream.Value
	FirstOp int // op of the window's first tuple
}

// refTumble is a tumble over one stream: a window is a maximal run of
// consecutive tuples with equal group-by values; it closes, and its
// aggregate is emitted, when a tuple with different values arrives. The
// last window stays open.
type refTumble struct {
	agg  func([]stream.Value) stream.Value
	open bool
	cur  refWindow
}

// add feeds one tuple and returns the window it closed, if any.
func (t *refTumble) add(key []stream.Value, v stream.Value, op int) (refWindow, bool) {
	var closed refWindow
	did := false
	if t.open && !valuesEqual(t.cur.Key, key) {
		closed = refWindow{
			Key:     t.cur.Key,
			Vals:    append(append([]stream.Value(nil), t.cur.Key...), t.agg(t.cur.Vals)),
			FirstOp: t.cur.FirstOp,
		}
		t.open, did = false, true
	}
	if !t.open {
		t.open = true
		t.cur = refWindow{Key: append([]stream.Value(nil), key...), FirstOp: op}
	}
	t.cur.Vals = append(t.cur.Vals, v)
	return closed, did
}

func sumInts(vs []stream.Value) stream.Value {
	var s int64
	for _, v := range vs {
		s += v.AsInt()
	}
	return stream.Int(s)
}

func valuesEqual(a, b []stream.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// resultKey identifies one expected result: relay results by their C
// column, aggregate results by branch and the op of the window's first
// tuple.
type resultKey struct {
	Branch int64
	Op     int
}

// group is a run of consecutive ops whose outcome is decided together: a
// relay op with the non-passing ops before it, or one aggregate key run.
type group struct {
	lo, hi     int // ops [lo, hi)
	want       int // results the group must produce
	registered int // expected results registered so far
	got        int // correct first arrivals
	bad        bool
}

type expected struct {
	vals    []stream.Value
	group   int
	closeOp int // op whose arrival closed the result; its due time starts the latency clock
}

// checker holds the expected results of one node session and compares
// every result the sink receives against them: a result must arrive
// exactly once with exactly the expected values. The generator registers
// expectations while the sink observes arrivals, so it is locked.
type checker struct {
	mu         sync.Mutex
	exp        map[resultKey]*expected
	groups     []group
	complete   int // leading groups whose results have all arrived
	determined int // leading groups whose results are all registered
	stray      int // results matching no expectation and no group
}

func newChecker() *checker { return &checker{exp: map[resultKey]*expected{}} }

// addGroup opens a group starting at op lo that must produce want results.
func (c *checker) addGroup(lo, want int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.groups = append(c.groups, group{lo: lo, hi: lo, want: want})
	return len(c.groups) - 1
}

// closeGroup sets the end of group g's op range.
func (c *checker) closeGroup(g, hi int) {
	c.mu.Lock()
	c.groups[g].hi = hi
	c.mu.Unlock()
}

// expect registers one result of group g.
func (c *checker) expect(key resultKey, vals []stream.Value, g, closeOp int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.exp[key] = &expected{vals: vals, group: g, closeOp: closeOp}
	c.groups[g].registered++
}

// observe records one arrival. It returns the closing op of the matched
// expectation for latency accounting, and false for any arrival that is
// not a first, correct delivery. opHint locates the group an unexpected
// result belongs to (-1 when unknown).
func (c *checker) observe(key resultKey, vals []stream.Value, opHint int) (closeOp int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.exp[key]
	if e == nil {
		if g := c.groupOf(opHint); g >= 0 {
			c.groups[g].bad = true
		} else {
			c.stray++
		}
		return 0, false
	}
	// The entry is dropped once answered, so a second delivery of the
	// same result finds none and fails its group like any unexpected one.
	delete(c.exp, key)
	g := &c.groups[e.group]
	if !valuesEqual(e.vals, vals) {
		g.bad = true
		return 0, false
	}
	g.got++
	for c.complete < len(c.groups) {
		h := &c.groups[c.complete]
		if h.registered < h.want || h.got < h.want || h.hi == h.lo {
			break
		}
		c.complete++
	}
	return e.closeOp, true
}

// groupOf returns the group whose op range holds op, or -1.
func (c *checker) groupOf(op int) int {
	if op < 0 {
		return -1
	}
	i := sort.Search(len(c.groups), func(i int) bool { return c.groups[i].hi > op })
	if i < len(c.groups) && c.groups[i].lo <= op && op < c.groups[i].hi {
		return i
	}
	return -1
}

// completedOps returns how many leading ops have had every result arrive.
func (c *checker) completedOps() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.complete == 0 {
		return 0
	}
	return c.groups[c.complete-1].hi
}

// determinedOps returns how many leading ops belong to groups whose
// expected results are all known, i.e. whose windows the inputs sent so
// far have closed.
func (c *checker) determinedOps() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.determined < len(c.groups) {
		g := c.groups[c.determined]
		if g.registered < g.want || g.hi == g.lo {
			break
		}
		c.determined++
	}
	if c.determined == 0 {
		return 0
	}
	return c.groups[c.determined-1].hi
}

// verdict counts, over the groups that end at or before op limit, the ops
// attempted and the ops failed: a group fails when any of its results is
// missing, duplicated or altered, or when an unexpected result falls in
// its range. Unexpected results outside every group fail one op each.
func (c *checker) verdict(limit int) (attempted, failed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, g := range c.groups {
		if g.hi > limit || g.hi == g.lo {
			break
		}
		n := g.hi - g.lo
		attempted += n
		if g.bad || g.got != g.want || g.registered != g.want {
			failed += n
		}
	}
	return attempted + c.stray, failed + c.stray
}
