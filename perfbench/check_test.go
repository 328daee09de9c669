package main

import (
	"testing"

	"repro/internal/stream"
)

func ints(vs ...int64) []stream.Value {
	out := make([]stream.Value, len(vs))
	for i, v := range vs {
		out[i] = stream.Int(v)
	}
	return out
}

func avgFloats(vs []stream.Value) stream.Value {
	var s float64
	for _, v := range vs {
		s += v.AsFloat()
	}
	return stream.Float(s / float64(len(vs)))
}

func TestRelayRef(t *testing.T) {
	out, ok := relayRef(10, 94, 7)
	if !ok || !valuesEqual(out, ints(10, 3*94+10%7, 7)) {
		t.Fatalf("relayRef(10, 94, 7) = %v, %v", out, ok)
	}
	if _, ok := relayRef(10, 95, 7); ok {
		t.Fatal("B = 95 must not pass B < 95")
	}
}

// TestRefTumbleFig2 is the paper's Fig 2 example: avg(B) grouped by A over
// seven tuples closes (A=1, 2.5) on tuple 3 and (A=2, 3.0) on tuple 6,
// and leaves the A=4 window open.
func TestRefTumbleFig2(t *testing.T) {
	rows := [][2]int64{{1, 2}, {1, 3}, {2, 2}, {2, 1}, {2, 6}, {4, 5}, {4, 2}}
	tb := refTumble{agg: avgFloats}
	var got []refWindow
	closedAt := map[int]int{}
	for i, r := range rows {
		if w, ok := tb.add(ints(r[0]), stream.Float(float64(r[1])), i); ok {
			closedAt[len(got)] = i
			got = append(got, w)
		}
	}
	want := [][]stream.Value{
		{stream.Int(1), stream.Float(2.5)},
		{stream.Int(2), stream.Float(3.0)},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d windows, want %d", len(got), len(want))
	}
	for i := range want {
		if !valuesEqual(got[i].Vals, want[i]) {
			t.Errorf("window %d = %v, want %v", i, got[i].Vals, want[i])
		}
	}
	if closedAt[0] != 2 || closedAt[1] != 5 {
		t.Errorf("windows closed at tuples %d and %d, want 2 and 5 (0-based)", closedAt[0], closedAt[1])
	}
	if got[1].FirstOp != 2 {
		t.Errorf("second window starts at op %d, want 2", got[1].FirstOp)
	}
	if !tb.open || !valuesEqual(tb.cur.Key, ints(4)) {
		t.Errorf("the A=4 window must stay open, have open=%v key=%v", tb.open, tb.cur.Key)
	}
}

// TestAggGenWindows checks the agg generator's expectations against a
// direct computation: every run is one window per branch, summing
// B*(k+1) over the run's tuples with C%4 == k.
func TestAggGenWindows(t *testing.T) {
	c := newChecker()
	g := newAggGen(7, c)
	var in [][]stream.Value
	for op := 0; op < 2000; op++ {
		in = append(in, g.next(op))
	}
	// Recompute the windows by splitting the input into key runs.
	type win struct {
		k     int64
		first int
		sum   int64
		a     int64
	}
	var wins []win
	start := 0
	for op := 1; op <= len(in); op++ {
		if op < len(in) && in[op][0].AsInt() == in[start][0].AsInt() {
			continue
		}
		if op == len(in) {
			break // the last run is still open
		}
		for k := int64(0); k < aggBranches; k++ {
			w := win{k: k, first: -1, a: in[start][0].AsInt()}
			for j := start; j < op; j++ {
				if int64(j)%aggBranches == k {
					if w.first < 0 {
						w.first = j
					}
					w.sum += in[j][1].AsInt() * (k + 1)
				}
			}
			wins = append(wins, w)
		}
		start = op
	}
	if len(wins) == 0 {
		t.Fatal("no closed windows")
	}
	for _, w := range wins {
		e := c.exp[resultKey{Branch: w.k, Op: w.first}]
		if e == nil {
			t.Fatalf("no expectation for branch %d window at op %d", w.k, w.first)
		}
		if !valuesEqual(e.vals, ints(w.a, w.k, w.sum)) {
			t.Fatalf("branch %d window at op %d: expected %v, direct sum %v", w.k, w.first, e.vals, ints(w.a, w.k, w.sum))
		}
	}
	if len(c.exp) != len(wins) {
		t.Fatalf("%d expectations, %d windows closed", len(c.exp), len(wins))
	}
}

// relayChecker registers three relay ops: op 0 passes, op 1 does not,
// op 2 passes; the groups are {0} and {1, 2}.
func relayChecker() *checker {
	c := newChecker()
	g0 := c.addGroup(0, 1)
	c.closeGroup(g0, 1)
	c.expect(resultKey{Op: 0}, ints(1, 2, 0), g0, 0)
	g1 := c.addGroup(1, 1)
	c.closeGroup(g1, 3)
	c.expect(resultKey{Op: 2}, ints(5, 6, 2), g1, 2)
	return c
}

func TestCheckerExactlyOnce(t *testing.T) {
	cases := []struct {
		name      string
		deliver   func(c *checker)
		attempted int
		failed    int
	}{
		{"all delivered", func(c *checker) {
			c.observe(resultKey{Op: 0}, ints(1, 2, 0), 0)
			c.observe(resultKey{Op: 2}, ints(5, 6, 2), 2)
		}, 3, 0},
		{"dropped", func(c *checker) {
			c.observe(resultKey{Op: 0}, ints(1, 2, 0), 0)
		}, 3, 2},
		{"duplicated", func(c *checker) {
			c.observe(resultKey{Op: 0}, ints(1, 2, 0), 0)
			c.observe(resultKey{Op: 2}, ints(5, 6, 2), 2)
			c.observe(resultKey{Op: 2}, ints(5, 6, 2), 2)
		}, 3, 2},
		{"altered", func(c *checker) {
			c.observe(resultKey{Op: 0}, ints(1, 3, 0), 0)
			c.observe(resultKey{Op: 2}, ints(5, 6, 2), 2)
		}, 3, 1},
		{"unexpected for a filtered op", func(c *checker) {
			c.observe(resultKey{Op: 0}, ints(1, 2, 0), 0)
			c.observe(resultKey{Op: 2}, ints(5, 6, 2), 2)
			c.observe(resultKey{Op: 1}, ints(9, 9, 1), 1)
		}, 3, 2},
		{"stray outside every group", func(c *checker) {
			c.observe(resultKey{Op: 0}, ints(1, 2, 0), 0)
			c.observe(resultKey{Op: 2}, ints(5, 6, 2), 2)
			c.observe(resultKey{Op: 99}, ints(9, 9, 99), 99)
		}, 4, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := relayChecker()
			tc.deliver(c)
			attempted, failed := c.verdict(c.determinedOps())
			if failed != tc.failed {
				t.Errorf("failed = %d, want %d", failed, tc.failed)
			}
			if attempted != tc.attempted {
				t.Errorf("attempted = %d, want %d", attempted, tc.attempted)
			}
		})
	}
}

// TestJudge checks the run-level verdict. A duplicated result does not
// hold up completion, so the drain finishes, but it fails its ops and
// with them the run.
func TestJudge(t *testing.T) {
	cases := []struct {
		name                     string
		deliver                  func(c *checker)
		holes, replayed, preload int
		correct                  bool
	}{
		{"clean", func(c *checker) {
			c.observe(resultKey{Op: 0}, ints(1, 2, 0), 0)
			c.observe(resultKey{Op: 2}, ints(5, 6, 2), 2)
		}, 0, 0, 0, true},
		{"duplicated", func(c *checker) {
			c.observe(resultKey{Op: 0}, ints(1, 2, 0), 0)
			c.observe(resultKey{Op: 2}, ints(5, 6, 2), 2)
			c.observe(resultKey{Op: 2}, ints(5, 6, 2), 2)
		}, 0, 0, 0, false},
		{"unexpected for a filtered op", func(c *checker) {
			c.observe(resultKey{Op: 0}, ints(1, 2, 0), 0)
			c.observe(resultKey{Op: 1}, ints(9, 9, 1), 1)
			c.observe(resultKey{Op: 2}, ints(5, 6, 2), 2)
		}, 0, 0, 0, false},
		{"holes", func(c *checker) {
			c.observe(resultKey{Op: 0}, ints(1, 2, 0), 0)
			c.observe(resultKey{Op: 2}, ints(5, 6, 2), 2)
		}, 1, 0, 0, false},
		{"preload short", func(c *checker) {
			c.observe(resultKey{Op: 0}, ints(1, 2, 0), 0)
			c.observe(resultKey{Op: 2}, ints(5, 6, 2), 2)
		}, 0, 1, 2, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := relayChecker()
			tc.deliver(c)
			if n := c.completedOps(); n != 3 {
				t.Fatalf("completed = %d, want 3: the drain would not finish", n)
			}
			var res result
			res.Attempted, res.Failed = c.verdict(c.completedOps())
			err := judge(&res, tc.holes, tc.replayed, tc.preload)
			if res.Correct != tc.correct || (err == nil) != tc.correct {
				t.Errorf("correct = %v, err = %v; want correct = %v", res.Correct, err, tc.correct)
			}
		})
	}
}

func TestCheckerCompletion(t *testing.T) {
	c := relayChecker()
	if n := c.completedOps(); n != 0 {
		t.Fatalf("completed before any arrival: %d", n)
	}
	// Out of order: op 2's result first leaves group 0 open.
	c.observe(resultKey{Op: 2}, ints(5, 6, 2), 2)
	if n := c.completedOps(); n != 0 {
		t.Fatalf("completed = %d with group 0 missing", n)
	}
	c.observe(resultKey{Op: 0}, ints(1, 2, 0), 0)
	if n := c.completedOps(); n != 3 {
		t.Fatalf("completed = %d, want 3", n)
	}
}
