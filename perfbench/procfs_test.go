package main

import "testing"

func TestParseStatCPU(t *testing.T) {
	// The command field may hold spaces and parentheses; fields are
	// counted from the last ')'. utime 150 and stime 50 ticks = 2 s.
	stat := "4242 (auro (ra) node) S 1 4242 4242 0 -1 4194560 1207 0 0 0 150 50 0 0 20 0 7 0 123456 1234567 890 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0"
	ns, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if ns != 2e9 {
		t.Fatalf("cpu = %d ns, want 2e9", ns)
	}
	if _, err := parseStatCPU("4242 (x) S 1 2"); err == nil {
		t.Fatal("short stat must fail")
	}
	if _, err := parseStatCPU("no command field"); err == nil {
		t.Fatal("stat without a command field must fail")
	}
}

func TestParseStatus(t *testing.T) {
	status := "Name:\tauroranode\nVmPeak:\t 1262948 kB\nVmHWM:\t   15764 kB\nVmRSS:\t   15000 kB\nThreads:\t7\n" +
		"Cpus_allowed_list:\t1\nvoluntary_ctxt_switches:\t1234\nnonvoluntary_ctxt_switches:\t56\n"
	m := parseKeyed(status)
	for k, want := range map[string]int64{"VmHWM": 15764, "VmRSS": 15000, "voluntary_ctxt_switches": 1234, "Threads": 7} {
		if m[k] != want {
			t.Errorf("%s = %d, want %d", k, m[k], want)
		}
	}
	if _, ok := m["Name"]; ok {
		t.Error("a non-numeric field must be skipped")
	}
}

func TestParseIO(t *testing.T) {
	io := "rchar: 123\nwchar: 4567\nsyscr: 8\nsyscw: 9\nread_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n"
	m := parseKeyed(io)
	for k, want := range map[string]int64{"rchar": 123, "wchar": 4567, "syscr": 8, "syscw": 9, "write_bytes": 4096} {
		if m[k] != want {
			t.Errorf("%s = %d, want %d", k, m[k], want)
		}
	}
}

func TestParseSchedstat(t *testing.T) {
	ns, err := parseSchedstat("123456789 2000 17\n")
	if err != nil || ns != 123456789 {
		t.Fatalf("parseSchedstat = %d, %v", ns, err)
	}
	if _, err := parseSchedstat(""); err == nil {
		t.Fatal("empty schedstat must fail")
	}
}

// TestParseTraces reads the layout `go tool pprof -traces` prints.
func TestParseTraces(t *testing.T) {
	out := `File: auroranode
Type: cpu
Duration: 4s, Total samples = 60ms ( 1.50%)
-----------+-------------------------------------------------------
      30ms   syscall.Syscall6
             internal/poll.(*FD).Write
             repro/internal/transport.(*Conn).writeLoop
-----------+-------------------------------------------------------
      20ms   runtime.futex
             runtime.notesleep
-----------+-------------------------------------------------------
      10ms   repro/internal/op.(*Filter).ProcessTrain
             repro/internal/engine.(*Engine).Step
             main.main.func3
-----------+-------------------------------------------------------
`
	st := parseTraces(out)
	if len(st) != 3 {
		t.Fatalf("parsed %d stacks, want 3", len(st))
	}
	if st[0].seconds != 0.03 || len(st[0].frames) != 3 {
		t.Fatalf("stack 0 = %+v", st[0])
	}
	mods := map[string]float64{}
	for _, s := range st {
		mod := "runtime"
		for _, fn := range s.frames {
			if m, ok := moduleOf(fn); ok {
				mod = m
				break
			}
		}
		mods[mod] += s.seconds
	}
	if mods["transport"] != 0.03 || mods["runtime"] != 0.02 || mods["op"] != 0.01 {
		t.Fatalf("module times = %v", mods)
	}
	if m, _ := moduleOf("main.main.func3"); m != "auroranode" {
		t.Fatalf("main package maps to %q", m)
	}
}
