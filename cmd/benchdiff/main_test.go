package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: tapejuke/internal/sim
cpu: Intel(R) Xeon(R) Processor
BenchmarkScrubIdle-2   	       5	 207319373 ns/op	  973700 B/op	    3288 allocs/op
BenchmarkEnvelopeReschedule/q=140-2   139272   9219 ns/op   184 B/op   3 allocs/op
BenchmarkFiguresFullWall 1 123456 ns/op
PASS
`

func TestParseReadsResultsAndMachine(t *testing.T) {
	got, meta, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if meta.cpu != "Intel(R) Xeon(R) Processor" || meta.procs != 2 {
		t.Errorf("meta = %+v, want the cpu: line and GOMAXPROCS 2", meta)
	}
	r, ok := got["BenchmarkScrubIdle"]
	if !ok || r.Iterations != 5 || r.NsPerOp != 207319373 || r.AllocsOp != 3288 {
		t.Errorf("BenchmarkScrubIdle = %+v, %v", r, ok)
	}
	if _, ok := got["BenchmarkEnvelopeReschedule/q=140"]; !ok {
		t.Errorf("sub-benchmark missing: %v", got)
	}
	if r := got["BenchmarkFiguresFullWall"]; r.NsPerOp != 123456 {
		t.Errorf("suffix-less line = %+v", r)
	}

	// Without any -N suffix the benchmarks ran at GOMAXPROCS 1.
	_, meta, err = parse(strings.NewReader("BenchmarkX 10 5 ns/op\n"))
	if err != nil || meta.procs != 1 || meta.cpu != "" {
		t.Errorf("suffix-less output: meta %+v, err %v", meta, err)
	}
}

func TestSameMachine(t *testing.T) {
	a := &Host{CPU: "x", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: "a"}
	b := *a
	b.GoVersion, b.Commit = "go1.25.0", "b"
	if !sameMachine(a, &b) {
		t.Error("a different commit or Go version made the machine differ")
	}
	for _, mut := range []func(h *Host){
		func(h *Host) { h.CPU = "y" },
		func(h *Host) { h.NProc = 4 },
		func(h *Host) { h.GOMAXPROCS = 1 },
	} {
		c := *a
		mut(&c)
		if sameMachine(a, &c) {
			t.Errorf("%v and %v counted as one machine", a, &c)
		}
	}
	if sameMachine(nil, a) || sameMachine(a, nil) {
		t.Error("an unstamped entry counted as the same machine")
	}
}
