// Command perfbench is the repository's benchmark. It measures how fast the
// simulator produces the paper's answer and checks that the answer does not
// change. Run it from the repository root:
//
//	bash perfbench/run.sh --workload paper-fig8 --seed 1 --seconds 25 --trace 0
//
// One invocation runs one workload. The workload's inputs derive from
// --seed only, and every simulation run is one operation. The run first
// sets up, then runs one untimed reference batch and checks its outputs.
// Then it repeats the batch for --seconds and compares every repetition
// with the reference. The last line of standard output is one JSON object
// with keys correct, attempted, failed and metrics. A line before it
// stamps the host: CPU model, nproc, GOMAXPROCS, Go version, commit, a
// digest of the module's sources, and the seed.
//
// # Workloads
//
//   - paper-fig8: the paper's Figure 8 grid through figures.Fig8, the path
//     cmd/figures runs. That is 14 schedulers x closed queue lengths
//     20..140 on the replicated layout (vertical, NR=9, SP=1, PH 10, RH 40)
//     with the EXB-8505XL drive. The scheduler dominates here
//     (internal/core and internal/sched, plus layout.ReplicaOn). Repair,
//     farm and write code stay idle.
//   - repair-scrub: an open Poisson model (mean 600 s) on a 1000-block
//     all-hot library with NR=2 and envelope-max-bandwidth. Tape deaths,
//     bad blocks and latent errors are on, and so are repair, scrub and
//     evacuation. Background work dominates: the repair planner and
//     layout.FirstFree, not the scheduler. The fault stream is pinned to
//     seed 7 (scrubFaultSeed); six request seeds per batch vary with
//     --seed.
//   - farm-spread: tapejuke.RunFarm with 8 shards, spread placement, NR=1,
//     two open tenant classes, and a tape MTBF rare enough that the router
//     fails over without collapsing availability. It covers the
//     sequential farm.Split pre-pass, the parallel shard runs, and
//     open-loop arrivals offered mid-sweep through OnArrival.
//   - writes-2drive: one library with 2 drives, open Poisson reads, and
//     delta writes drained piggyback and idle under dynamic-max-bandwidth.
//     It is the only workload that runs the write-flush path and the
//     multi-drive kernel. The configuration rejects writes together with
//     faults or repair, so no other workload can cover it.
//
// figures.Options.Workers and FarmConfig.Workers are set to nproc.
// Everything else runs on one goroutine.
//
// # End-to-end metrics (--trace 0)
//
// Values named sim_* are in simulated time and depend only on the seed. A
// change that only affects speed must leave them bit-identical. The other
// values are host measurements. Host times are the CPU time of the whole
// process (every goroutine, the garbage collector included), rescaled to
// a nominal host speed by a run of fixed reference kernels right after
// each measured stretch (reference.go). On a shared host the wall time
// of the same work grows with the load of other processes and guests (it
// doubles with a busy loop on each CPU of a 2-CPU machine); CPU time
// leaves out the time spent waiting for a CPU, and the rescaling takes
// out most of the drift of the CPU's own speed. The price is that CPU
// time does not show how well the parallel workloads (paper-fig8,
// farm-spread) use their workers; the traced run's farm.speedup does, and
// each run prints its speed per wall second as a diagnostic line.
//
//   - sim_req_per_ref_cpu_s: post-warm-up completions of one batch, summed
//     over its runs or shards, divided by the median rescaled CPU time of
//     a pass of the timed phase. A pass runs the batch's timed units (the
//     figures.Fig8 call, each run, or the farm run) once.
//   - setup_s: the median rescaled CPU time of five set-ups. A set-up
//     resolves the configurations, builds every layout and cost table, and
//     warms a cold Runner by running every configuration of the batch at a
//     tenth of its horizon.
//   - rss_mb: the median over the passes of the process's resident memory
//     at the end of a pass. Not the peak: the peak resident memory of this
//     10-50 MB process moves by up to a third between runs of the same
//     seed, with when the garbage collector ran and when the runtime's
//     background scavenger returned free pages, while the median at a
//     fixed point of the pass holds within a few percent. The memory of
//     the reference kernels (reference.go) is left out.
//   - alloc_kb_per_req: heap bytes allocated in the timed phase per
//     simulated completion.
//   - sim_throughput_kbps: for the farm, the aggregate. Otherwise, the mean
//     over the batch's runs (for paper-fig8, over the figure's points).
//   - sim_p50_response_s, sim_p99_response_s: the completion-weighted
//     mean of the per-run (for the farm, per-shard) percentiles, which
//     come from each run's 4096-sample reservoir.
//   - sim_availability: completions / (completions + unserviceable),
//     pooled over the runs or shards.
//
// # Per-layer metrics (--trace 1)
//
// The traced run replays the batch on a sim.Session from sim.Configs built
// by hand (replay.go). It wraps the scheduler, the block source and the
// arrival process, and counts events with an Observer. A first, untimed
// traced pass replays every single-drive run's events through
// trace.Verify. Then plain and traced replays alternate for --seconds.
// Counts and times are per traced pass. Every replay must reproduce the
// reference batch bit for bit. The package tests check this at short
// horizons. repair, health, faults and stats are reached only from inside
// internal/sim, so their counts come from sim.Result. Their CPU shares,
// like every *.cpu_frac, come from a CPU profile of the traced passes. Each
// sample goes to its innermost frame in the simulator module
// (profile.go). The shares leave out the samples in the wrappers
// themselves.
//
// Each layer metric, and the end-to-end metric it should move on which
// workload:
//
//   - core.reschedule.{calls,self_s,p50_us,p99_us}, core.cpu_frac: the
//     envelope family's Reschedule. Should move sim_req_per_ref_cpu_s on
//     paper-fig8 (most) and farm-spread; no change predicted on
//     repair-scrub.
//   - sched.reschedule.{calls,self_s,p99_us}: the FIFO, static and
//     dynamic families' Reschedule. Should move sim_req_per_ref_cpu_s on
//     writes-2drive and on the static and dynamic series of paper-fig8.
//   - sched.on_arrival.{calls,self_s,accept_ratio}: OnArrival of every
//     scheduler; accept_ratio is inserted / offered. Should move
//     sim_req_per_ref_cpu_s on farm-spread and writes-2drive.
//   - sched.reqs_per_sweep: requests per Reschedule that returned a sweep,
//     over every scheduler. Should move sim_throughput_kbps on paper-fig8.
//   - sched.cost_table_build_s: CostModel.EnableTable, timed in set-up.
//     Should move setup_s on every workload.
//   - sched.cpu_frac: CPU share of internal/sched.
//   - workload.{calls,self_s}: Source.Next and Arrivals.Next. Small
//     everywhere; no change predicted unless the generator changes.
//   - layout.build_s: layout.Build, timed in set-up. Should move setup_s on
//     every workload. layout.cpu_frac should move sim_req_per_ref_cpu_s on
//     repair-scrub (FirstFree) and paper-fig8 (ReplicaOn).
//   - repair.{cpu_frac,jobs,copies_rebuilt}, health.{cpu_frac,scrub_mb},
//     faults.cpu_frac: should move sim_req_per_ref_cpu_s and alloc_kb_per_req
//     on repair-scrub only; zero elsewhere. A change that only affects
//     host time here must leave sim_availability on repair-scrub
//     unchanged.
//   - sim.run.self_s (Session.Run wall time minus the wrapped calls),
//     sim.events, sim.ns_per_event, sim.cpu_frac: should move
//     sim_req_per_ref_cpu_s on every workload. writes.flushed counts delta
//     blocks written; the write-flush arbitration shows on writes-2drive.
//   - stats.cpu_frac: should move sim_req_per_ref_cpu_s on paper-fig8, where
//     completions are many. Replacing the reservoir would also move
//     sim_p99_response_s.
//   - farm.speedup: RunFarm wall time at Workers=1 over Workers=nproc.
//     farm.imbalance: FarmResult.RequestImbalance. farm.failed_over:
//     FarmResult.FailedOver. farm.cpu_frac: the CPU share of the
//     sequential split. Together with farm.imbalance, farm.cpu_frac bounds
//     farm.speedup; the split's own CPU time also counts in
//     sim_req_per_ref_cpu_s on farm-spread. All are zero on the other
//     workloads.
//   - runtime.gc_cpu_frac: the garbage collector's share of the CPU time
//     used, from runtime/metrics. Should move sim_req_per_ref_cpu_s together
//     with alloc_kb_per_req, most on repair-scrub.
//   - trace.overhead_frac: traced replay wall time over plain replay wall
//     time, minus 1.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"tapejuke"
	"tapejuke/internal/sched"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-fig8, repair-scrub, farm-spread or writes-2drive")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs derive from")
		seconds = flag.Float64("seconds", 25, "length of the timed phase in seconds")
		traced  = flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics instead")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts operations and keeps the first error.
type tally struct {
	attempted, failed int
	err               error
}

func (t *tally) add(ops, failed int, err error) {
	t.attempted += ops
	t.failed += failed
	if err != nil && t.err == nil {
		t.err = err
	}
}

func run(name string, seed int64, seconds float64, traced bool) error {
	workers := runtime.NumCPU()
	s, err := newSpec(name, seed, 1, workers)
	if err != nil {
		return err
	}
	stamp, err := hostStamp(name, seed, traced)
	if err != nil {
		return err
	}
	fmt.Println("host", stamp)

	refMB, err := initReferences()
	if err != nil {
		return fmt.Errorf("reference kernels: %w", err)
	}
	st, err := setUp(name, seed, workers)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	var t tally
	ref, err := s.referenceBatch(st.runner)
	if err != nil {
		return fmt.Errorf("reference batch: %w", err)
	}
	failed, cerr := s.check(ref)
	t.add(s.ops(), failed, cerr)
	for _, line := range s.diagnostics(ref) {
		fmt.Println(line)
	}

	var m map[string]metric
	if traced {
		m, err = measureTraced(s, ref, st, seconds, workers, &t)
	} else {
		m, err = measure(s, ref, st, refMB, seconds, &t)
	}
	if err != nil {
		return err
	}
	if t.err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", t.err)
	}
	out, err := json.Marshal(report{Correct: t.err == nil && t.failed == 0,
		Attempted: t.attempted, Failed: t.failed, Metrics: m})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// setupResult is what set-up produces for the rest of the run.
type setupResult struct {
	cpu               float64 // median rescaled CPU seconds of a set-up
	layout, costTable float64 // median wall seconds over the set-ups
	runner            *tapejuke.Runner
}

// setUps is how many times set-up runs; its figures are the medians.
const setUps = 5

// setUp performs the work a run pays before its timed phase, setUps times:
// resolving the workload's configurations, building every distinct layout
// and cost table, and warming a cold tapejuke.Runner. It keeps the last
// Runner for the reference batch and the timed phase.
func setUp(name string, seed int64, workers int) (*setupResult, error) {
	var cpus, lays, costs []float64
	var rn *tapejuke.Runner
	for i := 0; i < setUps; i++ {
		c0 := processCPUSeconds()
		s, err := newSpec(name, seed, 1, workers)
		if err != nil {
			return nil, err
		}
		var layS, costS float64
		rp := newReplayer(nil)
		type tableKey struct {
			prof    string
			blockMB float64
			blocks  int
		}
		built := make(map[tableKey]bool)
		for _, c := range s.configs() {
			sc, err := rp.simConfig(c)
			if err != nil {
				return nil, err
			}
			layCfg, _, err := sc.LayoutConfig()
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			if _, err := rp.layout(layCfg); err != nil {
				return nil, err
			}
			layS += time.Since(t1).Seconds()
			key := tableKey{c.DriveProfile, sc.BlockMB, int(sc.TapeCapMB / sc.BlockMB)}
			if !built[key] {
				built[key] = true
				t1 = time.Now()
				cm := &sched.CostModel{Prof: sc.Profile, BlockMB: sc.BlockMB}
				cm.EnableTable(key.blocks)
				costS += time.Since(t1).Seconds()
			}
		}
		rn = tapejuke.NewRunner()
		if err := warmUp(s, rn); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		cpu := processCPUSeconds() - c0
		cpus = append(cpus, cpu*referenceRun())
		lays = append(lays, layS)
		costs = append(costs, costS)
	}
	return &setupResult{cpu: median(cpus), layout: median(lays), costTable: median(costs), runner: rn}, nil
}

// warmUp runs every configuration of the batch once on rn at a tenth of
// its horizon (the farm: one farm run), so every scheduler, layout and
// cost table the timed phase uses has been built.
func warmUp(s *spec, rn *tapejuke.Runner) error {
	if s.farm != nil {
		fc := *s.farm
		fc.Base.HorizonSec /= 10
		_, err := tapejuke.RunFarm(fc)
		return err
	}
	for _, c := range s.runs {
		c.HorizonSec /= 10
		if _, err := rn.Run(c); err != nil {
			return err
		}
	}
	return nil
}

// measure runs the timed phase and returns the end-to-end metrics. The
// simulator speed is the batch's completions over the median rescaled CPU
// time of a pass: each pass's CPU time is rescaled by the reference run
// that follows it (reference.go). The median keeps a disturbed pass from
// spoiling the figure. A diagnostic line prints the speed per plain wall
// and CPU second and the reference run's CPU time. refMB is the
// reference kernels' resident memory, which rss_mb leaves out.
func measure(s *spec, ref *outcome, st *setupResult, refMB, seconds float64, t *tally) (map[string]metric, error) {
	sm := s.summarize(ref)
	refPrint, err := ref.fingerprint()
	if err != nil {
		return nil, err
	}
	var cpus, rawCPUs, walls, rss, refs []float64
	allocs0 := heapAllocBytes()
	start := time.Now()
	for len(cpus) == 0 || time.Since(start).Seconds() < seconds {
		pt, failed, err := s.timedPass(st.runner, ref, refPrint)
		t.add(s.ops(), failed, err)
		r, err := residentMB()
		if err != nil {
			return nil, err
		}
		rss = append(rss, r)
		scale := referenceRun()
		cpus = append(cpus, pt.cpu*scale)
		rawCPUs = append(rawCPUs, pt.cpu)
		refs = append(refs, refNominalSeconds/scale)
		walls = append(walls, pt.wall)
	}
	passes := len(cpus)
	allocated := heapAllocBytes() - allocs0
	fmt.Printf("diag %s: %d passes, %.0f simulated requests per wall second, %.0f per CPU second; reference run %.1f ms of CPU\n",
		s.name, passes, float64(sm.completed)/median(walls), float64(sm.completed)/median(rawCPUs), median(refs)*1000)
	return map[string]metric{
		"sim_req_per_ref_cpu_s": {float64(sm.completed) / median(cpus), "req/s"},
		"setup_s":               {st.cpu, "s"},
		"rss_mb":                {median(rss) - refMB, "MB"},
		"alloc_kb_per_req":      {float64(allocated) / 1024 / float64(int64(passes)*sm.completed), "KB/req"},
		"sim_throughput_kbps":   {sm.throughput, "KB/s"},
		"sim_p50_response_s":    {sm.p50, "s"},
		"sim_p99_response_s":    {sm.p99, "s"},
		"sim_availability":      {sm.availability, "fraction"},
	}, nil
}

// measureTraced alternates plain and traced replays of the batch for
// seconds, checks that each reproduces the reference, and returns the
// per-layer metrics.
func measureTraced(s *spec, ref *outcome, st *setupResult, seconds float64, workers int, t *tally) (map[string]metric, error) {
	want, err := ref.replayPrint()
	if err != nil {
		return nil, err
	}
	compare := func(out *outcome, err error) {
		if err != nil {
			t.add(s.ops(), s.ops(), err)
			return
		}
		got, err := out.replayPrint()
		if err == nil && !bytes.Equal(got, want) {
			err = errors.New("replayed batch differs from the reference batch of the same seed")
		}
		failed := 0
		if err != nil {
			failed = s.ops()
		}
		t.add(s.ops(), failed, err)
	}

	// One untimed traced pass replays every single-drive run's events
	// through trace.Verify; the timed passes below do not record events.
	vt := newTracer()
	vt.verify = true
	out, _, err := newReplayer(vt).batch(s)
	compare(out, err)

	tr := newTracer()
	plain, tracedRp := newReplayer(nil), newReplayer(tr)
	var plainWalls, tracedWalls []float64
	samples := make(map[string]int64)
	var total int64
	var gcCPU, usedCPU float64
	start := time.Now()
	for len(tracedWalls) == 0 || time.Since(start).Seconds() < seconds {
		out, wall, err := plain.batch(s)
		compare(out, err)
		plainWalls = append(plainWalls, wall.Seconds())

		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		gc0, used0 := cpuSeconds()
		out, wall, err = tracedRp.batch(s)
		gc1, used1 := cpuSeconds()
		pprof.StopCPUProfile()
		compare(out, err)
		tracedWalls = append(tracedWalls, wall.Seconds())
		gcCPU += gc1 - gc0
		usedCPU += used1 - used0
		layers, n, err := layerSamples(prof.Bytes())
		if err != nil {
			return nil, err
		}
		for k, v := range layers {
			samples[k] += v
		}
		total += n
	}
	passes := float64(len(tracedWalls))
	// CPU shares leave out the samples in the benchmark's own wrappers:
	// they are the instrument's cost, not the program's.
	program := total - samples["bench"]
	frac := func(layer string) float64 {
		if program <= 0 {
			return 0
		}
		return float64(samples[layer]) / float64(program)
	}
	perPass := func(n int64) float64 { return float64(n) / passes }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	children := tr.core.total + tr.simple.total + tr.arrival.total + tr.work.total
	selfS := (tr.runWall - children).Seconds() / passes

	var speedup, imbalance, failedOver float64
	if s.farm != nil {
		if speedup, err = farmSpeedup(s, ref, workers, t); err != nil {
			return nil, err
		}
		imbalance, failedOver = ref.farm.RequestImbalance, float64(ref.farm.FailedOver)
	}
	fmt.Printf("diag %s: %d traced passes, %d operations verified against the timing model, CPU samples by layer %v\n",
		s.name, len(tracedWalls), vt.verified, samples)
	return map[string]metric{
		"core.reschedule.calls":         {perPass(tr.core.n), "count"},
		"core.reschedule.self_s":        {tr.core.total.Seconds() / passes, "s"},
		"core.reschedule.p50_us":        {tr.core.quantile(0.50), "us"},
		"core.reschedule.p99_us":        {tr.core.quantile(0.99), "us"},
		"core.cpu_frac":                 {frac("core"), "fraction"},
		"sched.reschedule.calls":        {perPass(tr.simple.n), "count"},
		"sched.reschedule.self_s":       {tr.simple.total.Seconds() / passes, "s"},
		"sched.reschedule.p99_us":       {tr.simple.quantile(0.99), "us"},
		"sched.reqs_per_sweep":          {ratio(float64(tr.swept), float64(tr.sweeps)), "req"},
		"sched.on_arrival.calls":        {perPass(tr.arrival.n), "count"},
		"sched.on_arrival.self_s":       {tr.arrival.total.Seconds() / passes, "s"},
		"sched.on_arrival.accept_ratio": {ratio(float64(tr.accepted), float64(tr.arrival.n)), "fraction"},
		"sched.cpu_frac":                {frac("sched"), "fraction"},
		"sched.cost_table_build_s":      {st.costTable, "s"},
		"workload.calls":                {perPass(tr.work.n), "count"},
		"workload.self_s":               {tr.work.total.Seconds() / passes, "s"},
		"layout.build_s":                {st.layout, "s"},
		"layout.cpu_frac":               {frac("layout"), "fraction"},
		"repair.cpu_frac":               {frac("repair"), "fraction"},
		"repair.jobs":                   {perPass(tr.repairJobs), "count"},
		"repair.copies_rebuilt":         {perPass(tr.rebuilt), "count"},
		"health.cpu_frac":               {frac("health"), "fraction"},
		"health.scrub_mb":               {tr.scrubMB / passes, "MB"},
		"faults.cpu_frac":               {frac("faults"), "fraction"},
		"sim.run.self_s":                {selfS, "s"},
		"sim.events":                    {perPass(tr.events), "count"},
		"sim.ns_per_event":              {ratio(selfS*1e9, perPass(tr.events)), "ns"},
		"sim.cpu_frac":                  {frac("sim"), "fraction"},
		"writes.flushed":                {perPass(tr.flushed), "count"},
		"stats.cpu_frac":                {frac("stats"), "fraction"},
		"farm.speedup":                  {speedup, "x"},
		"farm.imbalance":                {imbalance, "ratio"},
		"farm.cpu_frac":                 {frac("farm"), "fraction"},
		"farm.failed_over":              {failedOver, "count"},
		"runtime.gc_cpu_frac":           {ratio(gcCPU, usedCPU), "fraction"},
		"trace.overhead_frac":           {median(tracedWalls)/median(plainWalls) - 1, "fraction"},
	}, nil
}

// farmSpeedup times RunFarm at one worker and at workers, alternating,
// three times each, and returns the ratio of the median wall times. Each
// run must reproduce the reference.
func farmSpeedup(s *spec, ref *outcome, workers int, t *tally) (float64, error) {
	want, err := ref.fingerprint()
	if err != nil {
		return 0, err
	}
	var one, many []float64
	for i := 0; i < 3; i++ {
		for _, w := range []int{1, workers} {
			fc := *s.farm
			fc.Workers = w
			t0 := time.Now()
			fr, err := tapejuke.RunFarm(fc)
			d := time.Since(t0).Seconds()
			if err == nil {
				var got []byte
				if got, err = (&outcome{farm: fr}).fingerprint(); err == nil && !bytes.Equal(got, want) {
					err = fmt.Errorf("farm run with %d workers differs from the reference", w)
				}
			}
			failed := 0
			if err != nil {
				failed = 1
			}
			t.add(1, failed, err)
			if w == 1 {
				one = append(one, d)
			} else {
				many = append(many, d)
			}
		}
	}
	return median(one) / median(many), nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// heapAllocBytes returns the cumulative bytes allocated on the heap.
func heapAllocBytes() uint64 {
	m := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(m)
	return m[0].Value.Uint64()
}

// cpuSeconds returns the runtime's cumulative estimates of CPU time spent
// in garbage collection and of CPU time used (available minus idle).
func cpuSeconds() (gc, used float64) {
	m := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(m)
	return m[0].Value.Float64(), m[1].Value.Float64() - m[2].Value.Float64()
}

// processCPUSeconds returns the CPU time all of the process's threads have
// used. The kernel counts only the time a thread runs, so time spent
// waiting for a CPU, behind other processes or while the hypervisor runs
// another guest (steal), is left out.
func processCPUSeconds() float64 {
	const clockProcessCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", errno))
	}
	return float64(ts.Nano()) / 1e9
}

// residentMB returns the process's resident set size, VmRSS in
// /proc/self/status.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmRSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmRSS in /proc/self/status")
}

// hostStamp describes where and on what a result was measured.
func hostStamp(name string, seed int64, traced bool) (string, error) {
	digest, err := sourceDigest(".")
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(map[string]any{
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit("."),
		"source_sha256": digest,
		"workload":      name,
		"seed":          seed,
		"trace":         traced,
	})
	return string(b), err
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the checked-out commit of the repository at root, read
// from its .git directory, or from the build's VCS stamp, or "unknown"
// (a source tree outside git; the source digest still identifies it).
func commit(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		h := strings.TrimSpace(string(head))
		ref, isRef := strings.CutPrefix(h, "ref: ")
		if !isRef {
			return h
		}
		if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
			return strings.TrimSpace(string(b))
		}
		if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
					return hash
				}
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				return kv.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, skipping
// hidden directories such as the build output.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("source digest: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
