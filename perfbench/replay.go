package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"tapejuke"
	"tapejuke/internal/core"
	"tapejuke/internal/farm"
	"tapejuke/internal/faults"
	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
	"tapejuke/internal/sim"
	"tapejuke/internal/tapemodel"
	"tapejuke/internal/trace"
	"tapejuke/internal/workload"
)

// replayer re-runs a workload's batch on one sim.Session from sim.Configs
// built here, by hand, from the workload's public configurations. With a
// tracer it hands the kernel wrapped schedulers, block sources and arrival
// processes plus an event observer, which is how the traced run times
// calls into each layer from outside the program. Without one it runs the
// same configurations unwrapped, the baseline of trace.overhead_frac.
// Both must reproduce the public API's results bit for bit; the tests and
// the traced run check that.
type replayer struct {
	sess   *sim.Session
	profs  map[string]tapemodel.Positioner
	scheds map[tapejuke.Algorithm]sched.Scheduler
	lays   map[layout.Config]*layout.Layout
	tr     *tracer // nil for the plain replay
}

func newReplayer(tr *tracer) *replayer {
	return &replayer{
		sess:   sim.NewSession(),
		profs:  make(map[string]tapemodel.Positioner),
		scheds: make(map[tapejuke.Algorithm]sched.Scheduler),
		lays:   make(map[layout.Config]*layout.Layout),
		tr:     tr,
	}
}

// batch replays one batch of s. For the farm, the outcome's FarmResult
// carries only Shards, Routed and FailedOver (see outcome.replayPrint).
// wall is the summed wall time of the simulations (Session.Run calls) and,
// for the farm, its routing pre-pass.
func (rp *replayer) batch(s *spec) (out *outcome, wall time.Duration, err error) {
	out = &outcome{}
	if s.farm != nil {
		t0 := time.Now()
		plan, err := rp.planFarm(*s.farm)
		wall += time.Since(t0)
		if err != nil {
			return nil, 0, fmt.Errorf("farm plan: %w", err)
		}
		out.farm = &tapejuke.FarmResult{Routed: plan.routed, FailedOver: plan.failedOver}
		for i, c := range plan.shards {
			tr := &plan.traces[i]
			r, d, err := rp.run(s.name, c, workload.NewTraceArrivals(tr.Times),
				workload.NewTraceSource(tr.Blocks, c.Seed))
			if err != nil {
				return nil, 0, fmt.Errorf("shard %d: %w", i, err)
			}
			wall += d
			out.farm.Shards = append(out.farm.Shards, r)
		}
		return out, wall, nil
	}
	for i, c := range s.runs {
		r, d, err := rp.run(s.name, c, nil, nil)
		if err != nil {
			return nil, 0, fmt.Errorf("run %d: %w", i, err)
		}
		wall += d
		out.runs = append(out.runs, r)
	}
	return out, wall, nil
}

// run simulates one library configuration. arr and src, when non-nil,
// replace the arrival process and block source the configuration implies
// (the farm's routed trace); otherwise they are built here the way the
// engine would build them.
func (rp *replayer) run(name string, c tapejuke.Config, arr workload.Arrivals, src workload.Source) (*tapejuke.Result, time.Duration, error) {
	sc, err := rp.simConfig(c)
	if err != nil {
		return nil, 0, err
	}
	layCfg, capBlocks, err := sc.LayoutConfig()
	if err != nil {
		return nil, 0, err
	}
	if src == nil {
		lay, err := rp.layout(layCfg)
		if err != nil {
			return nil, 0, err
		}
		g, err := workload.NewGenerator(lay, sc.ReadHotPercent, sc.Seed)
		if err != nil {
			return nil, 0, err
		}
		src = g
	}
	if arr == nil {
		if sc.QueueLength > 0 {
			arr = workload.ClosedArrivals{QueueLength: sc.QueueLength}
		} else if arr, err = workload.NewPoissonArrivals(sc.MeanInterarrival, sc.Seed+1); err != nil {
			return nil, 0, err
		}
	}
	if sc.Scheduler, err = rp.scheduler(c.Algorithm, c.Drives); err != nil {
		return nil, 0, err
	}
	if c.Drives > 1 {
		alg := c.Algorithm
		sc.SchedulerFactory = func() sched.Scheduler {
			s, _ := rp.newScheduler(alg) // the algorithm resolved above
			return s
		}
	}
	sc.Source, sc.Arrivals = src, arr
	verify := false
	if t := rp.tr; t != nil {
		sc.Source = tracedSource{src, t}
		sc.Arrivals = tracedArrivals{arr, t}
		sc.Observer = t
		verify = t.verify && sc.Drives <= 1 && (name == paperFig8 || name == repairScrub)
		t.recs = t.recs[:0]
		t.record = verify
	}
	t0 := time.Now()
	res, err := rp.sess.Run(sc)
	wall := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	if t := rp.tr; t != nil {
		t.runWall += wall
		t.flushed += res.WritesFlushed
		t.repairJobs += res.RepairJobs
		t.rebuilt += res.RepairedCopies
		t.scrubMB += res.ScrubbedMB
		if verify {
			rep, err := trace.Verify(t.recs, sc.Profile, sc.BlockMB, sc.Tapes, capBlocks, 1e-6)
			if err != nil {
				return nil, 0, fmt.Errorf("trace verification: %w", err)
			}
			if !rep.OK() {
				return nil, 0, fmt.Errorf("trace verification: %d of %d operations disagree with the timing model; first: %s",
					rep.Mismatches, rep.Operations, rep.First)
			}
			t.verified += int64(rep.Operations)
		}
	}
	return res, wall, nil
}

// simConfig translates the public configuration of a benchmark workload
// into the kernel's. It covers the fields the four workloads set; a field
// it misses makes the replay drift from the public API, which the
// non-perturbation tests catch.
func (rp *replayer) simConfig(c tapejuke.Config) (sim.Config, error) {
	prof, ok := rp.profs[c.DriveProfile]
	if !ok {
		// One Positioner instance per profile, as tapejuke.Runner pins: the
		// session caches its cost table by profile identity.
		if prof = tapemodel.PositionerByName(c.DriveProfile); prof == nil {
			return sim.Config{}, fmt.Errorf("unknown drive profile %q", c.DriveProfile)
		}
		rp.profs[c.DriveProfile] = prof
	}
	kind := layout.Horizontal
	if c.Placement == tapejuke.Vertical {
		kind = layout.Vertical
	}
	sc := sim.Config{
		Profile: prof, BlockMB: c.BlockMB, TapeCapMB: c.TapeCapMB, Tapes: c.Tapes,
		HotPercent: c.HotPercent, Replicas: c.Replicas, Kind: kind, StartPos: c.StartPos,
		DataBlocks: int(c.DataMB / c.BlockMB), ReadHotPercent: c.ReadHotPercent,
		QueueLength: c.QueueLength, MeanInterarrival: c.MeanInterarrivalSec,
		Drives: c.Drives, Horizon: c.HorizonSec, WarmupFrac: c.WarmupFrac, Seed: c.Seed,
		Faults: faultConfig(c.Faults), Repair: c.Repair, Health: c.Health,
	}
	if w := c.Writes; w.MeanInterarrivalSec > 0 {
		sc.WriteMeanInterarrival = w.MeanInterarrivalSec
		sc.WriteReserveMB = w.ReserveMB
		sc.WriteFlushThreshold = w.FlushThreshold
		switch w.Policy {
		case "", tapejuke.WritePiggyback:
			sc.WritePolicy = sim.WritePiggyback
		case tapejuke.WriteIdleOnly:
			sc.WritePolicy = sim.WriteIdleOnly
		case tapejuke.WritePiggybackAndIdle:
			sc.WritePolicy = sim.WritePiggybackAndIdle
		default:
			return sim.Config{}, fmt.Errorf("unknown write policy %q", w.Policy)
		}
	}
	return sc, nil
}

func faultConfig(f tapejuke.FaultConfig) faults.Config {
	return faults.Config{
		ReadTransientProb: f.ReadTransientProb, BadBlocksPerTape: f.BadBlocksPerTape,
		BadBlockRangeLen: f.BadBlockRangeLen, TapeMTBFSec: f.TapeMTBFSec,
		DriveMTBFSec: f.DriveMTBFSec, DriveRepairSec: f.DriveRepairSec,
		SwitchFailProb: f.SwitchFailProb, LatentErrorsPerTape: f.LatentErrorsPerTape,
		LatentMeanOnsetSec: f.LatentMeanOnsetSec,
		Retry: faults.RetryPolicy{MaxRetries: f.MaxRetries, BackoffSec: f.BackoffSec,
			BackoffFactor: f.BackoffFactor},
		Seed: f.Seed,
	}
}

// scheduler returns the scheduler for a run. Single-drive runs reuse one
// instance per algorithm across runs, as tapejuke.Runner does: the simple
// policies keep no state between runs and the envelope is reset through
// sched.RunResetter. Multi-drive runs get fresh instances.
func (rp *replayer) scheduler(a tapejuke.Algorithm, drives int) (sched.Scheduler, error) {
	if drives > 1 {
		return rp.newScheduler(a)
	}
	if s, ok := rp.scheds[a]; ok {
		if rr, ok := s.(sched.RunResetter); ok {
			rr.ResetRun()
		}
		return s, nil
	}
	s, err := rp.newScheduler(a)
	if err != nil {
		return nil, err
	}
	rp.scheds[a] = s
	return s, nil
}

func (rp *replayer) newScheduler(a tapejuke.Algorithm) (sched.Scheduler, error) {
	s, err := tapejuke.NewScheduler(a)
	if err != nil || rp.tr == nil {
		return s, err
	}
	fam := &rp.tr.simple
	if _, ok := s.(*core.Envelope); ok {
		fam = &rp.tr.core
	}
	return &tracedSched{inner: s, fam: fam, t: rp.tr}, nil
}

// layout returns the built layout for a configuration, timing the build
// when tracing.
func (rp *replayer) layout(cfg layout.Config) (*layout.Layout, error) {
	if l, ok := rp.lays[cfg]; ok {
		return l, nil
	}
	l, err := layout.Build(cfg)
	if err != nil {
		return nil, err
	}
	rp.lays[cfg] = l
	return l, nil
}

// farmPlan is a farm run's routing pre-pass: the shard configurations and
// the routed per-shard traces.
type farmPlan struct {
	shards     []tapejuke.Config
	traces     []farm.Trace
	routed     []int64
	failedOver int64
}

// planFarm reproduces tapejuke.RunFarm's pre-pass for the spread placement
// the farm-spread workload uses: the per-shard layout that keeps the
// storage expansion of local placement, the fault projection the router
// fails over with, the tenant streams, and farm.Split. Shard i runs with
// seed Base.Seed + 7919*i.
func (rp *replayer) planFarm(fc tapejuke.FarmConfig) (*farmPlan, error) {
	base := fc.Base.WithDefaults()
	n := fc.Shards
	if fc.Placement != tapejuke.FarmSpread || n < 2 {
		return nil, fmt.Errorf("replay covers spread placement over several shards, not %q x %d", fc.Placement, n)
	}
	hl, cl, err := rp.hotCold(base)
	if err != nil {
		return nil, err
	}
	stored := hl*(1+base.Replicas) + cl
	shard := base
	shard.Replicas = 0
	shard.DataMB = float64(stored) * base.BlockMB
	shard.HotPercent = 100 * float64(hl*(1+base.Replicas)) / float64(stored)
	sc, err := rp.simConfig(shard)
	if err != nil {
		return nil, err
	}
	layCfg, capBlocks, err := sc.LayoutConfig()
	if err != nil {
		return nil, err
	}
	lay, err := rp.layout(layCfg)
	if err != nil {
		return nil, err
	}
	var dead [][]float64
	if fcf := sc.Faults; fcf.TapeMTBFSec > 0 || fcf.BadBlocksPerTape > 0 {
		for s := 0; s < n; s++ {
			fi := fcf
			if fi.Seed == 0 {
				fi.Seed = shardSeed(base.Seed, s) + 3
			}
			inj, err := faults.New(fi, shard.Tapes, max(shard.Drives, 1), capBlocks)
			if err != nil {
				return nil, err
			}
			row := make([]float64, lay.NumHot())
			for b := range row {
				for _, cp := range lay.Replicas(layout.BlockID(b)) {
					at := inj.TapeFailTime(cp.Tape)
					if inj.CopyDead(cp.Tape, cp.Pos) {
						at = 0
					}
					row[b] = max(row[b], at)
				}
			}
			dead = append(dead, row)
		}
	}
	tenants := make([]farm.Tenant, len(fc.Tenants))
	for i, t := range fc.Tenants {
		arr, err := workload.NewPoissonArrivals(t.MeanInterarrivalSec, base.Seed+1+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		rh := t.ReadHotPercent
		if rh == 0 {
			rh = base.ReadHotPercent
		}
		tenants[i] = farm.Tenant{Arrivals: arr, HotFrac: rh / 100}
	}
	split, err := farm.Split(farm.SplitConfig{
		Shards: n, Policy: farm.PlaceSpread, Copies: base.Replicas,
		FarmHot: n * hl, FarmCold: n * cl, LocalHot: lay.NumHot(), LocalCold: lay.NumCold(),
		HotDeadAt: dead, Horizon: base.HorizonSec, Tenants: tenants, Seed: base.Seed + 6,
	})
	if err != nil {
		return nil, err
	}
	plan := &farmPlan{traces: split.Traces, routed: split.Routed, failedOver: split.FailedOver}
	for s := 0; s < n; s++ {
		c := shard
		c.Seed = shardSeed(base.Seed, s)
		plan.shards = append(plan.shards, c)
	}
	return plan, nil
}

// hotCold returns the hot and cold block counts of a library
// configuration's layout.
func (rp *replayer) hotCold(c tapejuke.Config) (hot, cold int, err error) {
	sc, err := rp.simConfig(c)
	if err != nil {
		return 0, 0, err
	}
	layCfg, _, err := sc.LayoutConfig()
	if err != nil {
		return 0, 0, err
	}
	l, err := rp.layout(layCfg)
	if err != nil {
		return 0, 0, err
	}
	return l.NumHot(), l.NumCold(), nil
}

func shardSeed(base int64, shard int) int64 { return base + int64(shard)*7919 }

// calls accumulates one traced call site: how often it ran and for how
// long. durs keeps every duration in microseconds when percentiles are
// wanted.
type calls struct {
	n     int64
	total time.Duration
	durs  []float64
	keep  bool
}

func (c *calls) add(d time.Duration) {
	c.n++
	c.total += d
	if c.keep {
		c.durs = append(c.durs, float64(d)/float64(time.Microsecond))
	}
}

// quantile returns the q-quantile of the kept durations in microseconds
// (nearest rank), or 0 without samples.
func (c *calls) quantile(q float64) float64 {
	if len(c.durs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(c.durs) {
		sort.Float64s(c.durs)
	}
	i := int(q*float64(len(c.durs))+0.5) - 1
	return c.durs[min(max(i, 0), len(c.durs)-1)]
}

// tracer collects the per-layer counts and timings of traced replays. The
// traced replay runs on one goroutine, so it needs no locking.
type tracer struct {
	core     calls // Reschedule of the envelope family (internal/core)
	simple   calls // Reschedule of FIFO, static and dynamic (internal/sched)
	arrival  calls // OnArrival of every scheduler
	accepted int64 // OnArrival calls that inserted the request
	sweeps   int64 // Reschedule calls that returned a sweep
	swept    int64 // requests in those sweeps
	work     calls // Source.Next and Arrivals.Next
	events   int64 // simulator events observed
	runWall  time.Duration

	flushed, repairJobs, rebuilt int64
	scrubMB                      float64

	verify   bool // replay events through trace.Verify on single-drive runs
	record   bool // recording the current run's events
	recs     []trace.Record
	verified int64 // operations trace.Verify replayed
}

func newTracer() *tracer {
	t := &tracer{}
	t.core.keep, t.simple.keep = true, true
	return t
}

// Observe counts simulator events and keeps them when the run is verified.
func (t *tracer) Observe(ev sim.Event) {
	t.events++
	if t.record {
		t.recs = append(t.recs, trace.Record{Kind: ev.Kind.String(), Time: ev.Time,
			Tape: ev.Tape, Pos: ev.Pos, Seconds: ev.Seconds, Request: ev.Request})
	}
}

// tracedSched times a scheduler's calls. It forwards every optional hook the
// kernel and the replayer look for -- sched.CopyObserver, sched.RunResetter
// and the kernel's OnEvict -- so that wrapping never changes which hooks
// reach the scheduler: the kernel's repair hook would otherwise skip the
// envelope, and a reused envelope would keep its previous run's state.
type tracedSched struct {
	inner sched.Scheduler
	fam   *calls
	t     *tracer
}

func (s *tracedSched) Name() string { return s.inner.Name() }

func (s *tracedSched) Reschedule(st *sched.State) (int, *sched.Sweep, bool) {
	t0 := time.Now()
	tape, sw, ok := s.inner.Reschedule(st)
	s.fam.add(time.Since(t0))
	if ok {
		s.t.sweeps++
		s.t.swept += int64(sw.Len())
	}
	return tape, sw, ok
}

func (s *tracedSched) OnArrival(st *sched.State, r *sched.Request) bool {
	t0 := time.Now()
	ok := s.inner.OnArrival(st, r)
	s.t.arrival.add(time.Since(t0))
	if ok {
		s.t.accepted++
	}
	return ok
}

func (s *tracedSched) OnCopyAdded(st *sched.State, b layout.BlockID, c layout.Replica) {
	if co, ok := s.inner.(sched.CopyObserver); ok {
		co.OnCopyAdded(st, b, c)
	}
}

func (s *tracedSched) OnCopyRemoved(st *sched.State, b layout.BlockID, c layout.Replica) {
	if co, ok := s.inner.(sched.CopyObserver); ok {
		co.OnCopyRemoved(st, b, c)
	}
}

func (s *tracedSched) ResetRun() {
	if rr, ok := s.inner.(sched.RunResetter); ok {
		rr.ResetRun()
	}
}

// evictor is the kernel's optional hook for requests cancelled out of an
// in-flight sweep (internal/sim, deadline expiry).
type evictor interface {
	OnEvict(st *sched.State, r *sched.Request)
}

func (s *tracedSched) OnEvict(st *sched.State, r *sched.Request) {
	if ev, ok := s.inner.(evictor); ok {
		ev.OnEvict(st, r)
	}
}

// tracedSource times the block generator. Rand is forwarded untimed: the
// engine binds it once per run.
type tracedSource struct {
	inner workload.Source
	t     *tracer
}

func (s tracedSource) Next() layout.BlockID {
	t0 := time.Now()
	b := s.inner.Next()
	s.t.work.add(time.Since(t0))
	return b
}

func (s tracedSource) Rand() *rand.Rand { return s.inner.Rand() }

// tracedArrivals times the arrival process.
type tracedArrivals struct {
	inner workload.Arrivals
	t     *tracer
}

func (a tracedArrivals) Closed() bool      { return a.inner.Closed() }
func (a tracedArrivals) InitialCount() int { return a.inner.InitialCount() }

func (a tracedArrivals) Next() float64 {
	t0 := time.Now()
	v := a.inner.Next()
	a.t.work.add(time.Since(t0))
	return v
}
