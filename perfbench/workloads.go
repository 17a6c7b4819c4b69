package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"tapejuke"
	"tapejuke/figures"
)

// Workload names, as BENCHMARK.json and --workload spell them.
const (
	paperFig8   = "paper-fig8"
	repairScrub = "repair-scrub"
	farmSpread  = "farm-spread"
	writes2     = "writes-2drive"
)

var workloadNames = []string{paperFig8, repairScrub, farmSpread, writes2}

// scrubFaultSeed pins the repair-scrub fault stream (tape deaths, bad
// blocks, latent errors). With the fault stream free, host time per run
// swings about tenfold across seeds because the number and timing of tape
// losses decide how much repair and evacuation work exists; pinned, every
// seed sees the same two evacuations and about 335 rebuilt copies, and the
// request seed alone varies.
const scrubFaultSeed = 7

// spec is one workload instance: the public-API configurations of one
// batch. A batch is the unit the timed phase repeats; every simulation run
// inside it is one benchmark operation.
type spec struct {
	name string
	// runs are the batch's single-library simulations, in order. For
	// paper-fig8 they are the Figure 8 grid cells in figures.Fig8's job
	// order (algorithm-major, queue length minor).
	runs []tapejuke.Config
	// fig8 is set on paper-fig8: the timed phase runs the grid through
	// figures.Fig8 with these options.
	fig8 *figures.Options
	// farm is set on farm-spread: the batch is this one farm run.
	farm *tapejuke.FarmConfig
}

// newSpec builds the named workload for a seed. scale multiplies every
// simulated horizon; the benchmark uses 1, tests use less.
func newSpec(name string, seed int64, scale float64, workers int) (*spec, error) {
	s := &spec{name: name}
	switch name {
	case paperFig8:
		// The paper's Figure 8: all 14 schedulers x closed queue lengths
		// 20..140 on the fully replicated vertical layout (NR=9, SP=1,
		// PH 10, RH 40) with the EXB-8505XL drive.
		o := figures.Options{HorizonSec: 1_000_000 * scale, Seed: seed, Workers: workers,
			QueueLengths: []int{20, 40, 60, 80, 100, 120, 140}}
		s.fig8 = &o
		for _, a := range tapejuke.Algorithms() {
			for _, q := range o.QueueLengths {
				c := tapejuke.Config{HorizonSec: o.HorizonSec, Seed: o.Seed}.WithDefaults()
				c.Algorithm = a
				c.Placement = tapejuke.Vertical
				c.Replicas = 9
				c.StartPos = 1
				c.QueueLength = q
				s.runs = append(s.runs, c)
			}
		}
	case repairScrub:
		// The BenchmarkScrubIdle shape: 1000 all-hot blocks, NR=2, open
		// Poisson reads every 600 s, tape deaths, bad blocks and latent
		// errors, with repair, scrub and evacuation on. The horizon covers
		// both evacuations; six request seeds per batch average out the
		// per-seed cost differences (about 10% per run).
		for i := int64(0); i < 6; i++ {
			s.runs = append(s.runs, tapejuke.Config{
				BlockMB: 16, TapeCapMB: 7168, Tapes: 10,
				HotPercent: 100, ReadHotPercent: 100, DataMB: 1000 * 16, Replicas: 2,
				MeanInterarrivalSec: 600, Algorithm: tapejuke.EnvelopeMaxBandwidth,
				HorizonSec: 1_500_000 * scale, Seed: seed*7919 + i,
				Faults: tapejuke.FaultConfig{TapeMTBFSec: 3_000_000, BadBlocksPerTape: 1,
					BadBlockRangeLen: 4, LatentErrorsPerTape: 2, LatentMeanOnsetSec: 400_000,
					Seed: scrubFaultSeed},
				Repair: tapejuke.RepairConfig{Enable: true},
				Health: tapejuke.HealthConfig{Enable: true, ScrubRate: 64, SuspectScore: 3, Evacuate: true},
			}.WithDefaults())
		}
	case farmSpread:
		// Eight libraries, spread placement with one cross-library copy of
		// each hot block, two open tenant classes that load each library
		// to a mean queue of about 20 requests (Base.MeanInterarrivalSec
		// only marks the model as open). The tape MTBF is long enough that
		// a few tapes die per run: the router fails over, but availability
		// stays high. Which tapes die, and when, moves a farm's response
		// times: with four libraries the median response moved about 10%
		// (quartile spread over ten seeds), with eight about 7%.
		h := 20_000_000 * scale
		s.farm = &tapejuke.FarmConfig{
			Shards: 8, Placement: tapejuke.FarmSpread, Workers: workers,
			Tenants: []tapejuke.TenantClass{
				{Name: "interactive", MeanInterarrivalSec: 20, ReadHotPercent: 70},
				{Name: "batch", MeanInterarrivalSec: 50, ReadHotPercent: 20},
			},
			Base: tapejuke.Config{
				Replicas: 1, HotPercent: 10, ReadHotPercent: 60,
				Algorithm: tapejuke.EnvelopeMaxBandwidth, MeanInterarrivalSec: 40,
				HorizonSec: h, Seed: seed,
				Faults: tapejuke.FaultConfig{TapeMTBFSec: 10 * h},
			}.WithDefaults(),
		}
	case writes2:
		// One library, two drives, open Poisson reads, delta writes drained
		// piggyback and idle, dynamic-max-bandwidth.
		for i := int64(0); i < 2; i++ {
			c := tapejuke.Config{
				Drives: 2, MeanInterarrivalSec: 60, Algorithm: tapejuke.DynamicMaxBandwidth,
				HorizonSec: 10_000_000 * scale, Seed: seed*7919 + i,
				Writes: tapejuke.WriteConfig{MeanInterarrivalSec: 120, Policy: tapejuke.WritePiggybackAndIdle},
			}.WithDefaults()
			s.runs = append(s.runs, c)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return s, nil
}

// configs returns every library configuration the workload simulates; for
// the farm, its base library.
func (s *spec) configs() []tapejuke.Config {
	if s.farm != nil {
		return []tapejuke.Config{s.farm.Base}
	}
	return s.runs
}

// ops is the number of benchmark operations in one batch.
func (s *spec) ops() int {
	if s.farm != nil {
		return 1
	}
	return len(s.runs)
}

// outcome is the simulated result of one batch.
type outcome struct {
	runs []*tapejuke.Result
	farm *tapejuke.FarmResult
}

// fingerprint serializes the outcome; two outcomes are the same simulation
// exactly when their fingerprints are byte-identical (JSON keeps every bit
// of a float64).
func (o *outcome) fingerprint() ([]byte, error) {
	if o.farm != nil {
		return json.Marshal(o.farm)
	}
	return json.Marshal(o.runs)
}

// replayPrint serializes the part of the outcome a replay reproduces: every
// library result and, for the farm, the router's counts. The farm's other
// FarmResult fields are a deterministic reduction of these.
func (o *outcome) replayPrint() ([]byte, error) {
	if o.farm == nil {
		return json.Marshal(o.runs)
	}
	return json.Marshal(struct {
		Shards     []*tapejuke.Result
		Routed     []int64
		FailedOver int64
	}{o.farm.Shards, o.farm.Routed, o.farm.FailedOver})
}

// referenceBatch runs one batch through the public API on rn: the runs one
// after another, or the farm with its configured workers. It is the
// untimed batch that every other execution of the workload must reproduce.
func (s *spec) referenceBatch(rn *tapejuke.Runner) (*outcome, error) {
	if s.farm != nil {
		fr, err := tapejuke.RunFarm(*s.farm)
		if err != nil {
			return nil, err
		}
		return &outcome{farm: fr}, nil
	}
	out := &outcome{}
	for i, c := range s.runs {
		r, err := rn.Run(c)
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", i, err)
		}
		out.runs = append(out.runs, r)
	}
	return out, nil
}

// passTime is what timedPass measures: the process CPU time and the wall
// time of a pass's timed units, in seconds.
type passTime struct {
	cpu, wall float64
}

// add runs f and adds the CPU and wall time it takes.
func (p *passTime) add(f func()) {
	c0, t0 := processCPUSeconds(), time.Now()
	f()
	p.cpu += processCPUSeconds() - c0
	p.wall += time.Since(t0).Seconds()
}

// timedPass runs one batch the way the timed phase does: the grid through
// figures.Fig8, each run on rn, or the farm run. It times each of these
// units, compares its output with the reference, and returns the units'
// summed times, the number of failed operations and the first error.
func (s *spec) timedPass(rn *tapejuke.Runner, ref *outcome, refPrint []byte) (pt passTime, failed int, err error) {
	if s.fig8 != nil {
		var fig *figures.Figure
		pt.add(func() { fig, err = figures.Fig8(*s.fig8) })
		if err != nil {
			return pt, len(s.runs), err
		}
		failed, err = compareRows(fig.Rows, ref.runs)
		return pt, failed, err
	}
	if s.farm != nil {
		var fr *tapejuke.FarmResult
		pt.add(func() { fr, err = tapejuke.RunFarm(*s.farm) })
		if err == nil {
			err = sameAs(&outcome{farm: fr}, refPrint)
		}
		if err != nil {
			return pt, 1, err
		}
		return pt, 0, nil
	}
	out := &outcome{}
	for i, c := range s.runs {
		var r *tapejuke.Result
		var rerr error
		pt.add(func() { r, rerr = rn.Run(c) })
		if rerr != nil && err == nil {
			err = fmt.Errorf("run %d: %w", i, rerr)
		}
		out.runs = append(out.runs, r)
	}
	if err == nil {
		err = sameAs(out, refPrint)
	}
	if err != nil {
		return pt, len(s.runs), err
	}
	return pt, 0, nil
}

// sameAs reports whether an outcome reproduces the reference fingerprint.
func sameAs(o *outcome, refPrint []byte) error {
	p, err := o.fingerprint()
	if err != nil {
		return err
	}
	if string(p) != string(refPrint) {
		return errors.New("batch result differs from the reference batch of the same seed")
	}
	return nil
}

// compareRows checks that every Figure 8 row carries exactly the metrics of
// the matching reference run: figures.Fig8 and the Runner simulate the
// same configurations, so any difference is a defect.
func compareRows(rows []figures.Row, ref []*tapejuke.Result) (failed int, err error) {
	if len(rows) != len(ref) {
		return len(ref), fmt.Errorf("figure 8 has %d rows, want %d", len(rows), len(ref))
	}
	for i, row := range rows {
		r := ref[i]
		if row.Series != r.SchedulerName || row.ThroughputKBps != r.ThroughputKBps ||
			row.RequestsPerMinute != r.RequestsPerMinute || row.MeanResponseSec != r.MeanResponseSec {
			failed++
			if err == nil {
				err = fmt.Errorf("figure 8 row %d (%s %v) differs from its reference run", i, row.Series, row.Param)
			}
		}
	}
	return failed, err
}

// checkRun checks the invariants every library result must satisfy. drives
// and queue describe the configuration it ran.
func checkRun(r *tapejuke.Result, drives, queue int) error {
	outstanding := r.TotalArrivals - r.TotalCompleted - r.Expired - r.Shed - r.Unserviceable
	if queue > 0 && outstanding != int64(queue) {
		return fmt.Errorf("closed model with queue %d ends with %d outstanding", queue, outstanding)
	}
	if outstanding < 0 {
		return fmt.Errorf("open model ends with %d outstanding", outstanding)
	}
	if r.Completed <= 0 {
		return errors.New("no measured completions")
	}
	if drives <= 1 {
		if l := ledger(r); math.Abs(l-r.SimSeconds) > 1e-6*r.SimSeconds {
			return fmt.Errorf("time buckets sum to %v s, simulated %v s", l, r.SimSeconds)
		}
	}
	return nil
}

// ledger sums a result's drive-time buckets.
func ledger(r *tapejuke.Result) float64 {
	return r.LocateSeconds + r.ReadSeconds + r.SwitchSeconds + r.IdleSeconds +
		r.FaultSeconds + r.DriveRepairSeconds + r.RepairSeconds + r.ScrubSeconds + r.WriteSeconds
}

// check validates a batch outcome: per-run invariants, the farm's
// conservation identity, and the guards that fail a workload which stopped
// exercising the layer it was chosen for. It returns the number of failed
// operations and the first error.
func (s *spec) check(o *outcome) (failed int, err error) {
	note := func(n int, e error) {
		failed += n
		if err == nil {
			err = e
		}
	}
	if s.farm != nil {
		fr := o.farm
		base := s.farm.Base
		for i, r := range fr.Shards {
			if e := checkRun(r, base.Drives, 0); e != nil {
				note(0, fmt.Errorf("farm shard %d: %w", i, e))
			}
			if r.TotalArrivals > fr.Routed[i] {
				note(0, fmt.Errorf("farm shard %d minted %d requests but was routed %d", i, r.TotalArrivals, fr.Routed[i]))
			}
		}
		if sum := fr.TotalCompleted + fr.Expired + fr.Shed + fr.Unserviceable + fr.Outstanding; sum != fr.TotalArrivals || fr.Outstanding < 0 {
			note(0, fmt.Errorf("farm conservation: %d arrivals, %d accounted, %d outstanding", fr.TotalArrivals, sum, fr.Outstanding))
		}
		if fr.FailedOver <= 0 {
			note(0, errors.New("farm-spread failed over no requests"))
		}
		if err != nil {
			failed = 1 // the farm run is the batch's one operation
		}
		return failed, err
	}
	var rebuilt, latent, flushed int64
	for i, r := range o.runs {
		c := s.runs[i]
		if e := checkRun(r, c.Drives, c.QueueLength); e != nil {
			note(1, fmt.Errorf("run %d (%s): %w", i, c.Algorithm, e))
		}
		rebuilt += r.RepairedCopies
		latent += r.LatentFoundByScrub
		flushed += r.WritesFlushed
	}
	switch s.name {
	case repairScrub:
		if rebuilt <= 0 || latent <= 0 {
			note(len(o.runs), fmt.Errorf("repair-scrub rebuilt %d copies and scrub found %d latent errors; both must be positive", rebuilt, latent))
		}
	case writes2:
		if flushed <= 0 {
			note(len(o.runs), errors.New("writes-2drive flushed no delta blocks"))
		}
	}
	return failed, err
}

// simMetrics are the modelled-jukebox results of one batch, in simulated
// time. They depend only on the seed.
type simMetrics struct {
	completed    int64 // post-warm-up completions summed over runs or shards
	throughput   float64
	p50, p99     float64
	availability float64
}

// summarize reduces a batch to its modelled metrics, pooling the runs (for
// the farm, the shards): the percentiles are completion-weighted means of
// the per-run percentiles, and availability pools completions against
// unserviceable requests. Throughput is the farm's aggregate, or else the
// mean over the runs (for paper-fig8, over the figure's points).
func (s *spec) summarize(o *outcome) simMetrics {
	results := o.runs
	if o.farm != nil {
		results = o.farm.Shards
	}
	var m simMetrics
	var unserv int64
	for _, r := range results {
		m.completed += r.Completed
		unserv += r.Unserviceable
		m.throughput += r.ThroughputKBps
		m.p50 += float64(r.Completed) * r.P50ResponseSec
		m.p99 += float64(r.Completed) * r.P99ResponseSec
	}
	if o.farm == nil {
		m.throughput /= float64(len(results))
	}
	m.p50 /= float64(m.completed)
	m.p99 /= float64(m.completed)
	m.availability = float64(m.completed) / float64(m.completed+unserv)
	return m
}

// diagnostics returns informational lines about a batch that are not
// checks. On writes-2drive it reports the multi-drive time-ledger closure,
// the share of drives x simulated time the buckets account for, which is a
// known open defect of multi-drive accounting.
func (s *spec) diagnostics(o *outcome) []string {
	var out []string
	if s.name == writes2 {
		for i, r := range o.runs {
			closure := ledger(r) / (float64(s.runs[i].Drives) * r.SimSeconds)
			out = append(out, fmt.Sprintf("diag %s run %d: multi-drive ledger closure %.4f", s.name, i, closure))
		}
	}
	return out
}
