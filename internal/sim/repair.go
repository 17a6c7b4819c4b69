package sim

import (
	"errors"
	"fmt"

	"tapejuke/internal/layout"
	"tapejuke/internal/repair"
	"tapejuke/internal/sched"
	"tapejuke/internal/stats"
)

// RepairConfig enables the self-healing replication extension: background
// jobs that rebuild lost replicas, promote newly hot blocks, and reclaim
// cold excess copies during drive idle time. Zero value: disabled.
type RepairConfig struct {
	// Enable turns the repair subsystem on.
	Enable bool
	// HalfLifeSec is the heat tracker's exponential-decay half-life in
	// simulated seconds. 0 means the 100,000 s default.
	HalfLifeSec float64
	// PromoteHeat, when positive, mints an extra copy of any block whose
	// decayed heat reaches it (up to MaxCopies).
	PromoteHeat float64
	// ReclaimHeat, when positive, reclaims excess copies of blocks whose
	// heat has fallen to or below it.
	ReclaimHeat float64
	// MaxCopies caps promotion. 0 means 1 + Replicas.
	MaxCopies int
	// ScanRate is the number of blocks the rotating promote/reclaim scan
	// inspects per idle visit. 0 means 64.
	ScanRate int
}

// Enabled reports whether the repair extension is active.
func (r RepairConfig) Enabled() bool { return r.Enable }

// validateRepair checks the repair extension's configuration.
func (c *Config) validateRepair() error {
	r := c.Repair
	if !r.Enabled() {
		return nil
	}
	if c.WriteMeanInterarrival > 0 {
		return errors.New("sim: the repair model does not cover the write extension")
	}
	if r.HalfLifeSec < 0 {
		return &ConfigError{"Repair.HalfLifeSec", "must be >= 0"}
	}
	if r.PromoteHeat < 0 {
		return &ConfigError{"Repair.PromoteHeat", "must be >= 0"}
	}
	if r.ReclaimHeat < 0 {
		return &ConfigError{"Repair.ReclaimHeat", "must be >= 0"}
	}
	if r.PromoteHeat > 0 && r.ReclaimHeat >= r.PromoteHeat {
		return &ConfigError{"Repair.ReclaimHeat", "must be below PromoteHeat (copies would thrash)"}
	}
	if r.MaxCopies < 0 || r.MaxCopies > c.Tapes {
		return &ConfigError{"Repair.MaxCopies", fmt.Sprintf("must be in [0,%d] (at most one copy per tape)", c.Tapes)}
	}
	if r.ScanRate < 0 {
		return &ConfigError{"Repair.ScanRate", "must be >= 0"}
	}
	return nil
}

// repairState is the engine-side bookkeeping of the repair extension: the
// heat tracker, the job planner, and the repair metrics. nil when repair
// is disabled, keeping the default path to a handful of nil checks.
//
// Repair consumes no injector randomness -- tape liveness is a pure time
// comparison and copy liveness a table lookup -- so enabling it leaves the
// fault stream, and with it every non-repair event, bit-identical.
type repairState struct {
	pl   *repair.Planner
	heat *repair.Heat

	repaired  int64   // copies minted
	reclaimed int64   // excess copies given back
	repairSec float64 // drive time spent on repair reads and writes
	mttr      stats.Accumulator
}

// initRepair wires the repair subsystem when enabled. Must run after
// initFaults (the planner's liveness closures read the fault masks).
func (e *engine) initRepair() {
	rc := e.cfg.Repair
	if !rc.Enabled() {
		return
	}
	if rc.HalfLifeSec == 0 {
		rc.HalfLifeSec = 100_000
	}
	if rc.MaxCopies == 0 {
		rc.MaxCopies = 1 + e.cfg.Replicas
	}
	lay := e.sh.Layout
	heat := repair.NewHeat(lay.NumBlocks(), rc.HalfLifeSec)
	pl := repair.New(lay, heat, repair.Config{
		MaxCopies:   rc.MaxCopies,
		PromoteHeat: rc.PromoteHeat,
		ReclaimHeat: rc.ReclaimHeat,
		ScanRate:    rc.ScanRate,
	}, e.sh.CopyOK, e.sh.Up, func(tape, pos int) bool {
		return e.sh.DeadCopy == nil || !e.sh.DeadCopy(tape, pos)
	})
	e.rep = &repairState{pl: pl, heat: heat}
}

// idleRepairOp runs background repair on drive d when it would otherwise
// go idle: one job step (a surviving-copy read or a new-copy write) per
// operation, hottest block first, preceded by a bounded promote/reclaim
// scan. Returns whether an operation was issued.
func (e *engine) idleRepairOp(d int) bool {
	rp := e.rep
	if rp == nil {
		return false
	}
	e.healthEvacScan()
	rp.pl.Scan(e.now, e.reclaimCopy)
	r := rp.pl.Rank(e.now)
	for j := r.Next(); j != nil; j = r.Next() {
		if j.Busy {
			// Another drive is executing this job's current step.
			continue
		}
		switch j.Step {
		case repair.StepRead:
			if e.issueRepairRead(d, j) {
				return true
			}
		case repair.StepWrite:
			if e.issueRepairWrite(d, j) {
				return true
			}
		}
	}
	return false
}

// idleSwitch moves drive d to the given tape for a background step (a
// repair job or a scrub pass; sink receives the drive time on the failed
// path, so each subsystem is charged for its own mounts). Idle switches
// are real mounts: they emit EventSwitch so traces replay on the deck. A
// tape already dead at load is discovered exactly as in
// resolveFaultySwitch -- the drive ends the operation empty and the tape
// is masked at settle -- but without any injector draw, so the fault
// stream is unchanged. Returns the post-switch virtual time and whether
// the mount succeeded.
func (e *engine) idleSwitch(d, tape int, sink *float64) (float64, bool) {
	dr := &e.drives[d]
	st := dr.st
	sw := e.sh.Costs.SwitchCost(st.Mounted, st.Head, tape)
	vt := e.now + sw
	if e.sh.Busy != nil {
		if st.Mounted >= 0 {
			e.sh.Busy[st.Mounted] = false
		}
		e.sh.Busy[tape] = true
	}
	st.Mounted, st.Head = tape, 0
	e.noteMount(tape)
	if e.flt != nil && e.flt.inj.TapeFailed(tape, e.now) {
		*sink += sw
		dr.failTape, dr.loadFail = tape, true
		e.beginOp(d, vt, false)
		return vt, false
	}
	e.switchSec += sw
	if vt > e.warmupEnd {
		e.switches++
	}
	e.push(Event{Kind: EventSwitch, Time: vt, Tape: tape, Pos: -1, Seconds: sw})
	return vt, true
}

// issueRepairRead runs job j's read step on drive d: mount a surviving
// copy's tape if needed and read the copy into the drive buffer. The step
// completes at issue resolution (no injector draws), so the job advances
// to its write step immediately; interruption before the write resumes
// here with the read intact.
func (e *engine) issueRepairRead(d int, j *repair.Job) bool {
	dr := &e.drives[d]
	st := dr.st
	rp := e.rep
	src, status := rp.pl.PickSource(j, func(c layout.Replica) bool {
		return st.Available(c.Tape) && e.sh.CopyOK(c)
	})
	switch status {
	case repair.SrcDone, repair.SrcGone:
		rp.pl.Cancel(j)
		return false
	case repair.SrcBusy:
		return false
	}
	vt := e.now
	if src.Tape != st.Mounted {
		var ok bool
		if vt, ok = e.idleSwitch(d, src.Tape, &rp.repairSec); !ok {
			return true // the failed load occupied the drive
		}
	}
	if e.flt != nil && e.flt.inj.TapeFailed(src.Tape, vt) {
		// The source tape died while mounted: the locate runs into the
		// failure; the job resumes from the read step with another copy.
		loc, _, _ := e.sh.Costs.ServeOneParts(st.Head, src.Pos)
		rp.repairSec += loc
		dr.failTape = src.Tape
		e.beginOp(d, vt+loc, false)
		return true
	}
	if e.flt != nil && e.flt.inj.LatentActive(src.Tape, src.Pos, vt) {
		// The verification behind the repair read finds a latent error on
		// the chosen source: nothing is buffered, the copy escalates to
		// dead, and the job resumes from the read step with another copy.
		loc, rd, newHead := e.sh.Costs.ServeOneParts(st.Head, src.Pos)
		vt += loc + rd
		rp.repairSec += loc + rd
		st.Head = newHead
		// The failed attempt is a request-less fault record: the job ID
		// would collide with request IDs in the fault ledger, and the
		// discovery itself is recorded by the latent-found that follows.
		e.push(Event{Kind: EventFault, Time: vt, Tape: src.Tape, Pos: src.Pos,
			Seconds: loc + rd})
		e.noteLatentFound(src.Tape, src.Pos, vt, false)
		e.beginOp(d, vt, false)
		return true
	}
	loc, rd, newHead := e.sh.Costs.ServeOneParts(st.Head, src.Pos)
	vt += loc + rd
	rp.repairSec += loc + rd
	st.Head = newHead
	rp.pl.FinishRead(j)
	e.push(Event{Kind: EventRepairRead, Time: vt, Tape: src.Tape, Pos: src.Pos,
		Seconds: loc + rd, Request: j.ID})
	j.Busy = true
	dr.repairRead = j
	e.beginOp(d, vt, false)
	return true
}

// issueRepairWrite runs job j's write step on drive d: reserve the
// destination (most spare capacity), mount it if needed, and write the
// new copy. The copy is minted only at settle (commitRepair), so other
// drives never see it before the write lands; a destination that dies
// first aborts the commit and the job keeps its completed read.
func (e *engine) issueRepairWrite(d int, j *repair.Job) bool {
	dr := &e.drives[d]
	st := dr.st
	rp := e.rep
	if rp.pl.EvacMoot(j) {
		// The copy this evacuation was to vacate died on its own; plain
		// repair (the rotating scan) owns the block now.
		rp.pl.Cancel(j)
		return false
	}
	if j.Kind == repair.KindRepair && rp.pl.LiveCopies(j.Block) >= j.Want {
		rp.pl.Cancel(j)
		return false
	}
	dst, ok := rp.pl.ChooseDest(j, st.Available)
	if !ok {
		if !rp.pl.Feasible(j) {
			// No up tape can take the copy at all (not just a busy-tape
			// stall): drop the job; the rotating scan re-enqueues the
			// block if reclamation frees capacity.
			rp.pl.Cancel(j)
		}
		return false
	}
	vt := e.now
	if dst.Tape != st.Mounted {
		if vt, ok = e.idleSwitch(d, dst.Tape, &rp.repairSec); !ok {
			rp.pl.Abort(j)
			return true
		}
	}
	if e.flt != nil && e.flt.inj.TapeFailed(dst.Tape, vt) {
		loc, _, _ := e.sh.Costs.ServeOneParts(st.Head, dst.Pos)
		rp.repairSec += loc
		rp.pl.Abort(j)
		dr.failTape = dst.Tape
		e.beginOp(d, vt+loc, false)
		return true
	}
	loc, wr, newHead := e.sh.Costs.ServeOneParts(st.Head, dst.Pos)
	vt += loc + wr
	rp.repairSec += loc + wr
	st.Head = newHead
	e.push(Event{Kind: EventRepairWrite, Time: vt, Tape: dst.Tape, Pos: dst.Pos,
		Seconds: loc + wr, Request: j.ID})
	j.Busy = true
	dr.repairJob = j
	e.beginOp(d, vt, false)
	return true
}

// commitRepair mints job j's new copy at settle time. If the destination
// tape died between issue and settle nothing is minted: the reservation
// is released and the job stays at its write step (monotone -- the read
// is never repeated, the copy is added exactly once or not at all). An
// evacuation job additionally drops the suspect-tape copy it replaced,
// strictly after the mint, so the block's availability never dips.
func (e *engine) commitRepair(j *repair.Job) {
	rp := e.rep
	if !e.sh.Up(j.Dst.Tape) {
		rp.pl.Abort(j)
		return
	}
	c, err := rp.pl.Commit(j, e.now)
	if err != nil {
		rp.pl.Abort(j)
		return
	}
	e.notifyCopyAdded(j.Block, c)
	if j.Kind == repair.KindEvacuate {
		if h := e.hlt; h != nil && !e.evacRemove(j.Block, j.From) {
			h.pendingRemove = append(h.pendingRemove, pendingEvac{j.Block, j.From})
		}
		return
	}
	rp.repaired++
	rp.mttr.Add(e.now - j.At)
}

// reclaimCopy removes a cold excess copy nominated by the planner scan.
// Copies any in-flight or scheduled request still targets are vetoed;
// reclamation is metadata-only (the copy simply leaves the tables), so it
// consumes no drive time.
func (e *engine) reclaimCopy(b layout.BlockID, c layout.Replica) bool {
	if e.blockInUse(b) {
		return false
	}
	if err := e.sh.Layout.RemoveCopy(b, c.Tape); err != nil {
		return false
	}
	e.rep.reclaimed++
	e.push(Event{Kind: EventReclaim, Time: e.now, Tape: c.Tape, Pos: c.Pos})
	e.notifyCopyRemoved(b, c)
	return true
}

// blockInUse reports whether any drive holds a request for block b in an
// active sweep, in flight, or in a fault deferral.
func (e *engine) blockInUse(b layout.BlockID) bool {
	for i := range e.drives {
		dr := &e.drives[i]
		if dr.inFlight != nil && dr.inFlight.Block == b {
			return true
		}
		if dr.faulted != nil && dr.faulted.Block == b {
			return true
		}
		for _, r := range dr.abort {
			if r.Block == b {
				return true
			}
		}
		if dr.st.Active != nil {
			for _, r := range dr.st.Active.Requests() {
				if r.Block == b {
					return true
				}
			}
		}
	}
	return false
}

// notifyCopyAdded tells every scheduler that implements sched.CopyObserver
// about a minted copy, so incremental state (the envelope) can take it up
// without waiting for the next major reschedule.
func (e *engine) notifyCopyAdded(b layout.BlockID, c layout.Replica) {
	for i := range e.drives {
		dr := &e.drives[i]
		if co, ok := dr.schd.(sched.CopyObserver); ok {
			co.OnCopyAdded(dr.st, b, c)
		}
	}
}

// notifyCopyRemoved mirrors notifyCopyAdded for reclaimed copies.
func (e *engine) notifyCopyRemoved(b layout.BlockID, c layout.Replica) {
	for i := range e.drives {
		dr := &e.drives[i]
		if co, ok := dr.schd.(sched.CopyObserver); ok {
			co.OnCopyRemoved(dr.st, b, c)
		}
	}
}

// repairResult folds the repair metrics into the result.
func (e *engine) repairResult(res *Result) {
	rp := e.rep
	if rp == nil {
		return
	}
	res.RepairJobs = rp.pl.Created()
	res.RepairedCopies = rp.repaired
	res.ReclaimedCopies = rp.reclaimed
	res.RepairSeconds = rp.repairSec
	res.MeanTimeToRepairSec = rp.mttr.Mean()
}
