package sim

import (
	"fmt"
	"math"

	"tapejuke/internal/repair"
	"tapejuke/internal/sched"
)

// This file is the event-calendar kernel shared by every drive count. Each
// drive is a record with a wake time: the kernel repeatedly advances the
// clock to the earliest busy drive's completion, settles that operation's
// deferred effects, delivers due arrivals, and issues new operations on
// every free drive. A single-drive jukebox is the one-record case of the
// same loop, replacing the synchronous engine and the separate multi-drive
// engine that preceded it.
//
// Operations resolve their random outcome at issue time -- all injector and
// workload draws happen in deterministic order -- accumulating a virtual
// clock over attempt segments; only the completion time is placed on the
// calendar. State effects that other drives must not see early (tape masks,
// requeues, completions) are deferred to the settle at the discovery time.

// drive is one tape drive: its scheduling view (sharing the jukebox-wide
// Shared state), its scheduler instance, and the operation in flight.
type drive struct {
	st   *sched.State
	schd sched.Scheduler

	busy   bool    // an operation is in flight, finishing at freeAt
	freeAt float64 // completion time of the in-flight operation
	pump   bool    // deliver due arrivals after this settle even past the horizon

	inFlight *sched.Request // request whose read completes at freeAt

	// Fault-model deferrals: the outcome was resolved at issue time but its
	// effects apply when the drive gives up at freeAt, the discovery time.
	abort    []*sched.Request // requests to requeue at freeAt (failed read, aborted sweep)
	failTape int              // tape to mask at freeAt, -1 none
	loadFail bool             // failure was a load: unmount and release busy

	// repairJob, when set, is a background repair write whose new copy is
	// minted at freeAt: other drives must not see it before the write lands.
	// repairRead is the job whose read step is in flight; both clear the
	// job's busy claim at settle.
	repairJob  *repair.Job
	repairRead *repair.Job

	// unfence, when set, marks the in-flight operation as the drive's
	// maintenance downtime: at freeAt the fence mask clears and the
	// drive's error score resets.
	unfence bool
}

// multiAudit, set by tests, verifies busy-vector/mount consistency at every
// kernel step of a multi-drive run.
var multiAudit = false

// run is the kernel loop. Per wake: deliver work and issue operations on
// free drives, then either settle the earliest completion or, with every
// drive empty-handed, sleep until the next arrival.
func (e *engine) run() (*Result, error) {
	for {
		if multiAudit && e.sh.Busy != nil {
			if err := e.verifyBusy(); err != nil {
				return nil, err
			}
		}
		if e.now < e.cfg.Horizon {
			e.expireDue()
			e.pumpArrivals()
			if e.cfg.MaxCompletions > 0 && e.completed >= e.cfg.MaxCompletions {
				e.flushEvents()
				return e.result(), nil
			}
			for i := range e.drives {
				if !e.drives[i].busy {
					if err := e.issue(i); err != nil {
						return nil, err
					}
				}
			}
			e.flushEvents()
		}

		d := e.nextSettle()
		if d < 0 {
			// Nothing in flight anywhere.
			if e.now >= e.cfg.Horizon {
				break
			}
			if len(e.sh.Pending) > 0 && len(e.drives) == 1 {
				return nil, fmt.Errorf("sim: scheduler %s failed to schedule %d pending requests",
					e.drives[0].schd.Name(), len(e.sh.Pending))
			}
			wake := e.nextArr
			if e.writes != nil && e.writes.next < wake {
				wake = e.writes.next
			}
			if e.ovl != nil {
				if te := e.nextDeadline(); te < wake {
					wake = te
				}
			}
			if math.IsInf(wake, 1) {
				break // closed model with nothing left to do
			}
			var dt float64
			if wake >= e.cfg.Horizon {
				dt = e.cfg.Horizon - e.now
			} else {
				dt = wake - e.now
			}
			e.idleSec += dt
			e.advanceClock(e.now + dt)
			e.push(Event{Kind: EventIdle, Time: e.now, Tape: -1, Pos: -1, Seconds: dt})
			e.flushEvents()
			if e.now >= e.cfg.Horizon {
				break
			}
			continue
		}

		if e.ovl != nil && e.now < e.cfg.Horizon {
			// Deadline expiry is a wake source: when a deadline falls before
			// the earliest completion, advance only to the deadline so the
			// expiry (and any closed-model respawn it triggers) is processed
			// at its own time, keeping the event stream in global order.
			if te := e.nextDeadline(); te <= e.drives[d].freeAt && te < e.cfg.Horizon {
				e.advanceClock(te)
				e.flushEvents()
				continue
			}
		}
		e.advanceClock(e.drives[d].freeAt)
		e.flushEvents()
		pumpAfter := e.settle(d)
		if e.now >= e.cfg.Horizon && pumpAfter {
			// Arrivals that landed during an overshooting read or switch are
			// still delivered (they count as arrivals even though no further
			// operation starts).
			e.pumpArrivals()
		}
		e.flushEvents()
	}
	e.flushEvents()
	return e.result(), nil
}

// advanceClock moves wall-clock time to target, accumulating the
// queue-length integral. Activity buckets are charged at issue time,
// segment by segment; idle time is charged only by the idle branch of the
// kernel loop, when no drive has an operation in flight.
func (e *engine) advanceClock(target float64) {
	if target <= e.now {
		return
	}
	e.queueAreaSec += float64(e.outstanding) * (target - e.now)
	e.now = target
	e.sh.Now = target
}

// nextSettle returns the busy drive with the earliest completion (lowest
// index on ties), or -1 when every drive is free.
func (e *engine) nextSettle() int {
	d := -1
	for i := range e.drives {
		if e.drives[i].busy && (d < 0 || e.drives[i].freeAt < e.drives[d].freeAt) {
			d = i
		}
	}
	return d
}

// beginOp places drive d's just-resolved operation on the calendar.
func (e *engine) beginOp(d int, freeAt float64, pumpAfter bool) {
	dr := &e.drives[d]
	dr.busy = true
	dr.freeAt = freeAt
	dr.pump = pumpAfter
}

// settle applies the deferred effects of drive d's finished operation at
// the discovery time e.now == freeAt: tape masks, sweep requeues, and the
// completion itself. It reports whether due arrivals should be delivered
// even past the horizon (reads and successful switches; see run).
func (e *engine) settle(d int) bool {
	dr := &e.drives[d]
	dr.busy = false
	pumpAfter := dr.pump
	dr.pump = false
	st := dr.st
	if dr.failTape >= 0 {
		e.markTapeDown(dr.failTape)
		if dr.loadFail {
			// The cartridge never mounted: the drive is empty and the tape
			// goes back to the library (released exactly once, here).
			e.unload(st)
			dr.loadFail = false
		}
		dr.failTape = -1
	}
	for i, r := range dr.abort {
		e.requeueFaulted(r)
		dr.abort[i] = nil
	}
	dr.abort = dr.abort[:0]
	if r := dr.inFlight; r != nil {
		dr.inFlight = nil
		e.complete(r)
	}
	if j := dr.repairRead; j != nil {
		dr.repairRead = nil
		j.Busy = false
	}
	if j := dr.repairJob; j != nil {
		dr.repairJob = nil
		j.Busy = false
		e.commitRepair(j)
	}
	if dr.unfence {
		// Maintenance is over: the drive rejoins scheduling with a clean
		// error history (the fence would otherwise re-trip immediately).
		dr.unfence = false
		e.sh.Fenced[d] = false
		e.hlt.sc.ResetDrive(d)
	}
	return pumpAfter
}

// issue starts drive d's next operation: a due repair, the next read of its
// sweep, a delta-write flush, or a major reschedule with its tape switch.
// The drive stays free when there is nothing it can do.
func (e *engine) issue(d int) error {
	dr := &e.drives[d]
	if e.now >= e.cfg.Horizon {
		return nil
	}
	st := dr.st
	if st.Active != nil {
		if !st.Active.Empty() {
			// Mid-sweep, a due drive failure binds to the next read attempt
			// (resolveFaultyRead inserts the repair before the attempt).
			e.startRead(d)
			return nil
		}
		e.sh.ReleaseSweep(st.Active)
		st.Active = nil
		// The sweep just drained: the write extension may piggyback a flush
		// on the mounted tape before the next major reschedule.
		if e.piggybackOp(d) {
			return nil
		}
	}
	if e.flt != nil {
		// Between sweeps, a due drive failure takes the drive down for
		// repair before any further operation; the pending-hygiene scan
		// waits until the drive is back.
		if e.now >= e.flt.inj.DriveFailAt(d) {
			e.beginOp(d, e.driveRepair(d, e.now), false)
			return nil
		}
		e.dropUnserviceable()
	}
	if e.hlt != nil && e.healthFenceOp(d) {
		// The drive's error score crossed the fence threshold: it leaves
		// scheduling for maintenance before taking any further work.
		return nil
	}
	if len(e.sh.Pending) == 0 {
		// The drive would otherwise go idle: the first enabled kind of
		// background work that can use it takes one step (see newEngine).
		for _, op := range e.idle {
			if op(d) {
				break
			}
		}
		return nil
	}
	tape, sweep, ok := dr.schd.Reschedule(st)
	if ok && e.ovl != nil && e.ovl.degrade.MaxSweep > 0 && e.overloaded() {
		sweep = e.truncateSweep(st, tape, sweep)
	}
	if !ok {
		// Every candidate tape is claimed by another drive (or FIFO's oldest
		// request is pinned to one); retry at the next wake. The one-drive
		// case cannot unblock itself: the idle branch reports it.
		return nil
	}
	if e.cfg.RAO {
		// Serpentine drives execute the sweep in Recommended Access Order:
		// greedy nearest-first physical order from the head the schedule
		// starts at (0 after a switch). Scheduling costs were evaluated on
		// the elevator order; the reorder is a drive-level service detail.
		sweep.ReorderRAO(e.prof, e.cfg.BlockMB, st.StartHead(tape))
	}
	if e.sh.Busy != nil && e.sh.Busy[tape] && tape != st.Mounted {
		return fmt.Errorf("sim: scheduler %s selected busy tape %d", dr.schd.Name(), tape)
	}
	if tape != st.Mounted {
		sw := e.sh.Costs.SwitchCost(st.Mounted, st.Head, tape)
		e.load(d, tape)
		st.Active = sweep
		if e.flt != nil {
			e.resolveFaultySwitch(d, tape, sw)
			return nil
		}
		vt := e.now + sw
		e.switched(tape, vt, sw)
		e.beginOp(d, vt, true)
		return nil
	}
	st.Active = sweep
	e.startRead(d)
	return nil
}

// startRead pops the drive's next sweep request and issues its retrieval,
// resolving the completion time (and, under the fault model, the whole
// fault story) now.
func (e *engine) startRead(d int) {
	r := e.drives[d].st.Active.Pop()
	if e.ovl != nil && e.now > e.warmupEnd {
		e.noteQueueAge(e.now - r.Arrival)
	}
	if e.flt != nil {
		e.resolveFaultyRead(d, r)
		return
	}
	e.read(d, r, e.now)
}

// The drive-operation primitives. Every operation the kernel issues -- a
// user read or switch, a faulty read, a delta-write flush, a repair read
// or write, a scrub read, a drive repair -- is composed from these over a
// virtual clock vt, so each effect (busy vector, mount state, time
// buckets, counters, events) is written once. Charges keep one float
// association throughout: a locate-and-transfer step adds sec := loc+xfer
// to vt (vt += sec, never vt + loc + xfer), and a user read adds loc and
// then the transfer; the event streams pin both.

// load mounts tape on drive d: the busy vector moves from the old
// cartridge to the new one and the health scorer records the mount's wear
// (the robot handles the cartridge whether or not the load succeeds).
func (e *engine) load(d, tape int) {
	st := e.drives[d].st
	if e.sh.Busy != nil {
		if st.Mounted >= 0 {
			e.sh.Busy[st.Mounted] = false
		}
		e.sh.Busy[tape] = true
	}
	st.Mounted, st.Head = tape, 0
	e.noteMount(tape)
}

// unload empties drive st, returning its cartridge to the library.
func (e *engine) unload(st *sched.State) {
	if e.sh.Busy != nil && st.Mounted >= 0 {
		e.sh.Busy[st.Mounted] = false
	}
	st.Mounted, st.Head = -1, 0
}

// switched books a successful switch to tape that took sw and ended at vt.
func (e *engine) switched(tape int, vt, sw float64) {
	e.switchSec += sw
	if vt > e.warmupEnd {
		e.switches++
	}
	e.push(Event{Kind: EventSwitch, Time: vt, Tape: tape, Pos: -1, Seconds: sw})
}

// mount moves drive d to tape for background work starting at vt (a no-op
// when the tape is already mounted) and returns the post-switch clock.
// Background mounts are real switches. A tape already dead at load is
// discovered as in resolveFaultySwitch -- the drive ends the operation
// empty, the switch time goes to *sink, and the tape is masked at settle --
// but without any injector draw, so the fault stream is unchanged; mount
// then reports false.
func (e *engine) mount(d, tape int, vt float64, sink *float64) (float64, bool) {
	dr := &e.drives[d]
	if tape == dr.st.Mounted {
		return vt, true
	}
	sw := e.sh.Costs.SwitchCost(dr.st.Mounted, dr.st.Head, tape)
	e.load(d, tape)
	if e.flt != nil && e.flt.inj.TapeFailed(tape, vt) {
		*sink += sw
		dr.failTape, dr.loadFail = tape, true
		e.beginOp(d, vt+sw, false)
		return vt + sw, false
	}
	vt += sw
	e.switched(tape, vt, sw)
	return vt, true
}

// access locates drive state st from vt to pos and transfers one block,
// charging the drive time to *sink. It returns the advanced clock and the
// seconds spent.
func (e *engine) access(st *sched.State, pos int, vt float64, sink *float64) (float64, float64) {
	loc, xfer, head := e.sh.Costs.ServeOneParts(st.Head, pos)
	sec := loc + xfer
	*sink += sec
	st.Head = head
	return vt + sec, sec
}

// deadAt reports whether tape has failed by vt. If it has, drive d's
// locate to pos runs into the failure: the locate is charged to *sink, the
// operation ends there, and the tape is masked at settle.
func (e *engine) deadAt(d, tape, pos int, vt float64, sink *float64, pump bool) bool {
	if e.flt == nil || !e.flt.inj.TapeFailed(tape, vt) {
		return false
	}
	dr := &e.drives[d]
	loc, _, _ := e.sh.Costs.ServeOneParts(dr.st.Head, pos)
	*sink += loc
	dr.failTape = tape
	e.beginOp(d, vt+loc, pump)
	return true
}

// read issues drive d's successful retrieval of r from vt: the locate and
// the transfer are charged to their own buckets and r completes at settle.
func (e *engine) read(d int, r *sched.Request, vt float64) {
	dr := &e.drives[d]
	loc, rd, head := e.sh.Costs.ServeOneParts(dr.st.Head, r.Target.Pos)
	vt += loc
	e.locateSec += loc
	vt += rd
	e.readSec += rd
	dr.st.Head = head
	if vt > e.warmupEnd {
		e.readsPerTape[r.Target.Tape]++
	}
	e.push(Event{Kind: EventRead, Time: vt, Tape: r.Target.Tape,
		Pos: r.Target.Pos, Seconds: loc + rd, Request: r.ID})
	dr.inFlight = r
	e.beginOp(d, vt, true)
}

// driveRepair takes drive d down for a due failure's repair starting at vt
// and returns the time it is back.
func (e *engine) driveRepair(d int, vt float64) float64 {
	f := e.flt
	rep := f.inj.DriveRepair(d, vt)
	f.driveFails++
	f.repairSec += rep
	vt += rep
	e.push(Event{Kind: EventDriveRepair, Time: vt, Tape: -1, Pos: -1, Seconds: rep})
	e.noteFaultErr(d, -1, vt)
	return vt
}

// verifyBusy checks the busy-vector hygiene invariants: every mounted (or
// loading) tape is busy, no tape is mounted twice, and every busy tape is
// accounted for by exactly one drive (a release happens exactly once).
func (e *engine) verifyBusy() error {
	owners := make(map[int]int)
	for d := range e.drives {
		t := e.drives[d].st.Mounted
		if t < 0 {
			continue
		}
		if prev, dup := owners[t]; dup {
			return fmt.Errorf("sim: tape %d mounted in drives %d and %d", t, prev, d)
		}
		owners[t] = d
		if !e.sh.Busy[t] {
			return fmt.Errorf("sim: tape %d mounted in drive %d but not busy", t, d)
		}
	}
	busyCount := 0
	for t := range e.sh.Busy {
		if e.sh.Busy[t] {
			busyCount++
		}
	}
	if busyCount != len(owners) {
		return fmt.Errorf("sim: %d busy tapes but %d mounted drives", busyCount, len(owners))
	}
	return nil
}

// queuedEvent pairs an event with its push sequence so simultaneous events
// release in push order.
type queuedEvent struct {
	ev  Event
	seq int64
}

func (a queuedEvent) before(b queuedEvent) bool {
	if a.ev.Time != b.ev.Time {
		return a.ev.Time < b.ev.Time
	}
	return a.seq < b.seq
}

// heap4 is the kernel's calendar: a 4-ary min-heap under the elements'
// before order, holding the deferred observer events and the deadline
// calendar (overload.go). Elements are stored by value, with no interface
// boxing, and the 4-ary layout halves the levels walked per operation.
// Both element orders are total, so the pop sequence -- and hence the
// observed event stream -- is fully determined.
type heap4[T interface{ before(T) bool }] []T

func (h *heap4[T]) push(x T) {
	q := append(*h, x)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !q[i].before(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *heap4[T]) pop() T {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	var zero T
	q[n] = zero
	q = q[:n]
	*h = q
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if q[j].before(q[best]) {
				best = j
			}
		}
		if !q[best].before(q[i]) {
			break
		}
		q[i], q[best] = q[best], q[i]
		i = best
	}
	return top
}

// push queues an event for the observer. Events may be pushed with future
// timestamps (an operation's interior attempts and completion, resolved at
// issue time); flushEvents releases them once the clock catches up, keeping
// the observed stream in global time order across drives.
func (e *engine) push(ev Event) {
	if e.cfg.Observer == nil {
		return
	}
	e.evSeq++
	e.evq.push(queuedEvent{ev: ev, seq: e.evSeq})
}

// flushEvents delivers every queued event due by now.
func (e *engine) flushEvents() {
	if e.cfg.Observer == nil {
		return
	}
	for len(e.evq) > 0 && e.evq[0].ev.Time <= e.now {
		e.cfg.Observer.Observe(e.evq.pop().ev)
	}
}
