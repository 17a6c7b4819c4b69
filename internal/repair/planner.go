package repair

import (
	"math/bits"

	"tapejuke/internal/layout"
)

// Step identifies the next action a repair job needs. A job is a two-step
// state machine -- read a surviving copy, then write the new one -- and
// the step only ever advances: an interrupted job resumes from its last
// completed step.
type Step uint8

const (
	StepRead  Step = iota // next action: read a surviving copy
	StepWrite             // read done; next action: write the new copy
)

// SrcStatus reports the outcome of source selection for a job's read step.
type SrcStatus uint8

const (
	SrcOK   SrcStatus = iota // a surviving copy was chosen
	SrcBusy                  // live copies exist but none is claimable right now
	SrcGone                  // no live copy anywhere: the block is beyond repair
	SrcDone                  // the block already has its target number of live copies
)

// Kind distinguishes why a job exists. Both kinds run the same read/write
// state machine; they differ only in what happens around it.
type Kind uint8

const (
	// KindRepair restores a lost copy (or promotes a hot block). On commit
	// the block is re-examined and a fresh job enqueued if still under
	// target.
	KindRepair Kind = iota
	// KindEvacuate moves a copy off a suspect tape: mint one extra copy
	// elsewhere first, then (engine-side, after the commit settles) remove
	// the copy at From. Mint-before-remove means the block never drops
	// below its pre-evacuation copy count, so an interrupted evacuation
	// degrades to a no-op plus at most one spare copy.
	KindEvacuate
)

// Job is one unit of re-replication work: mint exactly one new copy of
// Block. Jobs are identified by a monotone ID so traces and the verifier
// can match a write step to the read step that fed it.
type Job struct {
	ID    int64
	Kind  Kind
	Block layout.BlockID
	At    float64 // enqueue time: when the copy loss was discovered
	Want  int     // target number of live copies for the block
	Step  Step
	Src   layout.Replica // surviving copy chosen for the read step
	Dst   layout.Replica // reserved destination; valid while Reserved
	From  layout.Replica // evacuation only: the copy to vacate after commit
	// Reserved marks that Dst's position is held in the planner's
	// reservation table; it is released on commit, abort, and cancel
	// alike.
	Reserved bool
	// Busy marks the job's current step as executing on some drive: set
	// at issue, cleared when that operation settles. Other drives skip a
	// busy job, so a step is never double-issued (a second drive would
	// otherwise follow the first's reservation onto its busy tape).
	Busy bool
}

// Config tunes the planner's promotion and reclamation policy.
type Config struct {
	// MaxCopies caps the number of copies per block that promotion may
	// reach. Repair of lost copies targets each block's build-time count
	// regardless.
	MaxCopies int
	// PromoteHeat, when positive, enqueues an extra copy for blocks whose
	// decayed heat reaches it.
	PromoteHeat float64
	// ReclaimHeat, when positive, nominates excess copies of blocks whose
	// heat has fallen to or below it for reclamation.
	ReclaimHeat float64
	// ScanRate is the number of blocks the rotating promote/reclaim scan
	// inspects per idle visit.
	ScanRate int
}

// Planner owns the repair job table. It mutates the layout only inside
// Commit (adding the minted copy); everything else is bookkeeping, so an
// interrupted job leaves no trace beyond its own entry.
type Planner struct {
	lay  *layout.Layout
	heat *Heat
	cfg  Config

	// copyOK reports whether a physical copy is readable (its tape is up
	// and the copy itself is not dead). tapeUp reports whether a tape may
	// receive new copies at all (not discovered failed). posOK reports
	// whether a free position may hold a new copy (not a known bad block).
	copyOK func(layout.Replica) bool
	tapeUp func(tape int) bool
	posOK  func(tape, pos int) bool
	// destOK, when non-nil, further filters destination tapes for every
	// job kind (the health extension excludes suspect tapes: repairing
	// onto a tape queued for evacuation would be wasted motion).
	destOK func(tape int) bool

	jobs    []*Job  // active jobs in ID order
	byBlock []*Job  // indexed by BlockID: the block's active job, or nil
	base    []int32 // copies per block at construction time
	nextID  int64
	cursor  int // rotating scan position
	created int64

	// Destination tables, per tape, as bitmaps laid out like the layout's
	// free bitmap (stride words per tape, bit p%64 of word p/64 for
	// position p). reserved marks positions held by in-flight writes;
	// knownBad caches positions posOK has rejected, which stay rejected
	// because posOK only ever turns from true to false. ChooseDest
	// searches free &^ reserved &^ knownBad a word at a time.
	stride    int
	reserved  []uint64
	knownBad  []uint64
	resByTape []int32

	ranking Ranking // scratch for Rank
}

// New builds a planner over lay. copyOK, tapeUp, and posOK inject
// liveness; any may be nil, meaning everything is live.
//
// posOK must be monotone: once it reports a position unusable, it must
// never report it usable again (dead media stays dead -- the fault model
// only ever adds dead positions). The planner caches every rejection and
// does not ask again.
func New(lay *layout.Layout, heat *Heat, cfg Config,
	copyOK func(layout.Replica) bool, tapeUp func(tape int) bool,
	posOK func(tape, pos int) bool) *Planner {
	if copyOK == nil {
		copyOK = func(layout.Replica) bool { return true }
	}
	if tapeUp == nil {
		tapeUp = func(int) bool { return true }
	}
	if posOK == nil {
		posOK = func(int, int) bool { return true }
	}
	if cfg.ScanRate <= 0 {
		cfg.ScanRate = 64
	}
	stride := lay.FreeStride()
	p := &Planner{
		lay: lay, heat: heat, cfg: cfg, copyOK: copyOK, tapeUp: tapeUp, posOK: posOK,
		byBlock:   make([]*Job, lay.NumBlocks()),
		base:      make([]int32, lay.NumBlocks()),
		stride:    stride,
		reserved:  make([]uint64, lay.Tapes()*stride),
		knownBad:  make([]uint64, lay.Tapes()*stride),
		resByTape: make([]int32, lay.Tapes()),
		nextID:    1,
	}
	for b := range p.base {
		p.base[b] = int32(len(lay.Replicas(layout.BlockID(b))))
	}
	return p
}

// SetDestFilter installs (or clears, with nil) the destination-tape filter
// consulted by feasibility checks and ChooseDest for every job. Existing
// reservations are unaffected; a newly excluded tape simply receives no
// further reservations.
func (p *Planner) SetDestFilter(f func(tape int) bool) { p.destOK = f }

// LiveCopies counts block b's readable copies.
func (p *Planner) LiveCopies(b layout.BlockID) int {
	n := 0
	for _, c := range p.lay.Replicas(b) {
		if p.copyOK(c) {
			n++
		}
	}
	return n
}

// Base returns block b's copy count at planner construction: the target
// that loss-driven repair restores.
func (p *Planner) Base(b layout.BlockID) int { return int(p.base[b]) }

// Active returns the number of jobs currently in the table.
func (p *Planner) Active() int { return len(p.jobs) }

// Created returns the total number of jobs ever enqueued.
func (p *Planner) Created() int64 { return p.created }

// ReservedCount returns the number of outstanding destination
// reservations; it must be zero once the job table drains (leaked scratch
// state otherwise).
func (p *Planner) ReservedCount() int {
	n := 0
	for _, w := range p.reserved {
		n += bits.OnesCount64(w)
	}
	return n
}

// Feasible reports whether some up tape could receive a new copy of j's
// block right now: no existing copy there and spare capacity beyond the
// outstanding reservations. Jobs that fail this are cancelled instead of
// lingering; the rotating scan re-enqueues the block if capacity frees up
// (reclaim) while it is still under-replicated.
func (p *Planner) Feasible(j *Job) bool { return p.hasDest(j.Block) }

// hasDest reports whether some acceptable up tape without a copy of b has
// more free positions than reservations.
//
// Known miscount, kept deliberately: free positions that posOK rejects
// (known bad blocks) still count as spare here. A tape whose only free
// positions are dead therefore looks writable, so a write job aimed at it
// is neither refused at enqueue nor cancelled when ChooseDest fails; it
// stays in the table and retries on every idle visit. On the
// BenchmarkScrubIdle run ChooseDest was called 298,470 times and failed
// 297,381 times, every failing candidate tape holding exactly 4 free
// positions, all known bad. Counting only usable positions would stop
// such jobs from being created -- including ones that already spent a
// source read -- and so would change event streams; that fix is a
// behaviour change of its own.
func (p *Planner) hasDest(b layout.BlockID) bool {
	for t := 0; t < p.lay.Tapes(); t++ {
		if p.lay.FreeBlocks(t)-int(p.resByTape[t]) <= 0 {
			continue
		}
		if _, dup := p.lay.ReplicaOn(b, t); dup {
			continue
		}
		if p.tapeUp(t) && (p.destOK == nil || p.destOK(t)) {
			return true
		}
	}
	return false
}

// enqueue creates a job targeting `want` live copies of b, if one is
// worthwhile: no job already covers b, at least one copy survives, the
// block is below target, and a destination tape exists.
func (p *Planner) enqueue(b layout.BlockID, now float64, want int) *Job {
	if p.byBlock[b] != nil {
		return nil
	}
	live := p.LiveCopies(b)
	if live == 0 || live >= want {
		return nil
	}
	if !p.hasDest(b) {
		return nil
	}
	j := &Job{ID: p.nextID, Block: b, At: now, Want: want}
	p.nextID++
	p.created++
	p.jobs = append(p.jobs, j)
	p.byBlock[b] = j
	return j
}

// EnqueueEvacuation creates a job that moves block b's copy at `from` off
// its tape: mint one extra copy elsewhere (Want = live+1), then the caller
// removes `from` once the mint commits. Returns nil when the block is
// already covered by a job, the copy at `from` is not readable (nothing to
// vacate -- plain repair owns dead copies), no live copy exists, or no
// destination tape can take the extra copy.
func (p *Planner) EnqueueEvacuation(b layout.BlockID, from layout.Replica, now float64) *Job {
	// The copy at `from` is live, so the block has at least one live copy;
	// counting them waits until the job is known to be created.
	if p.byBlock[b] != nil || !p.copyOK(from) || !p.hasDest(b) {
		return nil
	}
	j := &Job{ID: p.nextID, Kind: KindEvacuate, Block: b, At: now, Want: p.LiveCopies(b) + 1, From: from}
	p.nextID++
	p.created++
	p.jobs = append(p.jobs, j)
	p.byBlock[b] = j
	return j
}

// EvacMoot reports that an evacuation job's purpose has evaporated: the
// copy it was to vacate is no longer readable (its tape died, or the copy
// escalated to dead), so plain repair -- not evacuation -- now owns the
// block. Moot jobs should be cancelled.
func (p *Planner) EvacMoot(j *Job) bool {
	return j.Kind == KindEvacuate && !p.copyOK(j.From)
}

// NoteTapeFail reacts to a tape death: every block that had a copy on the
// tape is a repair candidate.
func (p *Planner) NoteTapeFail(tape int, now float64) {
	for _, s := range p.lay.TapeContents(tape) {
		p.enqueue(s.Block, now, p.Base(s.Block))
	}
}

// NoteCopyDead reacts to a single copy death (a bad block escalation).
func (p *Planner) NoteCopyDead(tape, pos int, now float64) {
	if b, ok := p.lay.BlockAt(tape, pos); ok {
		p.enqueue(b, now, p.Base(b))
	}
}

// Ranking iterates a snapshot of the active jobs hottest-first (ties break
// toward the older job, so the order is total). It is a binary heap over
// keys computed once, so a caller that stops after the first few jobs
// pays O(jobs) to rank plus O(log jobs) per job taken, not a full sort.
// Jobs enqueued or retired after the snapshot do not change it.
type Ranking struct {
	jobs []*Job    // the snapshot, in ID order
	keys []rankKey // heap of indexes into jobs
}

// rankKey is one job's place in the ranked order. Because the snapshot is
// in ID order, the index orders ties exactly as the job IDs would.
type rankKey struct {
	heat float64
	idx  int
}

// before reports whether a ranks ahead of b: hotter first, then older.
func (a rankKey) before(b rankKey) bool {
	return a.heat > b.heat || (a.heat == b.heat && a.idx < b.idx)
}

// Rank snapshots the active jobs for ranked iteration at time now so idle
// drive time goes to the blocks most likely to be requested. The returned
// cursor is the planner's own, reused by the next call.
//
// Each job's heat is read once, and only when there are at least two jobs:
// reading heat decays the block's counter to now, and this keeps those
// side effects exactly those of the stable sort the ranking replaced (a
// comparison sort reads every element of a list of two or more, and none
// of a list of one).
func (p *Planner) Rank(now float64) *Ranking {
	r := &p.ranking
	clear(r.jobs)
	r.jobs = append(r.jobs[:0], p.jobs...)
	r.keys = r.keys[:0]
	if len(r.jobs) == 1 {
		r.keys = append(r.keys, rankKey{})
		return r
	}
	for i, j := range r.jobs {
		r.keys = append(r.keys, rankKey{heat: p.heat.At(int(j.Block), now), idx: i})
	}
	for i := len(r.keys)/2 - 1; i >= 0; i-- {
		r.siftDown(i, r.keys[i])
	}
	return r
}

// Next returns the next job in ranked order, or nil once every job of the
// snapshot has been returned.
func (r *Ranking) Next() *Job {
	n := len(r.keys) - 1
	if n < 0 {
		return nil
	}
	j := r.jobs[r.keys[0].idx]
	last := r.keys[n]
	r.keys = r.keys[:n]
	if n > 0 {
		r.siftDown(0, last)
	}
	return j
}

// siftDown places key k at heap position i (whose current key is
// discarded) and restores the heap order below it.
func (r *Ranking) siftDown(i int, k rankKey) {
	h := r.keys
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(k) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = k
}

// PickSource selects the surviving copy j's read step should use. ok, when
// non-nil, further filters candidates (the engine rejects tapes another
// drive holds). SrcDone and SrcGone mean the job should be cancelled.
func (p *Planner) PickSource(j *Job, ok func(layout.Replica) bool) (layout.Replica, SrcStatus) {
	if p.EvacMoot(j) {
		return layout.Replica{}, SrcDone
	}
	if p.LiveCopies(j.Block) >= j.Want {
		return layout.Replica{}, SrcDone
	}
	anyLive := false
	for _, c := range p.lay.Replicas(j.Block) {
		if !p.copyOK(c) {
			continue
		}
		anyLive = true
		if ok == nil || ok(c) {
			j.Src = c
			return c, SrcOK
		}
	}
	if anyLive {
		return layout.Replica{}, SrcBusy
	}
	return layout.Replica{}, SrcGone
}

// FinishRead advances j past its completed read step.
func (p *Planner) FinishRead(j *Job) { j.Step = StepWrite }

// ChooseDest reserves a destination for j's write step: the acceptable
// tape with the most spare capacity (ties toward the lowest index) that
// holds no copy of the block and has a usable free position, at its lowest
// usable free position. tapeOK, when non-nil, filters tapes (the engine
// requires up and claimable). Returns false when no destination exists
// right now.
//
// The cheap capacity tests run before the liveness predicates: every test
// is free of side effects (posOK's rejections are only cached), so their
// order cannot change the choice, and on the common failing call -- every
// tape's free positions known bad -- the predicates are never consulted.
func (p *Planner) ChooseDest(j *Job, tapeOK func(int) bool) (layout.Replica, bool) {
	if j.Reserved {
		return j.Dst, true
	}
	best, bestPos, bestSpare := -1, -1, 0
	for t := 0; t < p.lay.Tapes(); t++ {
		spare := p.lay.FreeBlocks(t) - int(p.resByTape[t])
		if spare <= bestSpare { // ties keep the lower tape
			continue
		}
		pos := p.firstUsable(t)
		if pos < 0 {
			continue
		}
		if _, dup := p.lay.ReplicaOn(j.Block, t); dup {
			continue
		}
		if !p.tapeUp(t) || (tapeOK != nil && !tapeOK(t)) ||
			(p.destOK != nil && !p.destOK(t)) {
			continue
		}
		best, bestPos, bestSpare = t, pos, spare
	}
	if best < 0 {
		return layout.Replica{}, false
	}
	j.Dst = layout.Replica{Tape: best, Pos: bestPos}
	j.Reserved = true
	p.reserved[best*p.stride+bestPos/64] |= 1 << uint(bestPos%64)
	p.resByTape[best]++
	return j.Dst, true
}

// firstUsable returns the lowest position on tape t that is free,
// unreserved and accepted by posOK, or -1. Positions posOK rejects are
// recorded in knownBad so no later search asks about them again.
func (p *Planner) firstUsable(t int) int {
	off := t * p.stride
	res := p.reserved[off : off+p.stride]
	bad := p.knownBad[off : off+p.stride]
	for i, w := range p.lay.FreeWords(t) {
		for m := w &^ res[i] &^ bad[i]; m != 0; m &= m - 1 {
			bit := bits.TrailingZeros64(m)
			pos := i*64 + bit
			if p.posOK(t, pos) {
				return pos
			}
			bad[i] |= 1 << uint(bit)
		}
	}
	return -1
}

// release drops j's destination reservation, if any.
func (p *Planner) release(j *Job) {
	if !j.Reserved {
		return
	}
	p.reserved[j.Dst.Tape*p.stride+j.Dst.Pos/64] &^= 1 << uint(j.Dst.Pos%64)
	p.resByTape[j.Dst.Tape]--
	j.Reserved = false
}

// Abort rolls back an issued write whose destination died before the
// commit settled: the reservation is released and the job stays at
// StepWrite with its completed read intact (monotone -- no regression).
func (p *Planner) Abort(j *Job) { p.release(j) }

// Commit finalizes j's write step: the minted copy enters the layout at
// the reserved destination, the reservation is released, and the job is
// retired. If a repair job's block is still under target (several copies
// were lost) a fresh job is enqueued; an evacuation job instead leaves the
// follow-up -- removing the copy at From -- to its caller. Returns the new
// copy.
func (p *Planner) Commit(j *Job, now float64) (layout.Replica, error) {
	if err := p.lay.AddCopy(j.Block, j.Dst.Tape, j.Dst.Pos); err != nil {
		return layout.Replica{}, err
	}
	c := j.Dst
	p.release(j)
	p.drop(j)
	if j.Kind == KindRepair {
		p.enqueue(j.Block, now, j.Want)
	}
	return c, nil
}

// Cancel retires j without minting anything, releasing any reservation.
func (p *Planner) Cancel(j *Job) {
	p.release(j)
	p.drop(j)
}

func (p *Planner) drop(j *Job) {
	for i, q := range p.jobs {
		if q == j {
			p.jobs = append(p.jobs[:i], p.jobs[i+1:]...)
			break
		}
	}
	if p.byBlock[j.Block] == j {
		p.byBlock[j.Block] = nil
	}
}

// Scan advances the rotating block scan by ScanRate blocks: it enqueues
// repair for under-replicated blocks the event path missed (injected bad
// blocks), promotes hot blocks toward MaxCopies, and nominates cold
// excess copies to the reclaim callback, which performs the removal (the
// engine vetoes copies that are in use) and reports whether it did.
func (p *Planner) Scan(now float64, reclaim func(layout.BlockID, layout.Replica) bool) {
	n := p.lay.NumBlocks()
	if n == 0 {
		return
	}
	steps := p.cfg.ScanRate
	if steps > n {
		steps = n
	}
	for i := 0; i < steps; i++ {
		b := layout.BlockID(p.cursor)
		p.cursor = (p.cursor + 1) % n
		if p.byBlock[b] != nil {
			continue
		}
		live := p.LiveCopies(b)
		base := p.Base(b)
		switch {
		case live >= 1 && live < base:
			p.enqueue(b, now, base)
		case p.cfg.PromoteHeat > 0 && live >= base && live < p.cfg.MaxCopies &&
			p.heat.At(int(b), now) >= p.cfg.PromoteHeat:
			p.enqueue(b, now, live+1)
		case p.cfg.ReclaimHeat > 0 && live > base &&
			p.heat.At(int(b), now) <= p.cfg.ReclaimHeat:
			if c, ok := p.reclaimVictim(b); ok {
				reclaim(b, c)
			}
		}
	}
}

// reclaimVictim picks the copy to give back: the newest live copy that is
// not the original.
func (p *Planner) reclaimVictim(b layout.BlockID) (layout.Replica, bool) {
	cs := p.lay.Replicas(b)
	for i := len(cs) - 1; i >= 1; i-- {
		if p.copyOK(cs[i]) {
			return cs[i], true
		}
	}
	return layout.Replica{}, false
}
