// Package faults models device unreliability in a tape jukebox: the fault
// classes a robotic tape library actually exhibits, generated as
// deterministic seeded streams so that fault runs are exactly reproducible.
//
// The paper studies replication purely as a performance lever; this package
// opens the availability axis the replication literature treats as primary
// (a replica is also redundancy). Five fault classes are modelled:
//
//   - transient media read errors: an individual block read fails with a
//     configurable probability and succeeds on retry;
//   - permanent bad-block ranges: short runs of tape positions that always
//     fail, placed per tape at initialization;
//   - whole-tape failures: each tape has an exponentially distributed time
//     to failure (mean TapeMTBFSec); once past it, every operation on the
//     tape fails permanently;
//   - drive failures: each drive has an exponential time between failures
//     and a fixed repair time during which it serves nothing;
//   - load/unload (switch) failures: a tape switch fails with a
//     configurable probability, consuming the mechanical time and forcing a
//     retry.
//
// A RetryPolicy bounds transient-error retries with simulated-time backoff
// and escalates to a permanent error on exhaustion. The Injector is the
// stream generator the simulator and jukebox Deck consult; it is
// single-goroutine, like the discrete-event simulator that owns it.
package faults

import (
	"fmt"
	"math"
	"math/rand"
)

// Config describes the fault environment of one run. The zero value
// disables every fault class.
type Config struct {
	// ReadTransientProb is the probability that one block-read attempt
	// fails with a recoverable media error. Retries redraw independently.
	ReadTransientProb float64
	// BadBlocksPerTape is the expected number of permanent bad-block
	// ranges per tape, placed uniformly at initialization (Poisson count
	// per tape). Reads inside a bad range always fail permanently.
	BadBlocksPerTape float64
	// BadBlockRangeLen is the maximum length, in blocks, of one bad range
	// (each range draws a length in [1, BadBlockRangeLen]; default 4).
	// Latent ranges (below) draw their lengths from the same bound.
	BadBlockRangeLen int
	// LatentErrorsPerTape is the expected number of latent bad-block ranges
	// per tape (Poisson count, like BadBlocksPerTape). A latent range is
	// placed at initialization but only becomes unreadable at its onset
	// time; until some read -- a user request or a background scrub --
	// touches it after onset, the error is undetected and the copy still
	// looks live to the scheduler. The media-patrol literature calls these
	// latent sector errors; they are what background scrubbing exists to
	// catch.
	LatentErrorsPerTape float64
	// LatentMeanOnsetSec is the mean of the exponential onset-time draw for
	// each latent range (default 500,000 s when latent errors are enabled).
	LatentMeanOnsetSec float64
	// TapeMTBFSec, when positive, gives each tape an exponentially
	// distributed time to permanent failure with this mean.
	TapeMTBFSec float64
	// DriveMTBFSec, when positive, gives each drive an exponentially
	// distributed uptime between failures with this mean.
	DriveMTBFSec float64
	// DriveRepairSec is the downtime of one drive failure (default 3600 s
	// when drive failures are enabled).
	DriveRepairSec float64
	// SwitchFailProb is the probability that one tape load/unload attempt
	// fails, consuming the mechanical switch time.
	SwitchFailProb float64

	// Retry bounds transient-error handling; zero values select the
	// defaults (3 retries, 30 s initial backoff, doubling).
	Retry RetryPolicy

	// Seed makes the fault streams deterministic. Independent of the
	// workload seed so fault and workload randomness do not interfere.
	Seed int64
}

// RetryPolicy bounds the handling of transient errors: up to MaxRetries
// extra attempts, with a simulated-time backoff before each, escalating to
// a permanent error when the budget is exhausted.
type RetryPolicy struct {
	// MaxRetries is the number of retry attempts after the first failure
	// (default 3 when the fault model is enabled).
	MaxRetries int
	// BackoffSec is the pause before the first retry (default 30 s).
	BackoffSec float64
	// BackoffFactor multiplies the pause for each further retry
	// (default 2).
	BackoffFactor float64
}

// withDefaults fills unset retry fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxRetries == 0 {
		p.MaxRetries = 3
	}
	if p.BackoffSec == 0 {
		p.BackoffSec = 30
	}
	if p.BackoffFactor == 0 {
		p.BackoffFactor = 2
	}
	return p
}

// Delay returns the simulated-time backoff before retry attempt `attempt`
// (1-based: the pause before the first retry is Delay(1)).
func (p RetryPolicy) Delay(attempt int) float64 {
	d := p.BackoffSec
	for i := 1; i < attempt; i++ {
		d *= p.BackoffFactor
	}
	return d
}

// Enabled reports whether any fault class is active.
func (c Config) Enabled() bool {
	return c.ReadTransientProb > 0 || c.BadBlocksPerTape > 0 ||
		c.TapeMTBFSec > 0 || c.DriveMTBFSec > 0 || c.SwitchFailProb > 0 ||
		c.LatentErrorsPerTape > 0
}

// Validate reports the first configuration error.
func (c Config) Validate() error {
	if c.ReadTransientProb < 0 || c.ReadTransientProb >= 1 {
		return fmt.Errorf("faults: ReadTransientProb %v out of [0,1)", c.ReadTransientProb)
	}
	if c.SwitchFailProb < 0 || c.SwitchFailProb >= 1 {
		return fmt.Errorf("faults: SwitchFailProb %v out of [0,1)", c.SwitchFailProb)
	}
	if c.BadBlocksPerTape < 0 {
		return fmt.Errorf("faults: BadBlocksPerTape %v must be non-negative", c.BadBlocksPerTape)
	}
	if c.BadBlockRangeLen < 0 {
		return fmt.Errorf("faults: BadBlockRangeLen %d must be non-negative", c.BadBlockRangeLen)
	}
	if c.LatentErrorsPerTape < 0 {
		return fmt.Errorf("faults: LatentErrorsPerTape %v must be non-negative", c.LatentErrorsPerTape)
	}
	if c.LatentMeanOnsetSec < 0 {
		return fmt.Errorf("faults: LatentMeanOnsetSec %v must be non-negative", c.LatentMeanOnsetSec)
	}
	if c.LatentMeanOnsetSec > 0 && c.LatentErrorsPerTape == 0 {
		return fmt.Errorf("faults: LatentMeanOnsetSec set without LatentErrorsPerTape")
	}
	if c.TapeMTBFSec < 0 {
		return fmt.Errorf("faults: TapeMTBFSec %v must be non-negative", c.TapeMTBFSec)
	}
	if c.DriveMTBFSec < 0 {
		return fmt.Errorf("faults: DriveMTBFSec %v must be non-negative", c.DriveMTBFSec)
	}
	if c.DriveRepairSec < 0 {
		return fmt.Errorf("faults: DriveRepairSec %v must be non-negative", c.DriveRepairSec)
	}
	if c.DriveRepairSec > 0 && c.DriveMTBFSec == 0 {
		return fmt.Errorf("faults: DriveRepairSec set without DriveMTBFSec")
	}
	r := c.Retry
	if r.MaxRetries < 0 || r.BackoffSec < 0 {
		return fmt.Errorf("faults: retry policy %+v must be non-negative", r)
	}
	if r.BackoffFactor != 0 && r.BackoffFactor < 1 {
		return fmt.Errorf("faults: BackoffFactor %v would shrink the backoff; need >= 1 (or 0 for the default)",
			r.BackoffFactor)
	}
	return nil
}

// Outcome classifies one faulted operation attempt.
type Outcome int

const (
	// OK: the attempt succeeded.
	OK Outcome = iota
	// Transient: the attempt failed but a retry may succeed.
	Transient
	// Permanent: the attempt failed and no retry on this copy can succeed.
	Permanent
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	}
	return "unknown"
}

// Injector generates the fault streams for one simulation run. It is not
// safe for concurrent use; the single-threaded discrete-event simulator
// consults it in event order, which is what makes runs reproducible.
type Injector struct {
	cfg   Config
	retry RetryPolicy
	rng   *rand.Rand

	tapeFailAt  []float64 // per-tape permanent failure time (+Inf = never)
	driveFailAt []float64 // per-drive next failure time (+Inf = never)
	// bad is the dense bitset of permanently dead copies: bit p%64 of word
	// t*badStride+p/64 is set when (t, p) is dead. nil until the first dead
	// position appears, so fault models without bad blocks never pay for it.
	bad         []uint64
	badStride   int
	badInjected int // bad blocks placed at initialization
	tapeCap     int

	latent  map[int64]float64 // packed (tape,pos) -> latent-error onset time
	latents []Latent          // the same positions in deterministic draw order
}

// Latent is one latent bad-block position: physically unreadable from Onset
// on, but undetected (and still targeted by schedulers) until a read first
// touches it after onset.
type Latent struct {
	Tape, Pos int
	Onset     float64
}

// New builds the injector for a jukebox of `tapes` tapes of tapeCapBlocks
// blocks shared by `drives` drives. All randomness (bad-block placement,
// failure times, per-attempt draws) derives from cfg.Seed alone.
func New(cfg Config, tapes, drives, tapeCapBlocks int) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tapes < 1 || drives < 1 || tapeCapBlocks < 1 {
		return nil, fmt.Errorf("faults: invalid geometry (%d tapes, %d drives, %d blocks)", tapes, drives, tapeCapBlocks)
	}
	if cfg.BadBlockRangeLen == 0 {
		cfg.BadBlockRangeLen = 4
	}
	if cfg.DriveMTBFSec > 0 && cfg.DriveRepairSec == 0 {
		cfg.DriveRepairSec = 3600
	}
	inj := &Injector{
		cfg:       cfg,
		retry:     cfg.Retry.withDefaults(),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		badStride: (tapeCapBlocks + 63) / 64,
		tapeCap:   tapeCapBlocks,
	}
	inj.tapeFailAt = make([]float64, tapes)
	for t := range inj.tapeFailAt {
		inj.tapeFailAt[t] = math.Inf(1)
		if cfg.TapeMTBFSec > 0 {
			inj.tapeFailAt[t] = inj.rng.ExpFloat64() * cfg.TapeMTBFSec
		}
	}
	inj.driveFailAt = make([]float64, drives)
	for d := range inj.driveFailAt {
		inj.driveFailAt[d] = math.Inf(1)
		if cfg.DriveMTBFSec > 0 {
			inj.driveFailAt[d] = inj.rng.ExpFloat64() * cfg.DriveMTBFSec
		}
	}
	if cfg.BadBlocksPerTape > 0 {
		for t := 0; t < tapes; t++ {
			for n := poisson(inj.rng, cfg.BadBlocksPerTape); n > 0; n-- {
				start := inj.rng.Intn(tapeCapBlocks)
				length := 1 + inj.rng.Intn(cfg.BadBlockRangeLen)
				for p := start; p < start+length && p < tapeCapBlocks; p++ {
					if !inj.CopyDead(t, p) {
						inj.MarkDead(t, p)
						inj.badInjected++
					}
				}
			}
		}
	}
	if cfg.LatentErrorsPerTape > 0 {
		// Drawn after every other stream so enabling latent errors leaves
		// the existing draws (and with them every pre-existing fault
		// configuration) bit-identical.
		if inj.cfg.LatentMeanOnsetSec == 0 {
			inj.cfg.LatentMeanOnsetSec = 500_000
		}
		inj.latent = make(map[int64]float64)
		for t := 0; t < tapes; t++ {
			for n := poisson(inj.rng, cfg.LatentErrorsPerTape); n > 0; n-- {
				start := inj.rng.Intn(tapeCapBlocks)
				length := 1 + inj.rng.Intn(inj.cfg.BadBlockRangeLen)
				onset := inj.rng.ExpFloat64() * inj.cfg.LatentMeanOnsetSec
				for p := start; p < start+length && p < tapeCapBlocks; p++ {
					key := packCopy(t, p)
					if inj.CopyDead(t, p) {
						continue // already dead at birth: nothing latent about it
					}
					if prev, dup := inj.latent[key]; dup {
						// Overlapping latent ranges: the earliest onset wins.
						if onset < prev {
							inj.latent[key] = onset
							for i := range inj.latents {
								if inj.latents[i].Tape == t && inj.latents[i].Pos == p {
									inj.latents[i].Onset = onset
								}
							}
						}
						continue
					}
					inj.latent[key] = onset
					inj.latents = append(inj.latents, Latent{Tape: t, Pos: p, Onset: onset})
				}
			}
		}
	}
	return inj, nil
}

// poisson draws a Poisson-distributed count with the given mean (Knuth's
// method; means here are small).
func poisson(rng *rand.Rand, mean float64) int {
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

func packCopy(tape, pos int) int64 { return int64(tape)<<32 | int64(uint32(pos)) }

// Config returns the (defaulted) configuration the injector runs.
func (i *Injector) Config() Config { return i.cfg }

// Retry returns the (defaulted) retry policy.
func (i *Injector) Retry() RetryPolicy { return i.retry }

// InjectedBadBlocks returns the number of bad block positions placed at
// initialization (before any escalations).
func (i *Injector) InjectedBadBlocks() int { return i.badInjected }

// TapeFailTime returns the tape's permanent failure time (+Inf = never).
func (i *Injector) TapeFailTime(tape int) float64 { return i.tapeFailAt[tape] }

// TapeFailed reports whether the tape has permanently failed by `now`.
func (i *Injector) TapeFailed(tape int, now float64) bool {
	return now >= i.tapeFailAt[tape]
}

// FailedTapes counts tapes permanently failed by `now`.
func (i *Injector) FailedTapes(now float64) int {
	n := 0
	for _, at := range i.tapeFailAt {
		if now >= at {
			n++
		}
	}
	return n
}

// CopyDead reports whether the physical copy at (tape, pos) is permanently
// unreadable: inside an injected bad-block range or escalated after retry
// exhaustion. It does not account for whole-tape failures (see TapeFailed).
// Positions outside the jukebox are never dead.
func (i *Injector) CopyDead(tape, pos int) bool {
	if i.bad == nil || tape < 0 || tape >= len(i.tapeFailAt) || pos < 0 || pos >= i.tapeCap {
		return false
	}
	return i.bad[tape*i.badStride+pos/64]&(1<<uint(pos%64)) != 0
}

// MarkDead escalates the copy at (tape, pos) to permanently unreadable
// (retry exhaustion, or a latent error's first detected read). Dead
// positions are never revived: CopyDead only ever turns from false to
// true, which consumers such as the repair planner rely on. Positions
// outside the jukebox are ignored.
func (i *Injector) MarkDead(tape, pos int) {
	if tape < 0 || tape >= len(i.tapeFailAt) || pos < 0 || pos >= i.tapeCap {
		return
	}
	if i.bad == nil {
		i.bad = make([]uint64, len(i.tapeFailAt)*i.badStride)
	}
	i.bad[tape*i.badStride+pos/64] |= 1 << uint(pos%64)
}

// InjectedLatentErrors returns the number of latent bad-block positions
// placed at initialization.
func (i *Injector) InjectedLatentErrors() int { return len(i.latents) }

// Latents enumerates the injected latent errors in deterministic draw
// order. The slice is the injector's own; callers must not mutate it.
func (i *Injector) Latents() []Latent { return i.latents }

// LatentActive reports whether (tape, pos) holds a latent error that has
// developed (onset passed) but has not yet been detected: a read touching
// it now fails permanently and should call MarkDead, which moves the
// position from latent to detected-dead.
func (i *Injector) LatentActive(tape, pos int, now float64) bool {
	if len(i.latent) == 0 {
		return false
	}
	onset, ok := i.latent[packCopy(tape, pos)]
	return ok && now >= onset && !i.CopyDead(tape, pos)
}

// LatentOnset returns the onset time of the latent error at (tape, pos),
// if one was injected there -- the health signal the detection-latency
// metric measures against.
func (i *Injector) LatentOnset(tape, pos int) (float64, bool) {
	onset, ok := i.latent[packCopy(tape, pos)]
	return onset, ok
}

// ReadAttemptFails draws one transient-error trial for a block read
// attempt: true means the attempt fails with a recoverable media error.
func (i *Injector) ReadAttemptFails() bool {
	return i.cfg.ReadTransientProb > 0 && i.rng.Float64() < i.cfg.ReadTransientProb
}

// SwitchAttemptFails draws one trial for a tape load/unload attempt.
func (i *Injector) SwitchAttemptFails() bool {
	return i.cfg.SwitchFailProb > 0 && i.rng.Float64() < i.cfg.SwitchFailProb
}

// DriveFailAt returns the drive's next failure time (+Inf = never).
func (i *Injector) DriveFailAt(drive int) float64 { return i.driveFailAt[drive] }

// DriveRepair consumes the drive's pending failure: it returns the repair
// downtime and schedules the drive's next failure after the repair
// completes at `now` + repair.
func (i *Injector) DriveRepair(drive int, now float64) (repairSec float64) {
	repairSec = i.cfg.DriveRepairSec
	i.driveFailAt[drive] = now + repairSec + i.rng.ExpFloat64()*i.cfg.DriveMTBFSec
	return repairSec
}
