// Package repair implements the self-healing replication subsystem: a
// decayed per-block heat tracker and a planner that turns copy losses into
// job-id'd two-step repair jobs (read a surviving copy, write a fresh one
// to the tape with the most spare capacity), promotes newly hot
// under-replicated blocks, and reclaims cold excess replicas.
//
// The package is simulation-agnostic: liveness of tapes and copies is
// injected as predicates, and the engine drives jobs one step at a time
// during drive idle periods. Jobs are monotone under interruption --
// progress never regresses, a copy is minted atomically at commit or not
// at all, and every reservation a job holds is released when it finishes
// or cancels -- which the kill/resume fuzz in planner_test.go exercises.
package repair

import "math"

// Heat tracks exponentially decayed per-block access counts. Decay is
// lazy: each counter carries the timestamp of its last update and is
// scaled by 2^(-dt/halfLife) on the next touch or read, so idle blocks
// cost nothing per tick.
type Heat struct {
	halfLife float64
	count    []float64
	stamp    []float64
}

// NewHeat returns a tracker for `blocks` blocks with the given half-life
// in simulated seconds. A non-positive half-life disables decay (raw
// access counts).
func NewHeat(blocks int, halfLifeSec float64) *Heat {
	return &Heat{
		halfLife: halfLifeSec,
		count:    make([]float64, blocks),
		stamp:    make([]float64, blocks),
	}
}

// decayTo scales block b's counter forward to time now.
func (h *Heat) decayTo(b int, now float64) {
	if h.halfLife <= 0 {
		return
	}
	// A zero counter stays zero under any decay, so it skips the factor.
	if dt := now - h.stamp[b]; dt > 0 && h.count[b] != 0 {
		h.count[b] *= math.Exp2(-dt / h.halfLife)
	}
	h.stamp[b] = now
}

// Touch records one access to block b at time now.
func (h *Heat) Touch(b int, now float64) {
	h.decayTo(b, now)
	h.count[b]++
}

// At returns block b's decayed heat at time now.
func (h *Heat) At(b int, now float64) float64 {
	h.decayTo(b, now)
	return h.count[b]
}
