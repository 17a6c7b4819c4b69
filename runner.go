package tapejuke

import (
	"tapejuke/internal/sched"
	"tapejuke/internal/sim"
)

// Runner executes simulations while keeping the expensive or recyclable
// parts of a run alive between calls: the data layout and the dense cost
// table (cached by configuration, so replications and parameter sweeps that
// share them are built once), and the simulator's scratch storage --
// scheduling state, request free lists, sample reservoirs, the event
// calendar -- which is reset instead of reallocated. Run is a run on a
// fresh Runner; a reused Runner's results are identical to a fresh one's
// for every configuration, and only the setup cost changes.
//
// A Runner is not safe for concurrent use. The intended shape is one
// Runner per worker goroutine, each draining a queue of configurations
// (this is what the figures experiment engine does).
type Runner struct {
	sess   *sim.Session
	scheds map[Algorithm]sched.Scheduler
}

// NewRunner creates an empty Runner.
func NewRunner() *Runner { return &Runner{sess: sim.NewSession()} }

// Run simulates the configuration and returns its metrics, reusing the
// Runner's cached state where the configuration allows.
func (r *Runner) Run(c Config) (*Result, error) {
	sc, err := r.prepare(c)
	if err != nil {
		return nil, err
	}
	return r.sess.Run(*sc)
}

// prepare translates c into the internal configuration and recycles the
// Runner's scheduler for it without starting the run. The farm front end
// uses the split so it can inject a shard's routed trace streams into the
// prepared configuration and then run it on this Runner's session.
func (r *Runner) prepare(c Config) (*sim.Config, error) {
	sc, err := c.toSim()
	if err != nil {
		return nil, err
	}
	// Reuse one scheduler per algorithm when it can reset itself (see
	// sched.RunResetter): the envelope family keeps ~35 KB of builder and
	// selection scratch that is expensive to re-grow every run. Stateless
	// schedulers run on the fresh instance toSim built. Only single-drive
	// runs qualify: multi-drive builds one scheduler per drive through the
	// factory.
	if _, ok := sc.Scheduler.(sched.RunResetter); ok && sc.SchedulerFactory == nil {
		if cached, ok := r.scheds[c.Algorithm]; ok {
			cached.(sched.RunResetter).ResetRun()
			sc.Scheduler = cached
		} else {
			if r.scheds == nil {
				r.scheds = make(map[Algorithm]sched.Scheduler)
			}
			r.scheds[c.Algorithm] = sc.Scheduler
		}
	}
	return sc, nil
}
