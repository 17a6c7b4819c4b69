package sim

import (
	"reflect"
	"testing"

	"tapejuke/internal/sched"
	"tapejuke/internal/tapemodel"
)

// TestSessionCostCacheKeysOnProfileValue pins that the session's cost-table
// cache keys on the drive profile's value: distinct but equal instances
// share one cost model, a profile that differs in one field gets its own,
// and mutating a caller's instance after a run cannot alter the cached
// table.
func TestSessionCostCacheKeysOnProfileValue(t *testing.T) {
	cases := []struct {
		name  string
		mk    func() tapemodel.Positioner
		tweak func(tapemodel.Positioner)
	}{
		{"exb8505xl",
			func() tapemodel.Positioner { return tapemodel.EXB8505XL() },
			func(p tapemodel.Positioner) { p.(*tapemodel.Profile).EjectTime++ }},
		{"lto9",
			func() tapemodel.Positioner { return tapemodel.LTO9Class() },
			func(p tapemodel.Positioner) { p.(*tapemodel.Serpentine).TrackStep *= 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSession()
			run := func(p tapemodel.Positioner) *sched.CostModel {
				t.Helper()
				cfg := quickCfg(sched.NewDynamic(sched.MaxBandwidth))
				cfg.Horizon = 20_000
				cfg.Profile = p
				if _, err := s.Run(cfg); err != nil {
					t.Fatal(err)
				}
				return s.costs
			}
			first := tc.mk()
			costs := run(first)
			if run(tc.mk()) != costs {
				t.Error("an equal profile instance rebuilt the cost model")
			}
			// Mutating a caller's instance after its run must not reach
			// the cached table, and must make that instance miss.
			tc.tweak(first)
			if run(tc.mk()) != costs || !reflect.DeepEqual(costs.Prof, tc.mk()) {
				t.Error("mutating a caller's profile changed the cached cost model")
			}
			if run(first) == costs {
				t.Error("a profile differing in one field reused the cost model")
			}
		})
	}
}

// TestIdleFlushDefersUnderOverload covers idle-time flush deferral: with
// WriteIdleOnly no flush piggybacks on a sweep, so every deferral counted
// here comes from a drive that went idle while the degradation layer held
// the system overloaded.
func TestIdleFlushDefersUnderOverload(t *testing.T) {
	cfg := quickCfg(sched.NewDynamic(sched.MaxBandwidth))
	cfg.Drives = 2
	cfg.SchedulerFactory = func() sched.Scheduler { return sched.NewDynamic(sched.MaxBandwidth) }
	cfg.QueueLength = 0
	cfg.MeanInterarrival = 200
	cfg.WriteMeanInterarrival = 100
	cfg.WritePolicy = WriteIdleOnly
	cfg.Degrade = DegradeConfig{QueueThreshold: 1, DeferWrites: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeferredFlushes == 0 {
		t.Error("no idle flush was deferred")
	}
	if res.WritesFlushed == 0 {
		t.Error("deferral starved every idle flush")
	}
	checkOverloadConservation(t, res, res.TotalArrivals)
}
