package main

import (
	"bytes"
	"testing"

	"tapejuke"
	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
)

// TestTracingDoesNotPerturb is the non-perturbation check. For every
// workload, at a fifth of the benchmark's horizons, the plain replay and
// the traced replay must produce results byte-identical to the public
// API's batch of the same seed. For the farm, RunFarm with an event
// observer on every shard must also return a FarmResult byte-identical to
// the untraced one. A hand-built sim.Config that drifted from
// tapejuke.Config fails here.
func TestTracingDoesNotPerturb(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			s, err := newSpec(name, 3, 0.2, 2)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := s.referenceBatch(tapejuke.NewRunner())
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.replayPrint()
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range []*tracer{nil, newTracer()} {
				out, _, err := newReplayer(tr).batch(s)
				if err != nil {
					t.Fatal(err)
				}
				got, err := out.replayPrint()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("replay (traced %v) differs from the public API's results", tr != nil)
				}
			}
			if s.farm == nil {
				return
			}
			fc := *s.farm
			var events int64
			fc.ShardObserver = func(int) tapejuke.Observer {
				return tapejuke.ObserverFunc(func(tapejuke.Event) { events++ })
			}
			fc.Workers = 1 // the observers share one counter
			fr, err := tapejuke.RunFarm(fc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := (&outcome{farm: fr}).fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if wantFarm, _ := ref.fingerprint(); !bytes.Equal(got, wantFarm) || events == 0 {
				t.Errorf("observed farm run differs from the unobserved one (%d events)", events)
			}
		})
	}
}

// TestWorkloadsExerciseTheirLayers pins that the short test batches still
// reach the code the non-perturbation check must cover: repairs that
// notify the envelope of new copies, write flushes, and envelope reuse
// across runs.
func TestWorkloadsExerciseTheirLayers(t *testing.T) {
	for _, name := range workloadNames {
		s, err := newSpec(name, 3, 0.2, 2)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		if _, _, err := newReplayer(tr).batch(s); err != nil {
			t.Fatal(err)
		}
		switch name {
		case repairScrub:
			if tr.rebuilt == 0 {
				t.Errorf("%s rebuilt no copies", name)
			}
		case writes2:
			if tr.flushed == 0 {
				t.Errorf("%s flushed no writes", name)
			}
		}
		if tr.core.n == 0 && name != writes2 {
			t.Errorf("%s never called the envelope", name)
		}
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"tapejuke/internal/core.(*Envelope).Reschedule":                      "core",
		"tapejuke/internal/sched.(*Shared).RemovePending":                    "sched",
		"tapejuke/internal/sim.(*engine).run.func1":                          "sim",
		"tapejuke.(*Runner).Run":                                             "tapejuke",
		"tapejuke/figures.runGrid.func1":                                     "figures",
		"tapejuke/internal/sched.sortBy[go.shape.*tapejuke/internal/x.T]":    "sched",
		"main.(*tracedSched).Reschedule":                                     "bench",
		"sort.Slice":                                                         "",
		"slices.SortFunc[go.shape.[]*tapejuke/internal/sched.Request,uint8]": "",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// hookCounter is a scheduler that counts the optional hooks it receives.
type hookCounter struct {
	sched.Scheduler
	added, removed, resets, evicts int
}

func (h *hookCounter) OnCopyAdded(*sched.State, layout.BlockID, layout.Replica)   { h.added++ }
func (h *hookCounter) OnCopyRemoved(*sched.State, layout.BlockID, layout.Replica) { h.removed++ }
func (h *hookCounter) ResetRun()                                                  { h.resets++ }
func (h *hookCounter) OnEvict(*sched.State, *sched.Request)                       { h.evicts++ }

// TestTracedSchedForwardsHooks pins that the scheduler wrapper passes every
// optional hook through. Dropping one need not change the four workloads'
// results -- the envelope rarely acts on a new copy, and ResetRun only
// clears state the next Reschedule rebuilds -- so the byte-identity check
// above cannot be relied on to catch it.
func TestTracedSchedForwardsHooks(t *testing.T) {
	h := &hookCounter{}
	tr := newTracer()
	var s sched.Scheduler = &tracedSched{inner: h, fam: &tr.core, t: tr}
	co, ok1 := s.(sched.CopyObserver)
	rr, ok2 := s.(sched.RunResetter)
	ev, ok3 := s.(evictor)
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("wrapper hides a hook: CopyObserver %v, RunResetter %v, OnEvict %v", ok1, ok2, ok3)
	}
	co.OnCopyAdded(nil, 0, layout.Replica{})
	co.OnCopyRemoved(nil, 0, layout.Replica{})
	rr.ResetRun()
	ev.OnEvict(nil, nil)
	if h.added != 1 || h.removed != 1 || h.resets != 1 || h.evicts != 1 {
		t.Errorf("hooks not forwarded: %+v", *h)
	}
}

// TestReferenceRunAllocatesNothing checks that the reference kernels leave
// the program's allocation metric and the garbage collector alone.
func TestReferenceRunAllocatesNothing(t *testing.T) {
	if _, err := initReferences(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(3, func() { referenceRun() }); n != 0 {
		t.Errorf("a reference run allocates %v times, want 0", n)
	}
}
