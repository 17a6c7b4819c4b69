package repair

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"tapejuke/internal/layout"
)

// refRanked is the ranking Rank replaced: a stable sort of the active jobs
// whose comparator reads (and so decays) heat on every comparison.
func refRanked(p *Planner, now float64) []*Job {
	out := append([]*Job(nil), p.jobs...)
	sort.SliceStable(out, func(i, j int) bool {
		hi := p.heat.At(int(out[i].Block), now)
		hj := p.heat.At(int(out[j].Block), now)
		if hi != hj {
			return hi > hj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Ranked drains Rank(now) into a slice: every active job in ranked order.
func (p *Planner) Ranked(now float64) []*Job {
	var out []*Job
	r := p.Rank(now)
	for j := r.Next(); j != nil; j = r.Next() {
		out = append(out, j)
	}
	return out
}

// sameHeatBits reports whether two trackers hold bitwise-identical counter
// and stamp arrays.
func sameHeatBits(a, b *Heat) bool {
	for i := range a.count {
		if math.Float64bits(a.count[i]) != math.Float64bits(b.count[i]) ||
			math.Float64bits(a.stamp[i]) != math.Float64bits(b.stamp[i]) {
			return false
		}
	}
	return true
}

// TestRankMatchesStableSort drives two identical planners through the same
// job churn and heat touches. At every step one is ranked lazily (Rank,
// sometimes abandoned after a few jobs) and the other by the reference
// stable sort: the orders must agree job for job, and the heat trackers
// must stay bitwise identical -- the lazy ranking has exactly the sort's
// side effects on heat, for 0, 1 and many jobs.
func TestRankMatchesStableSort(t *testing.T) {
	sizes := map[int]bool{}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tapes, capBlocks, nr := 4+rng.Intn(4), 16+rng.Intn(16), 1+rng.Intn(2)
		blocks := tapes * capBlocks / 4
		lazy := newTestJuke(t, tapes, capBlocks, nr, blocks)
		ref := newTestJuke(t, tapes, capBlocks, nr, blocks)
		hl := []float64{0, 50, 1e4}[rng.Intn(3)]
		lazyHeat, refHeat := NewHeat(blocks, hl), NewHeat(blocks, hl)
		lp := lazy.planner(Config{}, lazyHeat)
		rp := ref.planner(Config{}, refHeat)

		now := 0.0
		for step := 0; step < 60; step++ {
			now += float64(rng.Intn(3)) * rng.Float64() * 40 // repeated instants too
			for n := rng.Intn(4); n > 0; n-- {
				b := rng.Intn(blocks)
				lazyHeat.Touch(b, now)
				refHeat.Touch(b, now)
			}
			switch op := rng.Intn(6); {
			case op == 0 && len(lp.jobs) > 0: // retire a random job
				i := rng.Intn(len(lp.jobs))
				lp.Cancel(lp.jobs[i])
				rp.Cancel(rp.jobs[i])
			case op <= 2: // lose a copy: a new job
				b := layout.BlockID(rng.Intn(blocks))
				cs := lazy.lay.Replicas(b)
				c := cs[rng.Intn(len(cs))]
				if !lazy.dead[c] {
					lazy.dead[c], ref.dead[c] = true, true
					lp.NoteCopyDead(c.Tape, c.Pos, now)
					rp.NoteCopyDead(c.Tape, c.Pos, now)
				}
			}
			sizes[min(len(lp.jobs), 2)] = true

			want := refRanked(rp, now)
			r := lp.Rank(now)
			stop := len(want)
			if rng.Intn(3) == 0 {
				stop = rng.Intn(len(want) + 1) // an idle visit that issues early
			}
			for i := 0; i < stop; i++ {
				got := r.Next()
				if got == nil || got.ID != want[i].ID {
					t.Fatalf("seed %d step %d: ranked job %d is %v, reference job %d", seed, step, i, got, want[i].ID)
				}
			}
			if stop == len(want) && r.Next() != nil {
				t.Fatalf("seed %d step %d: ranking yields more than the %d active jobs", seed, step, len(want))
			}
			if !sameHeatBits(lazyHeat, refHeat) {
				t.Fatalf("seed %d step %d (%d jobs): heat arrays diverged from the reference sort's", seed, step, len(want))
			}
		}
	}
	if !sizes[0] || !sizes[1] || !sizes[2] {
		t.Errorf("job counts seen %v; want 0, 1 and many covered", sizes)
	}
}

// refChooseDest is the destination choice ChooseDest replaced, computed
// from scratch: tapes ordered by spare capacity (most first, ties toward
// the lower index), each searched position by position for a free,
// unreserved position posOK accepts.
func refChooseDest(p *Planner, b layout.BlockID, reserved map[layout.Replica]bool,
	tapeOK func(int) bool, posOK func(int, int) bool) (layout.Replica, bool) {
	type cand struct{ tape, spare int }
	var cands []cand
	for t := 0; t < p.lay.Tapes(); t++ {
		if !p.tapeUp(t) || (tapeOK != nil && !tapeOK(t)) || (p.destOK != nil && !p.destOK(t)) {
			continue
		}
		if _, dup := p.lay.ReplicaOn(b, t); dup {
			continue
		}
		nres := 0
		for r := range reserved {
			if r.Tape == t {
				nres++
			}
		}
		if spare := p.lay.FreeBlocks(t) - nres; spare > 0 {
			cands = append(cands, cand{t, spare})
		}
	}
	sort.Slice(cands, func(i, k int) bool {
		if cands[i].spare != cands[k].spare {
			return cands[i].spare > cands[k].spare
		}
		return cands[i].tape < cands[k].tape
	})
	for _, c := range cands {
		for pos := 0; pos < p.lay.TapeCap(); pos++ {
			if _, occ := p.lay.BlockAt(c.tape, pos); occ {
				continue
			}
			if !reserved[layout.Replica{Tape: c.tape, Pos: pos}] && posOK(c.tape, pos) {
				return layout.Replica{Tape: c.tape, Pos: pos}, true
			}
		}
	}
	return layout.Replica{}, false
}

// TestChooseDestMatchesReference: under random tape deaths, growing sets
// of bad positions (posOK only turns false), destination filters,
// reservations, commits and aborts, every ChooseDest agrees with the
// from-scratch reference, and Feasible keeps its spare-slot semantics.
func TestChooseDestMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tapes, capBlocks := 3+rng.Intn(5), 8+rng.Intn(140)
		blocks := tapes * capBlocks * (1 + rng.Intn(3)) / 5
		jk := newTestJuke(t, tapes, capBlocks, 1, blocks)
		bad := map[layout.Replica]bool{}
		posOK := func(tp, pos int) bool { return !bad[layout.Replica{Tape: tp, Pos: pos}] }
		pl := New(jk.lay, NewHeat(blocks, 0), Config{}, jk.copyOK,
			func(tp int) bool { return !jk.down[tp] }, posOK)
		reserved := map[layout.Replica]bool{}
		var held []*Job

		for step := 0; step < 150; step++ {
			switch rng.Intn(8) {
			case 0: // a free or occupied position goes bad for good
				bad[layout.Replica{Tape: rng.Intn(tapes), Pos: rng.Intn(capBlocks)}] = true
			case 1:
				if rng.Intn(8) == 0 {
					jk.down[rng.Intn(tapes)] = true
				}
			case 2:
				if rng.Intn(2) == 0 {
					x := rng.Intn(tapes)
					pl.SetDestFilter(func(tp int) bool { return tp != x })
				} else {
					pl.SetDestFilter(nil)
				}
			case 3: // settle a held reservation: commit or abort
				if len(held) > 0 {
					i := rng.Intn(len(held))
					j := held[i]
					held = append(held[:i], held[i+1:]...)
					delete(reserved, j.Dst)
					if rng.Intn(2) == 0 {
						if _, err := pl.Commit(j, 0); err != nil {
							t.Fatalf("seed %d: Commit: %v", seed, err)
						}
					} else {
						pl.Cancel(j)
					}
				}
			}
			b := layout.BlockID(rng.Intn(blocks))
			if pl.byBlock[b] != nil {
				continue
			}
			j := &Job{ID: int64(1000 + step), Block: b, Step: StepWrite}
			pl.jobs = append(pl.jobs, j)
			pl.byBlock[b] = j
			var tapeOK func(int) bool
			if rng.Intn(3) == 0 {
				x := rng.Intn(tapes)
				tapeOK = func(tp int) bool { return tp != x }
			}
			want, wantOK := refChooseDest(pl, b, reserved, tapeOK, posOK)
			feasible := pl.Feasible(j)
			got, ok := pl.ChooseDest(j, tapeOK)
			if ok != wantOK || got != want {
				t.Fatalf("seed %d step %d: ChooseDest = %v,%v, reference %v,%v", seed, step, got, ok, want, wantOK)
			}
			if wantOK && !feasible {
				t.Fatalf("seed %d step %d: ChooseDest found %v but Feasible said no", seed, step, got)
			}
			if ok {
				reserved[got] = true
				held = append(held, j)
			} else {
				pl.Cancel(j)
			}
			if pl.ReservedCount() != len(reserved) {
				t.Fatalf("seed %d step %d: ReservedCount %d, want %d", seed, step, pl.ReservedCount(), len(reserved))
			}
		}
		for _, j := range held {
			pl.Cancel(j)
		}
		if pl.ReservedCount() != 0 {
			t.Fatalf("seed %d: %d reservations leaked", seed, pl.ReservedCount())
		}
		if err := jk.lay.Validate(); err != nil {
			t.Fatalf("seed %d: Validate: %v", seed, err)
		}
	}
}

// TestSteadyStateAllocs: once warm, the idle-visit hot path allocates
// nothing -- ranked iteration over many jobs, a ChooseDest that succeeds
// (reserve, then release), and one that fails because every free position
// is known bad.
func TestSteadyStateAllocs(t *testing.T) {
	jk := newTestJuke(t, 6, 128, 1, 240)
	heat := NewHeat(jk.lay.NumBlocks(), 1000)
	for b := 0; b < jk.lay.NumBlocks(); b += 3 {
		heat.Touch(b, float64(b))
	}
	pl := jk.planner(Config{}, heat)
	jk.down[0] = true
	pl.NoteTapeFail(0, 10)
	if pl.Active() < 10 {
		t.Fatalf("only %d jobs; the ranking needs many", pl.Active())
	}
	now := 20.0
	if n := testing.AllocsPerRun(50, func() {
		now++
		r := pl.Rank(now)
		for j := r.Next(); j != nil; j = r.Next() {
		}
	}); n != 0 {
		t.Errorf("ranked iteration allocates %v times per visit", n)
	}

	j := pl.Ranked(now)[0]
	tapeOK := func(tp int) bool { return tp != 1 }
	if n := testing.AllocsPerRun(50, func() {
		if _, ok := pl.ChooseDest(j, tapeOK); !ok {
			t.Fatal("ChooseDest found no destination")
		}
		pl.Abort(j)
	}); n != 0 {
		t.Errorf("successful ChooseDest allocates %v times per call", n)
	}

	// The same world with every free position bad: the first call learns
	// the bad positions, later calls fail without allocating.
	jk2 := newTestJuke(t, 6, 128, 1, 240)
	pl2 := New(jk2.lay, NewHeat(jk2.lay.NumBlocks(), 1000), Config{}, jk2.copyOK, nil,
		func(int, int) bool { return false })
	jk2.down[0] = true
	pl2.NoteTapeFail(0, 10)
	j2 := pl2.Ranked(20)[0]
	if _, ok := pl2.ChooseDest(j2, tapeOK); ok {
		t.Fatal("ChooseDest reserved a position posOK rejects")
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, ok := pl2.ChooseDest(j2, tapeOK); ok {
			t.Fatal("ChooseDest reserved a position posOK rejects")
		}
	}); n != 0 {
		t.Errorf("failing ChooseDest allocates %v times per call", n)
	}
}
