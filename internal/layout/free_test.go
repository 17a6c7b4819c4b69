package layout

import (
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

// checkFree validates l -- which, once the bitmap exists, checks every
// bit of it against the grid -- and checks that each tape's lowest set bit
// is FirstFree's answer, so the bitmap's word and bit order match
// positions.
func checkFree(t *testing.T, l *Layout, when string) {
	t.Helper()
	for tp := 0; tp < l.Tapes(); tp++ {
		got := -1
		for i, w := range l.FreeWords(tp) {
			if w != 0 {
				got = i*64 + bits.TrailingZeros64(w)
				break
			}
		}
		if want := l.FirstFree(tp, nil); got != want {
			t.Fatalf("%s: tape %d: lowest free bit %d, FirstFree %d", when, tp, got, want)
		}
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("%s: Validate: %v", when, err)
	}
}

// mutateRandomly applies one random AddCopy or RemoveCopy to l, choosing
// targets with rng; draws that hit an impossible mutation do nothing.
func mutateRandomly(t *testing.T, l *Layout, rng *rand.Rand) {
	t.Helper()
	b := BlockID(rng.Intn(l.NumBlocks()))
	if rng.Intn(2) == 0 {
		cs := l.Replicas(b)
		if len(cs) <= 1 {
			return
		}
		if err := l.RemoveCopy(b, cs[rng.Intn(len(cs))].Tape); err != nil {
			t.Fatalf("RemoveCopy: %v", err)
		}
		return
	}
	tp := rng.Intn(l.Tapes())
	if _, dup := l.ReplicaOn(b, tp); dup || l.FreeBlocks(tp) == 0 {
		return
	}
	// Any free position, not just the first: mutations must leave holes
	// anywhere on the tape, including across word boundaries.
	var frees []int
	for p, occ := range l.blockAt[tp] {
		if occ == -1 {
			frees = append(frees, p)
		}
	}
	if err := l.AddCopy(b, tp, frees[rng.Intn(len(frees))]); err != nil {
		t.Fatalf("AddCopy: %v", err)
	}
}

// freeBitmapCase drives two identical layouts through the same random
// mutation sequence: one builds its free bitmap before the first mutation
// (so AddCopy/RemoveCopy must maintain it), the other only afterwards (so
// the lazy build must read the mutated grid).
func freeBitmapCase(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	tapes := 2 + rng.Intn(5)
	capBlocks := 1 + rng.Intn(150)
	nr := rng.Intn(tapes)
	cfg := Config{
		Tapes: tapes, TapeCapBlocks: capBlocks, HotPercent: float64(rng.Intn(60)),
		Replicas: nr, DataBlocks: 1 + rng.Intn(tapes*capBlocks/(1+nr)),
	}
	early, err := Build(cfg)
	if err != nil {
		return // an unbuildable draw (hot copies overflow a tape): nothing to test
	}
	late, err := Build(cfg)
	if err != nil {
		t.Fatalf("seed %d: second Build failed: %v", seed, err)
	}
	checkFree(t, early, "fresh layout")

	ops := 20 + rng.Intn(200)
	for i := 0; i < ops; i++ {
		opSeed := rng.Int63()
		mutateRandomly(t, early, rand.New(rand.NewSource(opSeed)))
		mutateRandomly(t, late, rand.New(rand.NewSource(opSeed)))
		checkFree(t, early, "after mutation")
	}
	if late.free != nil {
		t.Fatalf("seed %d: mutations built the free bitmap; it must stay lazy", seed)
	}
	checkFree(t, late, "bitmap built after mutations")
	for tp := 0; tp < tapes; tp++ {
		a, b := early.FreeWords(tp), late.FreeWords(tp)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: tape %d word %d: maintained %#x, built late %#x", seed, tp, i, a[i], b[i])
			}
		}
	}
}

func TestFreeBitmapMatchesScanSeeded(t *testing.T) {
	for seed := int64(1); seed <= 80; seed++ {
		freeBitmapCase(t, seed)
	}
}

func FuzzFreeBitmap(f *testing.F) {
	for _, s := range []int64{1, 2, 64, 128, 1 << 40} {
		f.Add(s)
	}
	f.Fuzz(freeBitmapCase)
}

// TestFreeBitmapLazy: building a layout, reading it and the linear
// FirstFree never allocate the bitmap; only FreeWords does.
func TestFreeBitmapLazy(t *testing.T) {
	l := mutLayout(t)
	l.ReplicaOn(0, 0)
	l.TapeContents(0)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.free != nil {
		t.Fatal("free bitmap built without a free-space search")
	}
	l.FirstFree(0, nil)
	if l.free != nil {
		t.Fatal("FirstFree built the free bitmap")
	}
	l.FreeWords(0)
	if l.free == nil {
		t.Fatal("FreeWords did not build the free bitmap")
	}
}

// TestValidateDetectsFreeBitmapCorruption: once built, a bitmap that
// disagrees with the grid -- a free bit on an occupied position, a missing
// bit on a free one, or a bit past the tape's end -- fails Validate.
func TestValidateDetectsFreeBitmapCorruption(t *testing.T) {
	l, err := Build(Config{Tapes: 2, TapeCapBlocks: 70, HotPercent: 0, DataBlocks: 100})
	if err != nil {
		t.Fatal(err)
	}
	words := l.FreeWords(0)
	occupied, free := -1, -1
	for p, b := range l.blockAt[0] {
		if b != -1 && occupied < 0 {
			occupied = p
		}
		if b == -1 && free < 0 {
			free = p
		}
	}
	if occupied < 0 || free < 0 {
		t.Fatalf("tape 0 needs an occupied and a free position (got %d, %d)", occupied, free)
	}
	for _, tc := range []struct {
		name string
		pos  int
		want string
	}{
		{"occupied marked free", occupied, "free=true"},
		{"free marked occupied", free, "free=false"},
		{"past the tape's end", 70, "past the tape's end"},
	} {
		bit := uint64(1) << uint(tc.pos%64)
		words[tc.pos/64] ^= bit
		err := l.Validate()
		words[tc.pos/64] ^= bit
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("restored bitmap: %v", err)
	}
}
