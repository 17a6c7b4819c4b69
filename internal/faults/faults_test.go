package faults

import (
	"math"
	"testing"
)

func TestValidate(t *testing.T) {
	bad := []Config{
		{ReadTransientProb: -0.1},
		{ReadTransientProb: 1},
		{SwitchFailProb: 1.5},
		{BadBlocksPerTape: -1},
		{BadBlockRangeLen: -2},
		{TapeMTBFSec: -5},
		{DriveMTBFSec: -5},
		{DriveRepairSec: -5},
		{DriveRepairSec: 100}, // repair without MTBF
		{Retry: RetryPolicy{MaxRetries: -1}},
		{Retry: RetryPolicy{BackoffSec: -1}},
		{Retry: RetryPolicy{BackoffFactor: -1}},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	ok := []Config{
		{},
		{ReadTransientProb: 0.5, TapeMTBFSec: 1e6, DriveMTBFSec: 1e6, DriveRepairSec: 600},
		{BadBlocksPerTape: 2.5, SwitchFailProb: 0.01},
	}
	for _, c := range ok {
		if err := c.Validate(); err != nil {
			t.Errorf("config %+v rejected: %v", c, err)
		}
	}
}

func TestEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	for _, c := range []Config{
		{ReadTransientProb: 0.1},
		{BadBlocksPerTape: 1},
		{TapeMTBFSec: 1e5},
		{DriveMTBFSec: 1e5},
		{SwitchFailProb: 0.1},
	} {
		if !c.Enabled() {
			t.Errorf("config %+v reports disabled", c)
		}
	}
}

func TestRetryPolicyDefaultsAndBackoff(t *testing.T) {
	p := RetryPolicy{}.withDefaults()
	if p.MaxRetries != 3 || p.BackoffSec != 30 || p.BackoffFactor != 2 {
		t.Fatalf("defaults = %+v", p)
	}
	if d := p.Delay(1); d != 30 {
		t.Errorf("Delay(1) = %v, want 30", d)
	}
	if d := p.Delay(3); d != 120 {
		t.Errorf("Delay(3) = %v, want 120 (exponential)", d)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	cfg := Config{
		ReadTransientProb: 0.2,
		BadBlocksPerTape:  1.5,
		TapeMTBFSec:       5e5,
		DriveMTBFSec:      3e5,
		SwitchFailProb:    0.05,
		Seed:              42,
	}
	a, err := New(cfg, 10, 2, 448)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg, 10, 2, 448)
	if err != nil {
		t.Fatal(err)
	}
	for tape := 0; tape < 10; tape++ {
		if a.TapeFailTime(tape) != b.TapeFailTime(tape) {
			t.Fatalf("tape %d fail times differ", tape)
		}
		for pos := 0; pos < 448; pos++ {
			if a.CopyDead(tape, pos) != b.CopyDead(tape, pos) {
				t.Fatalf("bad-block maps differ at (%d,%d)", tape, pos)
			}
		}
	}
	for i := 0; i < 1000; i++ {
		if a.ReadAttemptFails() != b.ReadAttemptFails() {
			t.Fatalf("transient streams diverge at draw %d", i)
		}
		if a.SwitchAttemptFails() != b.SwitchAttemptFails() {
			t.Fatalf("switch streams diverge at draw %d", i)
		}
	}
	if a.InjectedBadBlocks() != b.InjectedBadBlocks() {
		t.Error("injected bad-block counts differ")
	}
}

func TestInjectorDisabledClasses(t *testing.T) {
	inj, err := New(Config{ReadTransientProb: 0.5}, 4, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(inj.TapeFailTime(0), 1) {
		t.Error("tape failure scheduled without TapeMTBFSec")
	}
	if !math.IsInf(inj.DriveFailAt(0), 1) {
		t.Error("drive failure scheduled without DriveMTBFSec")
	}
	if inj.TapeFailed(0, 1e18) {
		t.Error("tape failed with failures disabled")
	}
	if inj.CopyDead(2, 50) {
		t.Error("bad block present without BadBlocksPerTape")
	}
	if inj.SwitchAttemptFails() {
		t.Error("switch failed with SwitchFailProb 0")
	}
}

func TestMarkDeadEscalation(t *testing.T) {
	inj, err := New(Config{ReadTransientProb: 0.1}, 4, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if inj.CopyDead(1, 7) {
		t.Fatal("copy dead before escalation")
	}
	inj.MarkDead(1, 7)
	if !inj.CopyDead(1, 7) {
		t.Fatal("escalated copy not dead")
	}
	if inj.CopyDead(1, 8) || inj.CopyDead(2, 7) {
		t.Fatal("escalation leaked to other copies")
	}
}

// TestDeadSetLazyAndBounded: an injector without bad blocks holds no dead
// set until the first escalation; positions outside the jukebox are never
// dead, and marking one changes nothing (no neighbouring bit flips).
func TestDeadSetLazyAndBounded(t *testing.T) {
	inj, err := New(Config{ReadTransientProb: 0.1, TapeMTBFSec: 1e6}, 3, 1, 70)
	if err != nil {
		t.Fatal(err)
	}
	if inj.bad != nil {
		t.Fatal("dead set allocated without any dead position")
	}
	for _, c := range [][2]int{{-1, 0}, {3, 0}, {0, -1}, {0, 70}, {2, 127}} {
		inj.MarkDead(c[0], c[1])
		if inj.CopyDead(c[0], c[1]) {
			t.Errorf("out-of-range position %v reads dead", c)
		}
	}
	if inj.bad != nil {
		t.Fatal("out-of-range MarkDead allocated the dead set")
	}
	inj.MarkDead(2, 69)
	for tp := 0; tp < 3; tp++ {
		for p := 0; p < 70; p++ {
			if got, want := inj.CopyDead(tp, p), tp == 2 && p == 69; got != want {
				t.Errorf("CopyDead(%d,%d) = %v, want %v", tp, p, got, want)
			}
		}
	}
	if inj.CopyDead(2, 70) || inj.CopyDead(3, 5) {
		t.Error("a position past the jukebox reads dead")
	}
}

func TestBadBlockPlacement(t *testing.T) {
	inj, err := New(Config{BadBlocksPerTape: 2, BadBlockRangeLen: 3, Seed: 7}, 8, 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for tape := 0; tape < 8; tape++ {
		for pos := 0; pos < 200; pos++ {
			if inj.CopyDead(tape, pos) {
				count++
			}
		}
	}
	if count == 0 {
		t.Fatal("no bad blocks placed with BadBlocksPerTape=2 over 8 tapes")
	}
	if count != inj.InjectedBadBlocks() {
		t.Errorf("enumerated %d bad blocks, injector reports %d", count, inj.InjectedBadBlocks())
	}
	// Expected ~8*2*2 = 32 positions; allow a generous band.
	if count > 200 {
		t.Errorf("implausibly many bad blocks: %d", count)
	}
}

func TestDriveRepairSchedulesNextFailure(t *testing.T) {
	inj, err := New(Config{DriveMTBFSec: 1e4, DriveRepairSec: 500, Seed: 3}, 4, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	first := inj.DriveFailAt(0)
	if math.IsInf(first, 1) {
		t.Fatal("no drive failure scheduled")
	}
	repair := inj.DriveRepair(0, first)
	if repair != 500 {
		t.Fatalf("repair = %v, want 500", repair)
	}
	next := inj.DriveFailAt(0)
	if next < first+repair {
		t.Fatalf("next failure %v precedes end of repair %v", next, first+repair)
	}
	// Drive 1's schedule is untouched.
	if inj.DriveFailAt(1) == next {
		t.Error("drive schedules aliased")
	}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	if _, err := New(Config{}, 0, 1, 10); err == nil {
		t.Error("0 tapes accepted")
	}
	if _, err := New(Config{}, 4, 0, 10); err == nil {
		t.Error("0 drives accepted")
	}
	if _, err := New(Config{ReadTransientProb: 2}, 4, 1, 10); err == nil {
		t.Error("invalid config accepted")
	}
}
