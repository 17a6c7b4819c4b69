package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"tapejuke/internal/core"
	"tapejuke/internal/faults"
	"tapejuke/internal/sched"
	"tapejuke/internal/tapemodel"
)

// goldenRepairPath pins full event streams of active repair + health +
// evacuation runs. The inertness tests only prove the extensions change
// nothing when they cannot fire; this fixture proves that a change to the
// planner, the layout's free-space tables or the fault tables leaves every
// decision they make -- which job runs, which source is read, where the
// new copy lands -- bit-for-bit the same. The kernel cases extend the pin
// to every other drive operation (faulty reads and switches, write
// flushes, deadline expiry, fencing, RAO), so a change to the kernel's
// issue/settle paths is gated the same way.
const goldenRepairPath = "testdata/golden_repair.json"

// goldenStream is one pinned run: the number of events, a SHA-256 over
// every event's fields (floats by their bit patterns) and a SHA-256 over
// the Result's JSON encoding.
type goldenStream struct {
	Events       int    `json:"events"`
	EventsSHA256 string `json:"events_sha256"`
	ResultSHA256 string `json:"result_sha256"`
}

// goldenCase is one pinned run: its configuration and a guard that names
// what the run failed to exercise ("" when it hit the path it pins).
type goldenCase struct {
	cfg   func() Config
	guard func(*Result) string
}

// goldenRepairCases enumerates the pinned runs: NR 1/2 x drives 1/2 x
// seeds 1-4 on the scrub-and-evacuate workload, plus one run whose
// promotion and reclamation thresholds fire, so copies are both added and
// removed while repair, scrub and evacuation are active. The remaining
// cases pin every other drive operation of the kernel at drives 1 and 2:
// faulty reads and switches, delta-write flushes under each policy and
// under degradation, deadline expiry with shedding and sweep truncation,
// drive fencing, and RAO on a serpentine profile.
func goldenRepairCases() map[string]goldenCase {
	withDrives := func(cfg Config, drives int) Config {
		if drives > 1 {
			cfg.Drives = drives
			if _, dyn := cfg.Scheduler.(*sched.Dynamic); dyn {
				cfg.SchedulerFactory = func() sched.Scheduler { return sched.NewDynamic(sched.MaxBandwidth) }
			} else {
				cfg.SchedulerFactory = func() sched.Scheduler { return core.NewEnvelope(core.MaxBandwidth) }
			}
		}
		return cfg
	}
	positive := func(what string, n ...float64) string {
		for _, v := range n {
			if v <= 0 {
				return fmt.Sprintf("%s = %v; all must be positive", what, n)
			}
		}
		return ""
	}
	repairGuard := func(res *Result) string {
		return positive("rebuilt copies, scrubbed MB", float64(res.RepairedCopies), res.ScrubbedMB)
	}
	evac := HealthConfig{Enable: true, ScrubRate: 64, SuspectScore: 3, Evacuate: true}
	cases := make(map[string]goldenCase)
	for _, nr := range []int{1, 2} {
		for _, drives := range []int{1, 2} {
			for seed := int64(1); seed <= 4; seed++ {
				nr, drives, seed := nr, drives, seed
				cases[fmt.Sprintf("evac-nr%d-d%d-s%d", nr, drives, seed)] = goldenCase{func() Config {
					cfg := openHealthCfg(nr)
					cfg.Seed = seed
					cfg.Health = evac
					return withDrives(cfg, drives)
				}, repairGuard}
			}
		}
	}
	cases["promote-reclaim-evac-nr1-d1-s3"] = goldenCase{func() Config {
		cfg := openHealthCfg(1)
		cfg.HotPercent, cfg.ReadHotPercent = 10, 90
		cfg.MeanInterarrival = 200
		cfg.Seed = 3
		cfg.Repair = RepairConfig{
			Enable: true, HalfLifeSec: 20_000,
			PromoteHeat: 3, ReclaimHeat: 1, MaxCopies: 3, ScanRate: 256,
		}
		cfg.Health = evac
		return cfg
	}, func(res *Result) string {
		return positive("rebuilt copies, scrubbed MB, reclaimed copies, evacuated copies",
			float64(res.RepairedCopies), res.ScrubbedMB,
			float64(res.ReclaimedCopies), float64(res.EvacuatedCopies))
	}}

	allFaults := faults.Config{
		ReadTransientProb: 0.2, BadBlocksPerTape: 1, BadBlockRangeLen: 4,
		LatentErrorsPerTape: 2, LatentMeanOnsetSec: 200_000,
		TapeMTBFSec: 3_000_000, DriveMTBFSec: 200_000, DriveRepairSec: 3600,
		SwitchFailProb: 0.2, Retry: faults.RetryPolicy{MaxRetries: 2},
	}
	faultGuard := func(res *Result) string {
		return positive("retries, switch faults, drive failures, latent errors found, tape failures",
			float64(res.Retries), float64(res.SwitchFaults), float64(res.DriveFailures),
			float64(res.LatentErrorsFound), float64(res.TapeFailures))
	}
	flushGuard := func(res *Result) string {
		return positive("writes flushed", float64(res.WritesFlushed))
	}
	writeCase := func(policy WritePolicy, open bool, threshold int) Config {
		cfg := writeCfg(policy)
		if open {
			cfg.QueueLength, cfg.MeanInterarrival = 0, 150
			cfg.Horizon = 400_000
		}
		cfg.WriteFlushThreshold = threshold
		return cfg
	}
	for _, drives := range []int{1, 2} {
		drives := drives
		add := func(name string, mk func() Config, guard func(*Result) string) {
			cases[fmt.Sprintf("%s-d%d", name, drives)] = goldenCase{
				func() Config { return withDrives(mk(), drives) }, guard}
		}
		add("faults-closed", func() Config {
			cfg := faultCfg(2, allFaults)
			cfg.Horizon = 600_000
			return cfg
		}, faultGuard)
		add("faults-open", func() Config {
			cfg := faultCfg(2, allFaults)
			cfg.QueueLength, cfg.MeanInterarrival = 0, 200
			cfg.Horizon = 600_000
			return cfg
		}, faultGuard)
		add("writes-piggyback", func() Config {
			return writeCase(WritePiggyback, false, 0)
		}, flushGuard)
		add("writes-idle-threshold", func() Config {
			return writeCase(WriteIdleOnly, true, 50)
		}, flushGuard)
		add("writes-both-threshold", func() Config {
			return writeCase(WritePiggybackAndIdle, true, 50)
		}, flushGuard)
		add("writes-degrade", func() Config {
			cfg := writeCase(WritePiggybackAndIdle, true, 40)
			cfg.MeanInterarrival = 60
			cfg.Degrade = DegradeConfig{QueueThreshold: 4, MaxSweep: 6, DeferWrites: true}
			return cfg
		}, func(res *Result) string {
			return positive("writes flushed, deferred flushes, truncated sweeps",
				float64(res.WritesFlushed), float64(res.DeferredFlushes), float64(res.TruncatedSweeps))
		})
		add("deadlines-shed-degrade-faults", func() Config {
			cfg := faultCfg(2, allFaults)
			cfg.QueueLength, cfg.MeanInterarrival = 0, 20
			cfg.Horizon = 300_000
			cfg.Deadlines = DeadlineConfig{HotTTL: 4000, ColdTTL: 8000}
			cfg.Admission = AdmissionConfig{MaxQueue: 60, Policy: AdmitShed}
			cfg.Degrade = DegradeConfig{QueueThreshold: 30, MaxSweep: 8}
			return cfg
		}, func(res *Result) string {
			return positive("expired, shed, truncated sweeps, permanent faults",
				float64(res.Expired), float64(res.Shed), float64(res.TruncatedSweeps), float64(res.PermanentFaults))
		})
		add("fence-scrub-repair", func() Config {
			cfg := openHealthCfg(2)
			cfg.Faults.ReadTransientProb = 0.05
			cfg.Faults.DriveMTBFSec = 300_000
			cfg.Faults.Retry = faults.RetryPolicy{MaxRetries: 1}
			cfg.Health = HealthConfig{Enable: true, ScrubRate: 64, DriveFenceScore: 3}
			return cfg
		}, func(res *Result) string {
			return positive("fenced drives, scrubbed MB, rebuilt copies",
				float64(res.FencedDrives), res.ScrubbedMB, float64(res.RepairedCopies))
		})
		add("lto9-rao", func() Config {
			cfg := quickCfg(core.NewEnvelope(core.MaxBandwidth))
			cfg.Profile = tapemodel.LTO9Class()
			cfg.RAO = true
			cfg.Replicas = 2
			cfg.Horizon = 40_000
			return cfg
		}, func(res *Result) string {
			return positive("completions, tape switches", float64(res.Completed), float64(res.TapeSwitches))
		})
	}
	return cases
}

// digestRun runs cfg and digests its event stream and result.
func digestRun(t *testing.T, cfg Config) (goldenStream, *Result) {
	t.Helper()
	h := sha256.New()
	n := 0
	var buf [8 * 6]byte
	cfg.Observer = ObserverFunc(func(ev Event) {
		n++
		binary.LittleEndian.PutUint64(buf[0:], uint64(ev.Kind))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(ev.Time))
		binary.LittleEndian.PutUint64(buf[16:], uint64(int64(ev.Tape)))
		binary.LittleEndian.PutUint64(buf[24:], uint64(int64(ev.Pos)))
		binary.LittleEndian.PutUint64(buf[32:], math.Float64bits(ev.Seconds))
		binary.LittleEndian.PutUint64(buf[40:], uint64(ev.Request))
		h.Write(buf[:])
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	rs := sha256.Sum256(js)
	return goldenStream{
		Events:       n,
		EventsSHA256: hex.EncodeToString(h.Sum(nil)),
		ResultSHA256: hex.EncodeToString(rs[:]),
	}, res
}

// TestGoldenRepairStreams checks every pinned run's event stream and
// result against the fixture. Regenerate (only ever from a known-good
// engine, and never in the same change as an optimization the fixture is
// meant to gate) with
// SIM_UPDATE_GOLDEN=1 go test ./internal/sim -run TestGoldenRepairStreams
func TestGoldenRepairStreams(t *testing.T) {
	cases := goldenRepairCases()
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)

	if os.Getenv("SIM_UPDATE_GOLDEN") != "" {
		out := make(map[string]goldenStream, len(cases))
		for _, name := range names {
			out[name], _ = digestRun(t, cases[name].cfg())
		}
		if err := os.MkdirAll(filepath.Dir(goldenRepairPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(out, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenRepairPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden repair streams to %s", len(out), goldenRepairPath)
		return
	}

	data, err := os.ReadFile(goldenRepairPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with SIM_UPDATE_GOLDEN=1): %v", err)
	}
	want := map[string]goldenStream{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			w, ok := want[name]
			if !ok {
				t.Fatalf("golden file has no entry %q; regenerate", name)
			}
			got, res := digestRun(t, cases[name].cfg())
			if got != w {
				t.Errorf("stream diverged from golden:\n got %+v\nwant %+v", got, w)
			}
			// Guard: each run must actually exercise the path it pins.
			if msg := cases[name].guard(res); msg != "" {
				t.Error(msg)
			}
		})
	}
}

// TestGoldenSwitchEventsMatchCount checks, over every pinned run, that each
// counted tape switch is observable: the post-warm-up EventSwitch events
// equal Result.TapeSwitches, whichever operation (a sweep, a write flush,
// a repair or a scrub) mounted the tape.
func TestGoldenSwitchEventsMatchCount(t *testing.T) {
	for name, c := range goldenRepairCases() {
		cfg := c.cfg()
		warmupFrac := cfg.WarmupFrac
		if warmupFrac == 0 {
			warmupFrac = 0.05
		}
		warmupEnd := cfg.Horizon * warmupFrac
		var seen int64
		cfg.Observer = ObserverFunc(func(ev Event) {
			if ev.Kind == EventSwitch && ev.Time > warmupEnd {
				seen++
			}
		})
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if seen != res.TapeSwitches {
			t.Errorf("%s: %d post-warm-up switch events, Result.TapeSwitches = %d", name, seen, res.TapeSwitches)
		}
	}
}
