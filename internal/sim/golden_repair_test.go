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
	"tapejuke/internal/sched"
)

// goldenRepairPath pins full event streams of active repair + health +
// evacuation runs. The inertness tests only prove the extensions change
// nothing when they cannot fire; this fixture proves that a change to the
// planner, the layout's free-space tables or the fault tables leaves every
// decision they make -- which job runs, which source is read, where the
// new copy lands -- bit-for-bit the same.
const goldenRepairPath = "testdata/golden_repair.json"

// goldenStream is one pinned run: the number of events, a SHA-256 over
// every event's fields (floats by their bit patterns) and a SHA-256 over
// the Result's JSON encoding.
type goldenStream struct {
	Events       int    `json:"events"`
	EventsSHA256 string `json:"events_sha256"`
	ResultSHA256 string `json:"result_sha256"`
}

// goldenRepairCases enumerates the pinned runs: NR 1/2 x drives 1/2 x
// seeds 1-4 on the scrub-and-evacuate workload, plus one run whose
// promotion and reclamation thresholds fire, so copies are both added and
// removed while repair, scrub and evacuation are active.
func goldenRepairCases() map[string]func() Config {
	withDrives := func(cfg Config, drives int) Config {
		if drives > 1 {
			cfg.Drives = drives
			cfg.SchedulerFactory = func() sched.Scheduler { return core.NewEnvelope(core.MaxBandwidth) }
		}
		return cfg
	}
	evac := HealthConfig{Enable: true, ScrubRate: 64, SuspectScore: 3, Evacuate: true}
	cases := make(map[string]func() Config)
	for _, nr := range []int{1, 2} {
		for _, drives := range []int{1, 2} {
			for seed := int64(1); seed <= 4; seed++ {
				nr, drives, seed := nr, drives, seed
				cases[fmt.Sprintf("evac-nr%d-d%d-s%d", nr, drives, seed)] = func() Config {
					cfg := openHealthCfg(nr)
					cfg.Seed = seed
					cfg.Health = evac
					return withDrives(cfg, drives)
				}
			}
		}
	}
	cases["promote-reclaim-evac-nr1-d1-s3"] = func() Config {
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
			out[name], _ = digestRun(t, cases[name]())
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
			got, res := digestRun(t, cases[name]())
			if got != w {
				t.Errorf("stream diverged from golden:\n got %+v\nwant %+v", got, w)
			}
			// Guards: each run must actually exercise what it pins.
			if res.RepairedCopies == 0 || res.ScrubbedMB == 0 {
				t.Errorf("run rebuilt %d copies and scrubbed %v MB; both must be positive",
					res.RepairedCopies, res.ScrubbedMB)
			}
			if name == "promote-reclaim-evac-nr1-d1-s3" && (res.ReclaimedCopies == 0 || res.EvacuatedCopies == 0) {
				t.Errorf("run reclaimed %d and evacuated %d copies; both must be positive",
					res.ReclaimedCopies, res.EvacuatedCopies)
			}
		})
	}
}
