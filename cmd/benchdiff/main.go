// Command benchdiff records `go test -bench` results into a JSON perf
// trajectory file and compares runs against a recorded baseline.
//
// It parses standard benchmark output lines:
//
//	BenchmarkEnvelopeReschedule/q=140-8   139272   9219 ns/op   184 B/op   3 allocs/op
//
// including custom metrics (KB/s, requests), and appends one labelled
// entry per invocation to the JSON file (replacing any previous entry with
// the same label, so re-runs update in place):
//
//	go test -run '^$' -bench . -benchmem ./internal/core | \
//	    benchdiff -in - -json BENCH_sched.json -label post-PR1
//
// With -compare LABEL it prints a delta table against the entry recorded
// under LABEL and exits non-zero when any benchmark's ns/op regressed by
// more than -threshold (default 1.20, i.e. 20%). scripts/bench.sh wires
// this into the repo's pre-merge routine.
//
// With -calibrate NAME the comparison divides every benchmark's ns/op
// ratio by the ratio of the named calibration benchmark, cancelling the
// uniform machine-speed skew between the two runs (recorded entries from
// different machines or CPU-frequency states drift together by a constant
// factor; see DESIGN.md's bench note). The regression threshold then
// applies to the normalized ratios, so a cross-machine comparison no
// longer needs a manual stash A/B to interpret.
//
// Every entry is stamped with the host it ran on: CPU model (from the
// `cpu:` line go test prints, else /proc/cpuinfo), nproc, the GOMAXPROCS
// the benchmarks ran under (from the -N suffix of their names), the Go
// version and the git commit of the measured sources (suffixed -dirty
// when Go files differ from it). -compare refuses to diff entries from
// different hosts -- or an entry recorded before stamping, whose host is
// unknown -- unless -calibrate is given.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result holds one benchmark's parsed measurements.
type Result struct {
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp float64            `json:"bytes_per_op,omitempty"`
	AllocsOp   float64            `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Entry is one labelled benchmark run.
type Entry struct {
	Label      string            `json:"label"`
	Date       string            `json:"date"`
	Host       *Host             `json:"host,omitempty"` // nil on entries recorded before stamping
	Benchmarks map[string]Result `json:"benchmarks"`
}

// Host identifies where and on what an entry was measured.
type Host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// sameMachine reports whether two entries' timings are comparable without
// calibration: same CPU model, CPU count and GOMAXPROCS. The Go version
// and commit are what a comparison is usually about, so they may differ.
func sameMachine(a, b *Host) bool {
	return a != nil && b != nil && a.CPU == b.CPU && a.NProc == b.NProc && a.GOMAXPROCS == b.GOMAXPROCS
}

// String renders the machine part of a host stamp.
func (h *Host) String() string {
	if h == nil {
		return "unknown host (entry predates host stamping)"
	}
	return fmt.Sprintf("%q, nproc %d, GOMAXPROCS %d", h.CPU, h.NProc, h.GOMAXPROCS)
}

// File is the on-disk trajectory: a sequence of labelled runs.
type File struct {
	Entries []Entry `json:"entries"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+(.*)$`)

func main() {
	in := flag.String("in", "-", "benchmark output to parse (file path or - for stdin)")
	jsonPath := flag.String("json", "BENCH_sched.json", "JSON trajectory file to update")
	label := flag.String("label", "", "label for this run (required)")
	compare := flag.String("compare", "", "baseline label to diff against")
	threshold := flag.Float64("threshold", 1.20, "ns/op regression factor that fails the run")
	calibrate := flag.String("calibrate", "", "benchmark whose ns/op ratio normalizes all deltas (cancels uniform machine skew)")
	flag.Parse()
	if *label == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -label is required")
		os.Exit(2)
	}

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	benchmarks, meta, err := parse(r)
	if err != nil {
		fatal(err)
	}
	if len(benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in %s", *in))
	}

	file := &File{}
	if raw, err := os.ReadFile(*jsonPath); err == nil {
		if err := json.Unmarshal(raw, file); err != nil {
			fatal(fmt.Errorf("parsing %s: %w", *jsonPath, err))
		}
	} else if !os.IsNotExist(err) {
		fatal(err)
	}

	entry := Entry{
		Label:      *label,
		Date:       time.Now().UTC().Format(time.RFC3339),
		Host:       stampHost(meta),
		Benchmarks: benchmarks,
	}
	replaced := false
	for i := range file.Entries {
		if file.Entries[i].Label == *label {
			file.Entries[i] = entry
			replaced = true
			break
		}
	}
	if !replaced {
		file.Entries = append(file.Entries, entry)
	}
	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("benchdiff: recorded %d benchmarks under %q in %s\n", len(benchmarks), *label, *jsonPath)

	if *compare == "" {
		return
	}
	var base *Entry
	for i := range file.Entries {
		if file.Entries[i].Label == *compare {
			base = &file.Entries[i]
			break
		}
	}
	if base == nil {
		fatal(fmt.Errorf("no entry labelled %q in %s", *compare, *jsonPath))
	}
	if !sameMachine(base.Host, entry.Host) && *calibrate == "" {
		fatal(fmt.Errorf("refusing to compare across hosts without -calibrate: %q ran on %v, %q on %v",
			base.Label, base.Host, entry.Label, entry.Host))
	}
	if regressed := diff(base, &entry, *threshold, *calibrate); regressed {
		fmt.Fprintf(os.Stderr, "benchdiff: ns/op regression beyond %.2fx against %q\n", *threshold, *compare)
		os.Exit(1)
	}
}

// benchMeta is what go test -bench output says about the machine: the
// CPU model from its `cpu:` header and the GOMAXPROCS from the -N suffix
// of benchmark names (no suffix means GOMAXPROCS 1).
type benchMeta struct {
	cpu   string
	procs int
}

// parse extracts benchmark results and machine details from go test
// -bench output.
func parse(r io.Reader) (map[string]Result, benchMeta, error) {
	out := make(map[string]Result)
	meta := benchMeta{procs: 1}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if cpu, ok := strings.CutPrefix(line, "cpu:"); ok && meta.cpu == "" {
			meta.cpu = strings.TrimSpace(cpu)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if m[2] != "" {
			if n, err := strconv.Atoi(m[2]); err == nil && n > meta.procs {
				meta.procs = n
			}
		}
		iters, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Iterations: iters}
		fields := strings.Fields(m[4])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsOp = v
			default:
				if res.Metrics == nil {
					res.Metrics = make(map[string]float64)
				}
				res.Metrics[unit] = v
			}
		}
		out[m[1]] = res
	}
	return out, meta, sc.Err()
}

// stampHost describes the machine and sources of this run.
func stampHost(meta benchMeta) *Host {
	cpu := meta.cpu
	if cpu == "" {
		cpu = cpuinfoModel()
	}
	return &Host{
		CPU:        cpu,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: meta.procs,
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
	}
}

// cpuinfoModel returns the first "model name" in /proc/cpuinfo, or
// "unknown" where there is none.
func cpuinfoModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit returns the HEAD commit of the working directory's repository,
// suffixed -dirty when tracked Go sources or go.mod differ from it, or
// "unknown" outside a git checkout.
func gitCommit() string {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(head))
	changed, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no", "--", "*.go", "go.mod").Output()
	if err != nil {
		return commit
	}
	if len(strings.TrimSpace(string(changed))) > 0 {
		commit += "-dirty"
	}
	return commit
}

// diff prints a delta table and reports whether any common benchmark's
// ns/op regressed beyond the threshold factor. With a calibration
// benchmark named, every ratio is divided by that benchmark's own ratio
// before the threshold applies, so a uniform machine-speed skew between
// the two runs cancels out; the calibration benchmark itself (normalized
// 1.00 by construction) is exempt from the regression check.
func diff(base, cur *Entry, threshold float64, calibrate string) bool {
	scale := 1.0
	if calibrate != "" {
		b, okB := base.Benchmarks[calibrate]
		c, okC := cur.Benchmarks[calibrate]
		if !okB || !okC || b.NsPerOp <= 0 || c.NsPerOp <= 0 {
			fatal(fmt.Errorf("calibration benchmark %q missing from %q or %q", calibrate, base.Label, cur.Label))
		}
		scale = c.NsPerOp / b.NsPerOp
		fmt.Printf("calibrated by %s: machine skew %.2fx divided out of every ratio\n", calibrate, scale)
	}
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		if _, ok := base.Benchmarks[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	regressed := false
	fmt.Printf("%-50s %14s %14s %8s\n", "benchmark", base.Label, cur.Label, "ratio")
	for _, name := range names {
		b, c := base.Benchmarks[name], cur.Benchmarks[name]
		if b.NsPerOp <= 0 {
			continue
		}
		ratio := c.NsPerOp / b.NsPerOp / scale
		mark := ""
		if ratio > threshold && name != calibrate {
			mark = "  REGRESSION"
			regressed = true
		}
		fmt.Printf("%-50s %12.0fns %12.0fns %7.2fx%s\n", name, b.NsPerOp, c.NsPerOp, ratio, mark)
	}
	return regressed
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
