package tapejuke

import (
	"math"
	"testing"
)

// TestAnalyzeResolvesLayoutLikeRun pins that the closed forms evaluate the
// layout Run simulates: a partially filled library (Section 4.8) changes
// the estimate and keeps its first-order agreement with the simulator, and
// an unknown placement is rejected with Run's error rather than silently
// read as horizontal.
func TestAnalyzeResolvesLayoutLikeRun(t *testing.T) {
	ratio := func(dataMB float64) (est, sim float64) {
		t.Helper()
		c := Config{DataMB: dataMB}.WithDefaults()
		e, err := Analyze(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return e.ThroughputKBps, res.ThroughputKBps
	}
	fullEst, fullSim := ratio(0)
	partEst, partSim := ratio(20_000)
	t.Logf("full library: analytic %.1f, simulated %.1f KB/s; 20,000 MB: analytic %.1f, simulated %.1f KB/s",
		fullEst, fullSim, partEst, partSim)
	if partEst == fullEst {
		t.Errorf("Analyze ignores DataMB: %.1f KB/s at 20,000 MB and full", partEst)
	}
	if d := math.Abs(partSim/partEst - fullSim/fullEst); d > 0.05 {
		t.Errorf("simulated/analytic ratio %.3f at 20,000 MB vs %.3f full: the partial fill is not modelled",
			partSim/partEst, fullSim/fullEst)
	}

	bad := Config{Placement: "diagonal"}.WithDefaults()
	_, runErr := Run(bad)
	if runErr == nil {
		t.Fatal("Run accepted an unknown placement")
	}
	if _, err := Analyze(bad); err == nil || err.Error() != runErr.Error() {
		t.Errorf("Analyze error %v, want Run's %v", err, runErr)
	}
	bad.QueueLength, bad.MeanInterarrivalSec = 0, 300
	if _, err := AssessOpenLoad(bad); err == nil || err.Error() != runErr.Error() {
		t.Errorf("AssessOpenLoad error %v, want Run's %v", err, runErr)
	}
}
