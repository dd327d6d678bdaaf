package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunCrowdBench runs a reduced sweep that still includes the gated
// point (1000 clients, overlap 0.9) and checks the artifact round-trip.
func TestRunCrowdBench(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_crowd.json")
	spec := CrowdBenchSpec{Seed: 3, Clients: []int{50, 1000}, Overlaps: []float64{0, 0.9}}
	res, err := RunCrowdBench(spec, path, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("swept %d points, want 4", len(res.Points))
	}
	if !res.GateSpeedup || !res.GateNoRegression {
		t.Fatalf("gates failed: %+v", res)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back CrowdBenchResult
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != len(res.Points) || back.Points[3] != res.Points[3] {
		t.Fatal("JSON artifact does not round-trip the sweep")
	}

	// Determinism: the same spec reproduces the identical pass counts.
	again, err := RunCrowdBench(spec, "", os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Points {
		if res.Points[i].CoalescedPasses != again.Points[i].CoalescedPasses ||
			res.Points[i].SubQueries != again.Points[i].SubQueries ||
			res.Points[i].HotHits != again.Points[i].HotHits ||
			res.Points[i].Shared != again.Points[i].Shared {
			t.Fatalf("point %d not deterministic: %+v vs %+v", i, res.Points[i], again.Points[i])
		}
	}
}

// TestRunCrowdBenchRequiresGatedPoint pins the sweep validation: a grid
// without a >= 1000-client high-overlap point cannot claim the speedup
// gate.
func TestRunCrowdBenchRequiresGatedPoint(t *testing.T) {
	_, err := RunCrowdBench(CrowdBenchSpec{Seed: 3, Clients: []int{10}, Overlaps: []float64{0.9}}, "", os.Stderr)
	if err == nil {
		t.Fatal("expected an error for a sweep without the gated point")
	}
}
