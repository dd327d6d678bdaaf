package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestServeBenchSmoke runs a miniature serve-path sweep end to end: both
// modes must record measurements, the pooled mode must allocate less
// than the baseline at every client count, and the JSON artifact must
// round-trip.
func TestServeBenchSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.json")
	spec := ServeBenchSpec{
		Seed:    3,
		Objects: 10,
		Clients: []int{1, 8},
		Frames:  40,
		Runs:    1,
	}
	var out bytes.Buffer
	res, err := RunServeBench(spec, path, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4 (2 modes x 2 client counts)", len(res.Points))
	}
	byKey := map[string]ServeBenchPoint{}
	for _, p := range res.Points {
		if p.Frames == 0 || p.NsPerOp <= 0 {
			t.Fatalf("idle configuration: %+v", p)
		}
		byKey[p.Mode] = p // last per mode is fine for the spot checks below
		if p.Mode == "pooled" && p.CacheHits == 0 {
			t.Fatalf("pooled mode never hit the cache: %+v", p)
		}
	}
	if byKey["pooled"].AllocsPerOp >= byKey["baseline"].AllocsPerOp {
		t.Fatalf("pooled allocs/op %.2f not below baseline %.2f",
			byKey["pooled"].AllocsPerOp, byKey["baseline"].AllocsPerOp)
	}
	if res.AllocReduction8 <= 0 {
		t.Fatalf("AllocReduction8 = %f", res.AllocReduction8)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back ServeBenchResult
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != len(res.Points) || back.AllocReduction8 != res.AllocReduction8 {
		t.Fatalf("JSON artifact diverged: %+v", back)
	}
}
