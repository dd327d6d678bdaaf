package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestShardBenchSmoke runs a miniature sweep end to end: every
// configuration must record work, and the JSON artifact must round-trip.
func TestShardBenchSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shards.json")
	var out bytes.Buffer
	res, err := RunShardBench(ShardBenchSpec{
		Seed:     11,
		Objects:  12,
		Readers:  2,
		Writers:  2,
		Duration: 30 * time.Millisecond,
		Shards:   []int{1, 4},
	}, path, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Reads == 0 || p.Writes == 0 {
			t.Fatalf("idle configuration: %+v", p)
		}
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back ShardBenchResult
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != len(res.Points) || back.Points[0].Writes != res.Points[0].Writes {
		t.Fatalf("JSON artifact diverged: %+v", back)
	}
	if !bytes.Contains(out.Bytes(), []byte("best sharded write throughput")) {
		t.Fatalf("summary missing verdict:\n%s", out.String())
	}
}
