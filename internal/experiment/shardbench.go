package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/workload"
)

// ShardBenchSpec configures the shard-scaling benchmark: a fixed
// read/write workload replayed against Sharded at each shard count,
// measuring how throughput changes when a mutation drains one grid
// cell's readers instead of the world's. The first shard count (K = 1
// by default: one tree behind one lock) is the baseline.
type ShardBenchSpec struct {
	Seed     int64
	Objects  int           // dataset size (default 60)
	Levels   int           // subdivision depth (default 3)
	Readers  int           // query goroutines (default 4)
	Writers  int           // churn goroutines (default 2)
	Duration time.Duration // measurement window per configuration (default 300ms)
	Shards   []int         // shard counts to sweep, baseline first (default 1,2,4,8,16)
}

func (s ShardBenchSpec) fill() ShardBenchSpec {
	if s.Objects == 0 {
		s.Objects = 60
	}
	if s.Levels == 0 {
		s.Levels = 3
	}
	if s.Readers == 0 {
		s.Readers = 4
	}
	if s.Writers == 0 {
		s.Writers = 2
	}
	if s.Duration == 0 {
		s.Duration = 300 * time.Millisecond
	}
	if len(s.Shards) == 0 {
		s.Shards = []int{1, 2, 4, 8, 16}
	}
	return s
}

// ShardBenchPoint is one configuration's measured throughput.
type ShardBenchPoint struct {
	Index        string  `json:"index"`
	Shards       int     `json:"shards"`
	Reads        int64   `json:"reads"`
	Writes       int64   `json:"writes"`
	ReadsPerSec  float64 `json:"reads_per_sec"`
	WritesPerSec float64 `json:"writes_per_sec"`
}

// ShardBenchResult is the JSON document RunShardBench emits.
type ShardBenchResult struct {
	Objects  int               `json:"objects"`
	Coeffs   int64             `json:"coefficients"`
	Readers  int               `json:"readers"`
	Writers  int               `json:"writers"`
	Duration string            `json:"duration_per_config"`
	Points   []ShardBenchPoint `json:"sharded"`
}

// measure runs the read/write workload against one index configuration
// for the spec's window and returns the op counts.
func measure(spec ShardBenchSpec, idx *index.Sharded, bounds geom.Rect3, n int64) (reads, writes int64) {
	var readOps, writeOps atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < spec.Readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				x0 := bounds.Min.X + rng.Float64()*(bounds.Max.X-bounds.Min.X)
				y0 := bounds.Min.Y + rng.Float64()*(bounds.Max.Y-bounds.Min.Y)
				idx.Search(index.Query{
					Region: geom.Rect2{Min: geom.V2(x0, y0), Max: geom.V2(x0+150, y0+150)},
					ZMin:   bounds.Min.Z, ZMax: bounds.Max.Z,
					WMin: rng.Float64() * 0.5, WMax: 1,
				})
				readOps.Add(1)
			}
		}(spec.Seed + int64(r))
	}
	for w := 0; w < spec.Writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// The write transaction locks only the owning shard.
				if id := rng.Int63n(n); idx.Delete(id) {
					idx.Insert(id)
				}
				writeOps.Add(1)
			}
		}(spec.Seed + 100 + int64(w))
	}
	time.Sleep(spec.Duration)
	close(stop)
	wg.Wait()
	return readOps.Load(), writeOps.Load()
}

// RunShardBench sweeps shard counts at a fixed concurrent read/write
// workload and writes the JSON result to jsonPath (skipped if empty)
// plus a human summary to w. The point of the exercise: under write
// churn concurrent with readers, per-shard locking should beat the
// single-lock K = 1 baseline on write throughput, because a mutation no
// longer drains every reader in the process.
func RunShardBench(spec ShardBenchSpec, jsonPath string, w io.Writer) (*ShardBenchResult, error) {
	spec = spec.fill()
	d := workload.Generate(workload.Spec{NumObjects: spec.Objects, Levels: spec.Levels, Seed: spec.Seed + 9})
	bounds := d.Store.Bounds()
	n := d.Store.NumCoeffs()

	res := &ShardBenchResult{
		Objects:  spec.Objects,
		Coeffs:   n,
		Readers:  spec.Readers,
		Writers:  spec.Writers,
		Duration: spec.Duration.String(),
	}

	fmt.Fprintf(w, "shard bench: %d objects (%d coefficients), %d readers + %d writers, %v per config\n",
		spec.Objects, n, spec.Readers, spec.Writers, spec.Duration)

	for _, k := range spec.Shards {
		sh := index.NewSharded(d.Store, index.XYW, index.ShardedConfig{Shards: k})
		reads, writes := measure(spec, sh, bounds, n)
		p := ShardBenchPoint{
			Index: sh.Name(), Shards: k, Reads: reads, Writes: writes,
			ReadsPerSec:  float64(reads) / spec.Duration.Seconds(),
			WritesPerSec: float64(writes) / spec.Duration.Seconds(),
		}
		res.Points = append(res.Points, p)
		fmt.Fprintf(w, "  %-28s reads/s %10.0f · writes/s %10.0f\n",
			fmt.Sprintf("sharded k=%d", k), p.ReadsPerSec, p.WritesPerSec)
	}

	base, best := res.Points[0], res.Points[0]
	for _, p := range res.Points[1:] {
		if p.WritesPerSec > best.WritesPerSec {
			best = p
		}
	}
	fmt.Fprintf(w, "  best sharded write throughput: k=%d at %.0f writes/s (baseline k=%d %.0f, %.1fx)\n",
		best.Shards, best.WritesPerSec, base.Shards, base.WritesPerSec,
		best.WritesPerSec/max(base.WritesPerSec, 1))

	if jsonPath != "" {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := persist.WriteBytesAtomic(jsonPath, append(buf, '\n')); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "  wrote %s\n", jsonPath)
	}
	return res, nil
}
