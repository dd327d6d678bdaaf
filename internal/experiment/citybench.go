package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/motion"
	"repro/internal/persist"
	"repro/internal/retrieval"
	"repro/internal/workload"
)

// CityBenchSpec configures the out-of-core throughput benchmark: one
// deterministic city segment, served through the paged store at several
// page-cache budgets, same seeded tour at every budget. The artifact
// records how throughput and paging behave as the budget shrinks — the
// cost of out-of-core serving, isolated from the network (the loop runs
// the retrieval layer directly, no sockets).
type CityBenchSpec struct {
	Seed     int64
	Blocks   int // city blocks per side (default 5)
	Lots     int // lots per block side (default 3)
	Levels   int // subdivision depth (default 2)
	Frames   int // tour length per budget (default 60)
	PageSize int // segment page size in bytes (default 4096)

	// BudgetDivisors sets the swept cache budgets to payload/divisor
	// (default 16, 8, 2 — from heavy paging to mostly resident).
	BudgetDivisors []int64
}

func (s CityBenchSpec) fill() CityBenchSpec {
	if s.Blocks == 0 {
		s.Blocks = 5
	}
	if s.Lots == 0 {
		s.Lots = 3
	}
	if s.Levels == 0 {
		s.Levels = 2
	}
	if s.Frames == 0 {
		s.Frames = 60
	}
	if s.PageSize == 0 {
		s.PageSize = 4096
	}
	if len(s.BudgetDivisors) == 0 {
		s.BudgetDivisors = []int64{16, 8, 2}
	}
	return s
}

// CityBenchPoint is one budget level's measurement.
type CityBenchPoint struct {
	CacheBytes      int64   `json:"cache_bytes"`
	BudgetDivisor   int64   `json:"budget_divisor"`
	Frames          int     `json:"frames"`
	FramesPerSecond float64 `json:"frames_per_second"`
	Coefficients    int64   `json:"coefficients"`
	Faults          int64   `json:"faults"`
	Hits            int64   `json:"hits"`
	Evictions       int64   `json:"evictions"`
	ResidentPeak    int64   `json:"resident_peak_bytes"`
	ResidentEnd     int64   `json:"resident_end_bytes"`
}

// CityBenchResult is the JSON document RunCityBench emits
// (BENCH_city.json).
type CityBenchResult struct {
	Objects      int              `json:"objects"`
	Coeffs       int64            `json:"coefficients"`
	PayloadBytes int64            `json:"payload_bytes"`
	PageSize     int              `json:"page_size"`
	Points       []CityBenchPoint `json:"points"`
}

// RunCityBench builds the city segment once, then for each cache budget
// reopens it and drives the same seeded tour through the retrieval
// layer, recording throughput and paging counters. Results go to
// jsonPath (skipped if empty) plus a human summary to w. The only gate
// is the residency bound — resident bytes must stay within each budget
// at every sampled point; throughput numbers are informational.
func RunCityBench(spec CityBenchSpec, jsonPath string, w io.Writer) (*CityBenchResult, error) {
	spec = spec.fill()
	dir, err := os.MkdirTemp("", "city-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	wspec := workload.CitySpec{
		BlocksX: spec.Blocks, BlocksY: spec.Blocks,
		LotsPerBlock: spec.Lots, Levels: spec.Levels, Seed: spec.Seed,
	}
	segPath := filepath.Join(dir, "city.seg")
	if err := workload.BuildCitySegment(segPath, wspec, spec.PageSize); err != nil {
		return nil, err
	}

	// Probe once at default cache for the shape, the tour space, and the
	// payload size.
	probe, err := index.OpenPaged(segPath, index.PagedConfig{})
	if err != nil {
		return nil, err
	}
	payload := probe.NumCoeffs() * index.CoeffRecordSize
	space := probe.Bounds().XY()
	res := &CityBenchResult{
		Objects:      probe.NumObjects(),
		Coeffs:       probe.NumCoeffs(),
		PayloadBytes: payload,
		PageSize:     spec.PageSize,
	}
	probe.Close()

	tour := motion.NewTour(motion.Tram, motion.TourSpec{
		Space: space, Steps: spec.Frames, Speed: 0.25,
	}, rand.New(rand.NewSource(spec.Seed+1)))
	side := space.Width() * 0.15

	fmt.Fprintf(w, "city bench: %s · payload %d B · page %d B · %d frames/budget\n",
		wspec, payload, spec.PageSize, spec.Frames)

	for _, div := range spec.BudgetDivisors {
		budget := payload / div
		ps, err := index.OpenPaged(segPath, index.PagedConfig{CacheBytes: budget})
		if err != nil {
			return nil, err
		}
		idx := index.NewSharded(ps, index.XYW, index.ShardedConfig{})
		srv := retrieval.NewServer(ps, idx)

		point := CityBenchPoint{CacheBytes: budget, BudgetDivisor: div, Frames: spec.Frames}
		var sc retrieval.Scratch
		start := time.Now()
		for i, pos := range tour.Pos {
			q := geom.RectAround(pos, side)
			resp := srv.Execute([]retrieval.SubQuery{
				{Region: q, WMin: retrieval.Identity(tour.SpeedAt(i)), WMax: 1},
			}, nil, &sc, 0)
			point.Coefficients += int64(len(resp.IDs))
			st := ps.PagerStats()
			if st.ResidentBytes > point.ResidentPeak {
				point.ResidentPeak = st.ResidentBytes
			}
			if st.ResidentBytes > budget {
				ps.Close()
				return res, fmt.Errorf("experiment: budget 1/%d: resident %d B exceeds cache %d B at frame %d",
					div, st.ResidentBytes, budget, i)
			}
		}
		elapsed := time.Since(start)
		point.FramesPerSecond = float64(spec.Frames) / elapsed.Seconds()
		st := ps.PagerStats()
		point.Faults, point.Hits, point.Evictions = st.Faults, st.Hits, st.Evictions
		point.ResidentEnd = st.ResidentBytes
		ps.Close()

		res.Points = append(res.Points, point)
		fmt.Fprintf(w, "  cache %9d B (1/%2d): %7.1f frames/s · %7d coeffs · %6d faults · %8d hits · %6d evictions · resident %d/%d B peak/end\n",
			budget, div, point.FramesPerSecond, point.Coefficients,
			point.Faults, point.Hits, point.Evictions, point.ResidentPeak, point.ResidentEnd)
	}

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
