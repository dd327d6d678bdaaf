package index

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// randomQueries builds a reproducible batch of window queries spanning
// degenerate, tiny, and space-covering windows with varied value bands.
func randomQueries(seed int64, n int) []Query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]Query, n)
	for i := range qs {
		x, y := rng.Float64()*900, rng.Float64()*900
		w, h := rng.Float64()*300, rng.Float64()*300
		wmin := rng.Float64()
		wmax := wmin + rng.Float64()*(1-wmin)
		qs[i] = Query{
			Region: geom.R2(x, y, x+w, y+h),
			ZMin:   0, ZMax: rng.Float64() * 120,
			WMin: wmin, WMax: wmax,
		}
	}
	return qs
}

func sortedIDs(ids []int64) []int64 {
	out := append([]int64(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestConcurrentSearchEqualsSerial is the read-path property test: for
// random coefficient sets and random query batches, every access method
// must return, under heavy goroutine concurrency, exactly the results
// (and I/O counts) of a single-threaded execution — Search holds no
// hidden mutable state. The subtests run with t.Parallel() so the index
// builds and cross-index searches interleave, and the whole test is part
// of the -race gate.
func TestConcurrentSearchEqualsSerial(t *testing.T) {
	for _, seed := range []int64{21, 22} {
		seed := seed
		s := testStore(t, 8, seed)
		indexes := []Index{
			NewMotionAware(s, XYW, rtree.Config{}),
			NewMotionAware(s, XYZW, rtree.Config{}),
			NewNaive(s, XYW, rtree.Config{}),
			NewObjectIndex(s, rtree.Config{}),
		}
		queries := randomQueries(seed*100, 40)
		for _, idx := range indexes {
			idx := idx
			t.Run(fmt.Sprintf("seed%d/%s", seed, idx.Name()), func(t *testing.T) {
				t.Parallel()
				// Single-threaded baseline, computed once up front.
				wantIDs := make([][]int64, len(queries))
				wantIO := make([]int64, len(queries))
				for i, q := range queries {
					ids, io := idx.Search(q)
					wantIDs[i] = sortedIDs(ids)
					wantIO[i] = io
				}
				// The motion-aware baseline must itself match brute force.
				if ma, ok := idx.(*MotionAware); ok {
					for i, q := range queries {
						ref := referenceMotionAware(s, ma.layout, q)
						if len(ref) != len(wantIDs[i]) {
							t.Fatalf("query %d: baseline %d ids, brute force %d",
								i, len(wantIDs[i]), len(ref))
						}
						for _, id := range wantIDs[i] {
							if !ref[id] {
								t.Fatalf("query %d: id %d not in brute force set", i, id)
							}
						}
					}
				}

				const goroutines = 8
				var wg sync.WaitGroup
				errs := make(chan error, goroutines)
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						// Each goroutine walks the batch from a different
						// offset so distinct queries overlap in time.
						for k := range queries {
							i := (k + g*len(queries)/goroutines) % len(queries)
							ids, io := idx.Search(queries[i])
							if got := sortedIDs(ids); !equalIDs(got, wantIDs[i]) {
								errs <- fmt.Errorf("goroutine %d query %d: %d ids, serial %d",
									g, i, len(got), len(wantIDs[i]))
								return
							}
							if io != wantIO[i] {
								errs <- fmt.Errorf("goroutine %d query %d: io %d, serial %d",
									g, i, io, wantIO[i])
								return
							}
						}
					}(g)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Error(err)
				}
			})
		}
	}
}

// TestMotionAwareInsertDelete checks the new mutation ops single-threaded:
// delete removes exactly the coefficient, insert restores it, and
// searches stay consistent with brute force throughout.
func TestMotionAwareInsertDelete(t *testing.T) {
	s := testStore(t, 4, 31)
	ma := NewMotionAware(s, XYW, rtree.Config{})
	total := ma.Len()
	all := Query{Region: geom.R2(0, 0, 1000, 1000), WMin: 0, WMax: 1}

	victim := s.ID(1, 7)
	if !ma.Delete(victim) {
		t.Fatal("delete of an indexed coefficient failed")
	}
	if ma.Delete(victim) {
		t.Fatal("double delete succeeded")
	}
	if ma.Len() != total-1 {
		t.Fatalf("len = %d after delete", ma.Len())
	}
	ids, _ := ma.Search(all)
	for _, id := range ids {
		if id == victim {
			t.Fatal("deleted coefficient still returned")
		}
	}
	if len(ids) != total-1 {
		t.Fatalf("search returned %d of %d", len(ids), total-1)
	}

	ma.Insert(victim)
	if ma.Len() != total {
		t.Fatalf("len = %d after reinsert", ma.Len())
	}
	ids, _ = ma.Search(all)
	found := false
	for _, id := range ids {
		if id == victim {
			found = true
		}
	}
	if !found || len(ids) != total {
		t.Fatalf("reinsert lost the coefficient (%d ids, found=%v)", len(ids), found)
	}
	if err := ma.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
}
