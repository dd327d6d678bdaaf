// Crowd generation: the shared-interest viewer workload behind query
// coalescing. Real crowds cluster — most viewers orbit a few landmarks
// while the rest roam — so the generator splits clients into flocks
// that follow shared attractor paths (every member of a flock issues
// the *identical* window query at every step, the case the hot cache
// and the coalescer exploit) and independent roamers (the no-overlap baseline).
// Like the city generator, everything is (seed, i)-pure: client i's
// tour depends only on (spec, i), never on how many other clients were
// generated or in what order.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/motion"
)

// CrowdSpec parameterizes a deterministic crowd of viewer tours.
type CrowdSpec struct {
	// Space is the ground-plane extent the tours stay inside (empty →
	// 1000×1000 at the origin).
	Space geom.Rect2
	// Clients is the crowd size (0 → 100).
	Clients int
	// Steps is the number of timestamps per tour (0 → 64).
	Steps int
	// Attractors is how many shared attractor paths the flocked clients
	// divide among (0 → 4).
	Attractors int
	// Overlap in [0, 1] is the fraction of clients assigned to flocks;
	// the rest roam independently. Clamped into range. 0 means every
	// client is independent — the coalescer's worst case.
	Overlap float64
	// Speed is the normalized tour speed in (0, 1] (0 → 0.25).
	Speed float64
	// Seed makes the whole crowd reproducible; tour i depends only on
	// (Seed, i) — and, for flocked clients, on the attractor index
	// derived from i.
	Seed int64
}

func (s *CrowdSpec) fill() {
	if s.Space.Empty() {
		s.Space = geom.R2(0, 0, 1000, 1000)
	}
	if s.Clients <= 0 {
		s.Clients = 100
	}
	if s.Steps <= 0 {
		s.Steps = 64
	}
	if s.Attractors <= 0 {
		s.Attractors = 4
	}
	if s.Overlap < 0 {
		s.Overlap = 0
	}
	if s.Overlap > 1 {
		s.Overlap = 1
	}
	if s.Speed <= 0 {
		s.Speed = 0.25
	}
}

func (s CrowdSpec) String() string {
	s.fill()
	return fmt.Sprintf("crowd of %d over %d steps · overlap %.2f across %d attractors (seed %d)",
		s.Clients, s.Steps, s.Overlap, s.Attractors, s.Seed)
}

// flockCutoff is the first roamer index: clients below it are flocked.
// Index arithmetic, not random draws, so membership is exact (the
// flocked fraction is within 1/Clients of Overlap) and (seed, i)-pure.
func (s CrowdSpec) flockCutoff() int {
	s.fill()
	n := int(s.Overlap*float64(s.Clients) + 0.5)
	if n > s.Clients {
		n = s.Clients
	}
	return n
}

// FlockOf reports which attractor client i follows, or -1 for an
// independent roamer. Flocked clients are dealt round-robin across the
// attractors.
func (s CrowdSpec) FlockOf(i int) int {
	s.fill()
	if i < 0 || i >= s.Clients {
		panic(fmt.Sprintf("workload: crowd client %d out of range [0, %d)", i, s.Clients))
	}
	if i >= s.flockCutoff() {
		return -1
	}
	return i % s.Attractors
}

// tourSpec is the shared motion parameterization of every crowd tour.
func (s CrowdSpec) tourSpec() motion.TourSpec {
	return motion.TourSpec{Space: s.Space, Steps: s.Steps, Speed: s.Speed}
}

// CrowdTour generates client i's tour in isolation. Flocked clients
// return a copy of their attractor's path — positions and speeds
// identical across the whole flock, so their per-step window queries
// coincide exactly. Roamers get an independent pedestrian walk. The
// result depends only on (spec, i).
func CrowdTour(spec CrowdSpec, i int) *motion.Tour {
	spec.fill()
	if k := spec.FlockOf(i); k >= 0 {
		return AttractorPath(spec, k)
	}
	rng := rand.New(rand.NewSource(mix(spec.Seed, i)))
	return motion.NewTour(motion.Pedestrian, spec.tourSpec(), rng)
}

// AttractorPath generates attractor k's shared path — the tour every
// member of flock k follows. Attractor seeds are mixed from negative
// indexes so no attractor ever collides with a roamer's per-client
// seed. The result depends only on (spec, k).
func AttractorPath(spec CrowdSpec, k int) *motion.Tour {
	spec.fill()
	if k < 0 || k >= spec.Attractors {
		panic(fmt.Sprintf("workload: attractor %d out of range [0, %d)", k, spec.Attractors))
	}
	rng := rand.New(rand.NewSource(mix(spec.Seed, -(k + 1))))
	return motion.NewTour(motion.Pedestrian, spec.tourSpec(), rng)
}

// GenerateCrowd materializes every client's tour.
func GenerateCrowd(spec CrowdSpec) []*motion.Tour {
	spec.fill()
	tours := make([]*motion.Tour, spec.Clients)
	for i := range tours {
		tours[i] = CrowdTour(spec, i)
	}
	return tours
}
