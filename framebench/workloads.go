package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/geom"
	"repro/internal/motion"
	"repro/internal/retrieval"
	"repro/internal/workload"
)

// config is one workload at one scale: the scene the stack serves and
// the viewer sessions the two client connections replay.
type config struct {
	name string

	// Scene. A zero city spec means the uniform scatter dataset of
	// objects×levels held in memory; otherwise the city is built into a
	// paged segment whose page cache holds 1/pageDivisor of the payload,
	// scrubbed every scrubEvery.
	objects     int
	levels      int
	city        workload.CitySpec
	pageDivisor int64
	scrubEvery  time.Duration
	shards      int

	// Traffic. kind is the tour shape unless crowd is set, in which case
	// sessions replay crowds of crowd.Clients viewers one after another
	// (see tours.tour). A
	// budget > 0 sends every frame as FrameBudget with that many bytes
	// and rings rings; 0 sends plain Algorithm-1 frames.
	kind      motion.TourKind
	crowd     *workload.CrowdSpec
	steps     int
	frameFrac float64
	speed     float64
	budget    int64
	rings     int
	gateway   bool

	// Run shape.
	setups     int           // set-ups per untraced run; setup_s is their median
	warm       time.Duration // load before the measured phase starts
	sideLength time.Duration // each gateway/direct phase of a traced run
}

func (c *config) paged() bool { return c.city.BlocksX > 0 }

// lookupWorkload returns the named workload; short shrinks its scene
// to a few seconds of work for the package's own tests.
func lookupWorkload(name string, short bool) (*config, error) {
	var c config
	switch name {
	case "tram":
		c = config{
			name: name, objects: 100, levels: 5, shards: 4,
			kind: motion.Tram, steps: 120, frameFrac: 0.10, speed: 0.25,
		}
	case "crowd":
		c = config{
			name: name, objects: 100, levels: 5, shards: 4,
			crowd: &workload.CrowdSpec{
				Clients: 10, Steps: 64, Attractors: 2, Overlap: 0.9, Speed: 0.25,
			},
			steps: 64, frameFrac: 0.10, speed: 0.25, gateway: true,
		}
	case "city":
		// Scrubbing every 0.5 s puts the scrub stalls beyond
		// frame_p999_us rather than on its edge, and 16-step tours give
		// a run enough first frames for a steady first_frame_p90_us.
		c = config{
			name: name, shards: 4,
			city:        workload.CitySpec{BlocksX: 16, BlocksY: 16, LotsPerBlock: 3, Levels: 3},
			pageDivisor: 8, scrubEvery: 500 * time.Millisecond,
			kind: motion.Pedestrian, steps: 16, frameFrac: 0.05, speed: 0.25,
			budget: 16 << 10, rings: 3,
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want tram, crowd or city)", name)
	}
	c.setups, c.warm, c.sideLength = 3, time.Second, time.Second
	if short {
		c.setups, c.warm, c.sideLength = 1, 100*time.Millisecond, 200*time.Millisecond
		if c.paged() {
			c.city.BlocksX, c.city.BlocksY, c.city.Levels = 4, 4, 2
			c.scrubEvery = 100 * time.Millisecond
		} else {
			c.objects, c.levels = 20, 3
		}
	}
	return &c, nil
}

// sceneSeed fixes every workload's scene. The workload seed draws the
// viewers, not the world they view: with one 100-object dataset per
// seed, which objects lie where moved coefficients per frame by ±15%
// from seed to seed, while a run's ~1000 tours over a fixed dataset
// vary by ±2%.
const sceneSeed = 1

// sessionSeed derives session k's tour seed from the workload seed, so
// a session's tour depends only on (seed, k).
func sessionSeed(seed int64, k int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(k+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x)
}

// tours generates the viewer sessions of one run. It holds everything
// the program sees of the workload besides the dataset: the query
// window side, and each session's positions and speeds.
type tours struct {
	cfg   *config
	seed  int64
	space geom.Rect2
	side  float64
}

func newTours(cfg *config, seed int64, space geom.Rect2) *tours {
	return &tours{cfg: cfg, seed: seed, space: space, side: space.Width() * cfg.frameFrac}
}

// tour returns session k's tour. On a crowd workload, sessions come in
// crowds of crowd.Clients: crowd e = k / Clients is the one
// workload.GenerateCrowd makes from seed e of the workload seed, and
// its viewers arrive in a seeded random order, so the two connections
// sometimes follow the same flock at once. Each session takes its tour
// from workload.CrowdTour, the per-viewer generator GenerateCrowd
// calls, to keep no crowd in memory.
func (t *tours) tour(k int) *motion.Tour {
	if c := t.cfg.crowd; c != nil {
		e := k / c.Clients
		spec := *c
		spec.Space, spec.Seed = t.space, sessionSeed(t.seed, -1-e)
		order := rand.New(rand.NewSource(spec.Seed)).Perm(c.Clients)
		return workload.CrowdTour(spec, order[k%c.Clients])
	}
	spec := motion.TourSpec{Space: t.space, Steps: t.cfg.steps, Speed: t.cfg.speed}
	return motion.NewTour(t.cfg.kind, spec, rand.New(rand.NewSource(sessionSeed(t.seed, k))))
}

// frame returns the query window and speed of step i of a tour.
func (t *tours) frame(tr *motion.Tour, i int) (geom.Rect2, float64) {
	return geom.RectAround(tr.Pos[i], t.side), tr.SpeedAt(i)
}

// mapSpeed is the speed-to-resolution mapping of every viewer here, the
// one proto clients use by default.
var mapSpeed = retrieval.Identity
