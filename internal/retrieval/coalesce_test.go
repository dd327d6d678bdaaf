package retrieval

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/hotcache"
	"repro/internal/index"
)

// reconcile asserts the coalescer's exact accounting invariant: every
// routed sub-query took exactly one of the three paths.
func reconcile(t *testing.T, cs CoalescerStats) {
	t.Helper()
	if cs.Routed != cs.Led+cs.Shared+cs.BypassStale {
		t.Fatalf("coalescer counters do not reconcile: routed %d != led %d + shared %d + stale %d",
			cs.Routed, cs.Led, cs.Shared, cs.BypassStale)
	}
}

// gatedIndex exposes a Sharded through the plain Search interface (no
// IntoSearcher, so runSearch takes the Search path) and lets a test
// block one search mid-flight to construct deterministic concurrency.
type gatedIndex struct {
	inner   *index.Sharded
	mu      sync.Mutex
	block   chan struct{} // armed: next Search waits on it
	entered chan struct{} // closed when the gated Search begins
}

func (g *gatedIndex) Name() string  { return g.inner.Name() }
func (g *gatedIndex) Len() int      { return g.inner.Len() }
func (g *gatedIndex) Epoch() uint64 { return g.inner.Epoch() }

func (g *gatedIndex) arm() (chan struct{}, chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.block = make(chan struct{})
	g.entered = make(chan struct{})
	return g.block, g.entered
}

func (g *gatedIndex) Search(q index.Query) ([]int64, int64) {
	g.mu.Lock()
	block, entered := g.block, g.entered
	g.block, g.entered = nil, nil
	g.mu.Unlock()
	if block != nil {
		close(entered)
		<-block
	}
	return g.inner.Search(q)
}

// gatedServer builds a coalesced server over a gatedIndex and an
// uncoalesced twin over an identically built index (same seed, same
// tree, same I/O counts) to compare responses against.
func gatedServer(t *testing.T, seed int64) (*Server, *gatedIndex, *Server) {
	t.Helper()
	base := testShardedServer(t, 8, seed, 4)
	gated := &gatedIndex{inner: base.Index().(*index.Sharded)}
	srv := NewServer(base.Store(), gated)
	srv.SetStats(nil)
	srv.SetParallelism(1)
	srv.SetCoalescer(NewCoalescer(CoalescerConfig{}))
	return srv, gated, testShardedServer(t, 8, seed, 4)
}

// inFlight executes sub once per scratch (nil = a call-local scratch),
// concurrently: the first execution leads and is blocked mid-search, and
// inFlight returns only once every other execution has been routed —
// i.e. has joined the blocked leader's flight. The returned release
// unblocks the leader and yields the responses in scratch order.
func inFlight(t *testing.T, srv *Server, g *gatedIndex, sub SubQuery, scs ...*Scratch) (release func() []Response) {
	t.Helper()
	block, entered := g.arm()
	out := make([]Response, len(scs))
	var wg sync.WaitGroup
	run := func(i int) {
		defer wg.Done()
		out[i] = srv.Execute([]SubQuery{sub}, nil, scs[i], 0)
	}
	wg.Add(len(scs))
	go run(0)
	<-entered // the leader is mid-search, its flight published
	for i := 1; i < len(scs); i++ {
		go run(i)
	}
	for srv.Coalescer().Stats().Routed < int64(len(scs)) {
		time.Sleep(100 * time.Microsecond)
	}
	return func() []Response {
		close(block)
		wg.Wait()
		return out
	}
}

// TestCoalescerFollowerAdoptsInFlightResult pins the coalescer's one
// job: an identical query arriving while the leader's search is still
// running waits for it and adopts its result, byte-identical to an
// uncoalesced server's, and the flight retires once the search is done.
func TestCoalescerFollowerAdoptsInFlightResult(t *testing.T) {
	srv, g, plain := gatedServer(t, 41)
	sub := SubQuery{Region: geom.R2(100, 100, 700, 700), WMin: 0.2, WMax: 1}
	got := inFlight(t, srv, g, sub, nil, nil)()

	cs := srv.Coalescer().Stats()
	reconcile(t, cs)
	if cs.Routed != 2 || cs.Led != 1 || cs.Shared != 1 || cs.Flights != 0 {
		t.Fatalf("expected 1 led + 1 shared of 2 routed and no flight left, got %+v", cs)
	}
	want := plain.Execute([]SubQuery{sub}, nil, nil, 0)
	if len(want.IDs) == 0 {
		t.Fatal("query hits nothing; the adoption check is vacuous")
	}
	for i, r := range got {
		if !respEqual(r, want) {
			t.Fatalf("response %d diverged from uncoalesced execution", i)
		}
	}
}

// TestCoalescerEpochBumpBypassesStale pins the epoch rule: a mutation
// landing while the leader is mid-search makes its result unstable, so
// the waiting follower runs its own search instead of adopting, and
// neither result is memoized into the wired hot cache.
func TestCoalescerEpochBumpBypassesStale(t *testing.T) {
	srv, g, plain := gatedServer(t, 43)
	srv.SetHotCache(hotcache.New(hotcache.Config{}))
	sub := SubQuery{Region: geom.R2(100, 100, 700, 700), WMin: 0.2, WMax: 1}
	release := inFlight(t, srv, g, sub, nil, nil)
	// Delete + reinsert of the same id: content unchanged, epoch moved.
	g.inner.Delete(0)
	g.inner.Insert(0)
	got := release()

	cs := srv.Coalescer().Stats()
	reconcile(t, cs)
	if cs.Led != 1 || cs.Shared != 0 || cs.BypassStale != 1 || cs.Flights != 0 {
		t.Fatalf("expected 1 led + 1 stale bypass, got %+v", cs)
	}
	if hs := srv.HotCache().Stats(); hs.Entries != 0 {
		t.Fatalf("a result from across the epoch bump was memoized: %+v", hs)
	}
	mut := plain.Index().(index.Mutable)
	mut.Delete(0)
	mut.Insert(0)
	want := plain.Execute([]SubQuery{sub}, nil, nil, 0)
	for i, r := range got {
		if !respEqual(r, want) {
			t.Fatalf("response %d diverged from uncoalesced execution", i)
		}
		if r.Hot.Valid {
			t.Fatalf("response %d carries a HotRef for an unstable result", i)
		}
	}
}

// TestCoalescerFollowerCopiesFlightIDs pins the aliasing contract: each
// adopted result is copied out of the flight into the session's own
// buffer, so one session reusing its scratch can never corrupt another
// session's result.
func TestCoalescerFollowerCopiesFlightIDs(t *testing.T) {
	srv, g, _ := gatedServer(t, 67)
	sub := SubQuery{Region: geom.R2(100, 100, 700, 700), WMin: 0.2, WMax: 1}
	var lead, a, b Scratch
	got := inFlight(t, srv, g, sub, &lead, &a, &b)()

	cs := srv.Coalescer().Stats()
	reconcile(t, cs)
	if cs.Led != 1 || cs.Shared != 2 {
		t.Fatalf("expected 1 led + 2 shared, got %+v", cs)
	}
	if len(got[0].IDs) == 0 {
		t.Fatal("query hits nothing; the aliasing check is vacuous")
	}
	slabs := []*int64{&lead.results[0].ids[0], &a.results[0].ids[0], &b.results[0].ids[0]}
	if slabs[0] == slabs[1] || slabs[0] == slabs[2] || slabs[1] == slabs[2] {
		t.Fatal("sessions share one id slab instead of copying out of the flight")
	}
	for i := range got[1:] {
		if !respEqual(got[i+1], got[0]) {
			t.Fatalf("follower %d's ids differ from the leader's", i)
		}
	}
}

// TestCoalescerNaNQueryBypassesTable pins the NaN rule: a query that is
// not equal to itself could never be found or deleted in the flight
// table, so it searches alone and leaves no flight behind.
func TestCoalescerNaNQueryBypassesTable(t *testing.T) {
	srv := testShardedServer(t, 8, 71, 4)
	srv.SetParallelism(1)
	srv.SetCoalescer(NewCoalescer(CoalescerConfig{}))
	plain := testShardedServer(t, 8, 71, 4)
	sub := SubQuery{Region: geom.R2(100, 100, 700, 700), WMin: math.NaN(), WMax: 1}
	want := plain.Execute([]SubQuery{sub}, nil, nil, 0)
	for i := 0; i < 2; i++ {
		if got := srv.Execute([]SubQuery{sub}, nil, nil, 0); !respEqual(got, want) {
			t.Fatalf("NaN query %d diverged from uncoalesced execution", i)
		}
	}
	cs := srv.Coalescer().Stats()
	reconcile(t, cs)
	if cs.Routed != 2 || cs.Led != 2 || cs.Flights != 0 {
		t.Fatalf("expected 2 solo leads and an empty table, got %+v", cs)
	}
}

// TestCoalescerPopulatesHotCache pins the layering: a coalesced stable
// result is memoized into the hot cache under the epoch the flight
// proved, so the next repeat is a cache hit that never reaches the
// coalescer.
func TestCoalescerPopulatesHotCache(t *testing.T) {
	srv := testShardedServer(t, 8, 59, 4)
	srv.SetParallelism(1)
	srv.SetHotCache(hotcache.New(hotcache.Config{}))
	srv.SetCoalescer(NewCoalescer(CoalescerConfig{}))
	sub := SubQuery{Region: geom.R2(100, 100, 700, 700), WMin: 0.2, WMax: 1}
	r1 := srv.Execute([]SubQuery{sub}, nil, nil, 0)
	if !r1.Hot.Valid {
		t.Fatal("coalesced stable response not marked hot")
	}
	r2 := srv.Execute([]SubQuery{sub}, nil, nil, 0)
	if !respEqual(r1, r2) || !r2.Hot.Valid || r2.Hot != r1.Hot {
		t.Fatal("hot-cache replay of a coalesced result diverged")
	}
	if hs := srv.HotCache().Stats(); hs.Hits != 1 {
		t.Fatalf("expected the repeat to hit the hot cache, got %+v", hs)
	}
	if cs := srv.Coalescer().Stats(); cs.Routed != 1 {
		t.Fatalf("cache hit leaked into the coalescer: %+v", cs)
	}
}

// TestCoalescedConcurrentMatchesIndependent is the byte-identity
// property under real concurrency (meaningful under -race): many
// sessions run overlapping frame streams in lockstep steps — all
// clients of a step concurrent against a server with the hot cache in
// front of the coalescer — and every response must be field-identical
// to an unshared serial oracle serving the same streams. A mid-soak
// epoch bump (delete + reinsert of the same id at a step barrier,
// applied to both indexes, so content and tree shape stay identical)
// forces the invalidation path.
func TestCoalescedConcurrentMatchesIndependent(t *testing.T) {
	const clients, steps, bumpAt = 8, 60, 30
	srv := testShardedServer(t, 10, 61, 4)
	srv.SetHotCache(hotcache.New(hotcache.Config{}))
	srv.SetCoalescer(NewCoalescer(CoalescerConfig{}))
	oracle := testShardedServer(t, 10, 61, 4)

	// Pre-plan every client's frames: half the clients share one flock
	// stream (identical queries, the coalescable case), half roam.
	streams := make([][][]SubQuery, clients)
	flock := make([][]SubQuery, steps)
	frng := rand.New(rand.NewSource(7))
	for s := range flock {
		flock[s] = randSubs(frng)
	}
	for c := range streams {
		if c%2 == 0 {
			streams[c] = flock
			continue
		}
		rng := rand.New(rand.NewSource(int64(c) * 131))
		own := make([][]SubQuery, steps)
		for s := range own {
			own[s] = randSubs(rng)
		}
		streams[c] = own
	}

	bump := func(idx index.Index) {
		mut := idx.(index.Mutable)
		mut.Delete(3)
		mut.Insert(3)
	}

	// The oracle serves serially, session per client, no coalescer, with
	// the bump applied at the same step boundary.
	want := make([][]Response, clients)
	oracleSess := make([]*Session, clients)
	for c := range want {
		want[c] = make([]Response, steps)
		oracleSess[c] = NewSession(oracle)
	}
	for s := 0; s < steps; s++ {
		if s == bumpAt {
			bump(oracle.Index())
		}
		for c := 0; c < clients; c++ {
			want[c][s] = oracle.Execute(streams[c][s], oracleSess[c].delivered, nil, 0)
		}
	}

	// Coalesced side: lockstep steps, all clients concurrent within one.
	starts := make([]chan struct{}, steps)
	done := make([]*sync.WaitGroup, steps)
	for s := range starts {
		starts[s] = make(chan struct{})
		done[s] = &sync.WaitGroup{}
		done[s].Add(clients)
	}
	var mu sync.Mutex
	failures := []string{}
	for c := 0; c < clients; c++ {
		go func(c int) {
			sess := NewSession(srv)
			for s := 0; s < steps; s++ {
				<-starts[s]
				got := sess.RetrieveScratch(streams[c][s])
				if !respEqual(got, want[c][s]) {
					mu.Lock()
					failures = append(failures,
						"client diverged from the independent oracle")
					mu.Unlock()
				}
				done[s].Done()
			}
		}(c)
	}
	for s := 0; s < steps; s++ {
		if s == bumpAt {
			bump(srv.Index())
		}
		close(starts[s])
		done[s].Wait()
	}
	if len(failures) > 0 {
		t.Fatal(failures[0])
	}
	cs, hs := srv.Coalescer().Stats(), srv.HotCache().Stats()
	reconcile(t, cs)
	// Every well-formed sub-query was either a hot-cache hit or routed.
	ran := int64(0)
	for c := range streams {
		for _, frame := range streams[c] {
			for _, sub := range frame {
				if !sub.Region.Empty() && sub.WMin <= sub.WMax {
					ran++
				}
			}
		}
	}
	if cs.Routed+hs.Hits != ran {
		t.Fatalf("%d routed + %d hot hits != %d sub-queries", cs.Routed, hs.Hits, ran)
	}
	// Whether a flock member adopts the leader's flight or hits the cache
	// depends on scheduling; that it shares one or the other does not.
	if cs.Routed == 0 || cs.Shared+hs.Hits == 0 {
		t.Fatalf("soak shared nothing — property is vacuous: %+v, %+v", cs, hs)
	}
}
