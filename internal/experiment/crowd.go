package experiment

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/hotcache"
	"repro/internal/index"
	"repro/internal/proto"
	"repro/internal/retrieval"
	"repro/internal/stats"
	"repro/internal/workload"
)

// crowdScene names the scene both crowd-serving servers expose.
const crowdScene = "plaza"

// CrowdRunSpec configures the crowd-serving acceptance soak: a flocked
// crowd tours two identically built servers over the wire — one with
// the hot-region cache and the in-flight coalescer enabled, one
// serving every session independently — and every frame of every client
// must come back identical, coefficient for coefficient and I/O count
// for I/O count, across a forced mid-soak index mutation. The zero
// value gets quick-scale defaults sized for CI.
type CrowdRunSpec struct {
	Seed       int64
	Objects    int     // dataset size (default 48)
	Levels     int     // subdivision depth (default 3)
	Clients    int     // crowd size (default 16)
	Steps      int     // lockstep frames per client (default 36)
	Attractors int     // shared attractor paths (default 3)
	Overlap    float64 // flocked fraction (default 0.75; negative → 0)
	Shards     int     // index shard count per scene
}

func (s CrowdRunSpec) fill() CrowdRunSpec {
	if s.Objects == 0 {
		s.Objects = 48
	}
	if s.Levels == 0 {
		s.Levels = 3
	}
	if s.Clients == 0 {
		s.Clients = 16
	}
	if s.Steps == 0 {
		s.Steps = 36
	}
	if s.Attractors == 0 {
		s.Attractors = 3
	}
	if s.Overlap == 0 {
		s.Overlap = 0.75
	}
	if s.Overlap < 0 {
		s.Overlap = 0
	}
	return s
}

// crowdFrame is one lockstep step of one client.
type crowdFrame struct {
	q     geom.Rect2
	speed float64
}

// crowdSession drives one raw wire session through the lockstep soak:
// it blocks on the shared per-step barrier, issues its frame, records
// the full parsed response, and signals the step's completion group.
// Recording the response verbatim (every Coeff record plus the I/O
// count) is what makes the byte-identity comparison exact.
func crowdSession(addr string, frames []crowdFrame, starts []chan struct{}, steps []*sync.WaitGroup) ([]proto.Response, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	r, w := proto.NewReader(conn), proto.NewWriter(conn)
	if tag, err := r.ReadTag(); err != nil || tag != proto.TagHello {
		return nil, fmt.Errorf("handshake tag %d err %v", tag, err)
	}
	if _, err := r.ReadHello(); err != nil {
		return nil, err
	}

	planner := retrieval.NewClient(nil, nil)
	out := make([]proto.Response, len(frames))
	for i, f := range frames {
		if starts != nil {
			<-starts[i]
		}
		subs := planner.PlanFrame(f.q, f.speed)
		if err := w.WriteRequest(proto.Request{Speed: f.speed, Subs: subs}); err != nil {
			return nil, err
		}
		tag, err := r.ReadTag()
		if err != nil {
			return nil, err
		}
		if tag != proto.TagResponse {
			if tag == proto.TagError {
				msg, _ := r.ReadError()
				return nil, fmt.Errorf("server error: %s", msg)
			}
			return nil, fmt.Errorf("unexpected tag %d", tag)
		}
		if out[i], err = r.ReadResponse(); err != nil {
			return nil, err
		}
		planner.Advance(f.q, f.speed)
		if steps != nil {
			steps[i].Done()
		}
	}
	w.WriteBye()
	return out, nil
}

// crowdServer builds one wire server over a freshly (and identically)
// generated dataset and serves it on a loopback listener.
func crowdServer(spec CrowdRunSpec, st *stats.Stats, coalesced bool) (*engine.Scene, *proto.Server, net.Listener, func(), error) {
	d := workload.Generate(workload.Spec{NumObjects: spec.Objects, Levels: spec.Levels, Seed: spec.Seed + 5})
	reg := engine.NewRegistry()
	cfg := engine.SceneConfig{Name: crowdScene, Dataset: d, Levels: spec.Levels, Shards: spec.Shards, Stats: st}
	if coalesced {
		cfg.HotCache = &hotcache.Config{}
	}
	sc, err := reg.Build(cfg)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if coalesced {
		reg.EnableCoalescer(retrieval.CoalescerConfig{}, st)
	}
	srv := proto.NewMultiServer(reg, nil)
	srv.SetStats(st)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, nil, err
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(lis) }()
	stop := func() { srv.Close(); <-done }
	return sc, srv, lis, stop, nil
}

// RunCrowd runs the crowd-serving acceptance soak and prints a summary.
// The acceptance claims, each enforced as an error:
//
//   - coalesced serving is invisible: every frame of every client —
//     including frames after a forced mid-soak index mutation — matches
//     the independent server's frame exactly, every coefficient record
//     and the reported index I/O included;
//   - sharing actually happened: a flocking crowd cost strictly fewer
//     index passes than independent serving;
//   - the payload path engaged: cached serialized payloads were
//     replayed instead of re-encoded (PayloadHits > 0);
//   - the counters reconcile exactly: Routed == Led + Shared +
//     BypassStale, and Routed + hot-cache hits == sub-queries.
func RunCrowd(spec CrowdRunSpec, w io.Writer) error {
	spec = spec.fill()
	bumpAt := spec.Steps / 2
	if bumpAt < 1 || spec.Steps < 4 {
		return fmt.Errorf("experiment: %d steps too short for a mid-soak epoch bump", spec.Steps)
	}

	stCo, stInd := stats.New(), stats.New()
	scCo, _, lisCo, stopCo, err := crowdServer(spec, stCo, true)
	if err != nil {
		return err
	}
	defer stopCo()
	scInd, _, lisInd, stopInd, err := crowdServer(spec, stInd, false)
	if err != nil {
		return err
	}
	defer stopInd()
	if scCo.Server.Coalescer() == nil || scCo.Server.HotCache() == nil {
		return fmt.Errorf("experiment: coalesced server came up without coalescer or hot cache")
	}

	// The crowd: flocked clients share attractor paths float-for-float,
	// so their per-step windows coincide — the case coalescing exploits.
	space := scCo.Dataset.Store.Bounds().XY()
	crowd := workload.GenerateCrowd(workload.CrowdSpec{
		Space:      space,
		Clients:    spec.Clients,
		Steps:      spec.Steps,
		Attractors: spec.Attractors,
		Overlap:    spec.Overlap,
		Seed:       spec.Seed,
	})
	side := scCo.Dataset.QuerySide(0.10)
	frames := make([][]crowdFrame, spec.Clients)
	for i, tour := range crowd {
		frames[i] = make([]crowdFrame, spec.Steps)
		for s, pos := range tour.Pos {
			frames[i][s] = crowdFrame{q: geom.RectAround(pos, side), speed: tour.SpeedAt(s)}
		}
	}

	// The forced mutation: delete and reinsert one coefficient. Content
	// is unchanged but the R*-tree may reshape and the epoch advances, so
	// it must be applied to BOTH indexes at the SAME step boundary — the
	// identical op sequence keeps the two trees (and their I/O counts)
	// identical, while cached entries and in-flight coalescing on the
	// coalesced side are forced through the stale-epoch path.
	bump := func(sc *engine.Scene) error {
		mut, ok := sc.Index.(index.Mutable)
		if !ok {
			return fmt.Errorf("experiment: scene index is not mutable")
		}
		mut.Delete(0)
		mut.Insert(0)
		return nil
	}

	start := time.Now()

	// Independent baseline: the same crowd under the same lockstep
	// barriers, served without sharing, with the bump at the same
	// boundary. Between barriers the index is read-only, so the
	// concurrent replay is as deterministic as a serial one.
	indDone := make([]*sync.WaitGroup, spec.Steps)
	indStarts := make([]chan struct{}, spec.Steps)
	for s := range indStarts {
		indStarts[s] = make(chan struct{})
		indDone[s] = &sync.WaitGroup{}
		indDone[s].Add(spec.Clients)
	}
	indResp := make([][]proto.Response, spec.Clients)
	indErr := make([]error, spec.Clients)
	var wgInd sync.WaitGroup
	for i := 0; i < spec.Clients; i++ {
		wgInd.Add(1)
		go func(i int) {
			defer wgInd.Done()
			indResp[i], indErr[i] = crowdSession(lisInd.Addr().String(), frames[i], indStarts, indDone)
		}(i)
	}
	for s := 0; s < spec.Steps; s++ {
		if s == bumpAt {
			if err := bump(scInd); err != nil {
				return err
			}
		}
		close(indStarts[s])
		indDone[s].Wait()
	}
	wgInd.Wait()
	for i, err := range indErr {
		if err != nil {
			return fmt.Errorf("independent client %d: %w", i, err)
		}
	}

	// Coalesced run: same lockstep barriers; within a step every client
	// fires concurrently, which is what gives the coalescer followers.
	coStarts := make([]chan struct{}, spec.Steps)
	coDone := make([]*sync.WaitGroup, spec.Steps)
	for s := range coStarts {
		coStarts[s] = make(chan struct{})
		coDone[s] = &sync.WaitGroup{}
		coDone[s].Add(spec.Clients)
	}
	coResp := make([][]proto.Response, spec.Clients)
	coErr := make([]error, spec.Clients)
	var wgCo sync.WaitGroup
	for i := 0; i < spec.Clients; i++ {
		wgCo.Add(1)
		go func(i int) {
			defer wgCo.Done()
			coResp[i], coErr[i] = crowdSession(lisCo.Addr().String(), frames[i], coStarts, coDone)
		}(i)
	}
	for s := 0; s < spec.Steps; s++ {
		if s == bumpAt {
			if err := bump(scCo); err != nil {
				return err
			}
		}
		close(coStarts[s])
		coDone[s].Wait()
	}
	wgCo.Wait()
	for i, err := range coErr {
		if err != nil {
			return fmt.Errorf("coalesced client %d: %w", i, err)
		}
	}
	elapsed := time.Since(start)

	// Byte-identity: every client, every frame, every record.
	diverged := 0
	for i := 0; i < spec.Clients; i++ {
		for s := 0; s < spec.Steps; s++ {
			a, b := coResp[i][s], indResp[i][s]
			if len(a.Coeffs) != len(b.Coeffs) || a.IO != b.IO || a.Dropped != b.Dropped {
				diverged++
				continue
			}
			for k := range a.Coeffs {
				if a.Coeffs[k] != b.Coeffs[k] {
					diverged++
					break
				}
			}
		}
	}

	// Sessions close via Bye but the server goroutines race the soak
	// body; wait for both gauges to drain before reading counters.
	deadline := time.Now().Add(5 * time.Second)
	for stCo.ActiveSessions() != 0 || stInd.ActiveSessions() != 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("experiment: sessions never drained (%d coalesced, %d independent active)",
				stCo.ActiveSessions(), stInd.ActiveSessions())
		}
		time.Sleep(time.Millisecond)
	}

	co, ind := stCo.Snapshot(), stInd.Snapshot()
	cs := co.Coalesce
	passes := cs.Led + cs.BypassStale
	fmt.Fprintf(w, "crowd: %s, %d objects per scene, mid-soak epoch bump at step %d\n",
		workload.CrowdSpec{Clients: spec.Clients, Steps: spec.Steps, Attractors: spec.Attractors, Overlap: spec.Overlap, Seed: spec.Seed},
		spec.Objects, bumpAt)
	fmt.Fprintf(w, "  coalescer: %d routed = %d led + %d shared + %d stale -> %d index passes (independent: %d)\n",
		cs.Routed, cs.Led, cs.Shared, cs.BypassStale, passes, ind.SubQueries)
	fmt.Fprintf(w, "  hot regions: %d hits · %d payload replays · %v elapsed\n",
		co.Hot.Hits, co.Hot.PayloadHits, elapsed.Round(time.Millisecond))

	if diverged > 0 {
		return fmt.Errorf("experiment: %d of %d frames diverged from the independent server",
			diverged, spec.Clients*spec.Steps)
	}
	fmt.Fprintf(w, "  identity OK: all %d frames byte-identical to independent serving, across the epoch bump\n",
		spec.Clients*spec.Steps)

	wantReq := int64(spec.Clients * spec.Steps)
	if co.Requests != wantReq || ind.Requests != wantReq {
		return fmt.Errorf("experiment: requests %d coalesced / %d independent, want %d each",
			co.Requests, ind.Requests, wantReq)
	}
	if got := cs.Led + cs.Shared + cs.BypassStale; got != cs.Routed {
		return fmt.Errorf("experiment: coalescer counters do not reconcile: %d routed vs %d accounted",
			cs.Routed, got)
	}
	if cs.Routed == 0 {
		return fmt.Errorf("experiment: nothing was routed through the coalescer")
	}
	// Cross-layer reconciliation: both servers planned identical
	// sub-queries, and on the coalesced side every one of them was
	// either a hot-cache hit or routed through the coalescer — exactly.
	if co.SubQueries != ind.SubQueries {
		return fmt.Errorf("experiment: sub-query plans diverged: %d coalesced vs %d independent",
			co.SubQueries, ind.SubQueries)
	}
	if cs.Routed+co.Hot.Hits != co.SubQueries {
		return fmt.Errorf("experiment: %d routed + %d hot hits != %d sub-queries",
			cs.Routed, co.Hot.Hits, co.SubQueries)
	}
	// The sharing gates only apply to a crowd that actually flocks; a
	// zero-overlap soak is a pure no-regression identity check. Per flock
	// per step one member leads the index pass; every other member adopts
	// the in-flight search or hits the hot cache, except one that missed
	// the cache just before the leader stored its result and reached the
	// table just after the leader retired its flight — that member
	// searches again, so the gate is "strictly fewer", not "one per
	// flock".
	if spec.Overlap > 0 {
		if passes >= ind.SubQueries {
			return fmt.Errorf("experiment: coalesced serving spent %d index passes, independent %d — nothing shared",
				passes, ind.SubQueries)
		}
		if co.Hot.PayloadHits == 0 {
			return fmt.Errorf("experiment: the payload path never replayed a cached payload")
		}
	}
	if co.Errors != 0 || ind.Errors != 0 {
		return fmt.Errorf("experiment: servers recorded %d+%d errors", co.Errors, ind.Errors)
	}
	fmt.Fprintf(w, "  acceptance OK: counters reconcile exactly, sharing and payload replay engaged\n")
	return nil
}
