package main

import (
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"time"

	"repro/internal/abr"
	"repro/internal/geom"
	"repro/internal/index"
	"repro/internal/mesh"
	"repro/internal/proto"
	"repro/internal/retrieval"
	"repro/internal/wavelet"
	"repro/internal/workload"
)

// oracle replays sessions in process through retrieval.Session over an
// in-memory store indexed as the scene is (sharded, same shard count),
// without the hot cache, coalescer, pager, protocol or gateway.
type oracle struct {
	cfg   *config
	ts    *tours
	store *index.Store
	idx   *index.Sharded
}

// newOracle builds the oracle. For in-memory scenes it shares the
// scene's read-only store; for the city it generates the same city in
// memory with workload.GenerateCity.
func newOracle(cfg *config, ts *tours, st *stack) *oracle {
	o := &oracle{cfg: cfg, ts: ts}
	if cfg.paged() {
		spec := cfg.city
		spec.Seed = sceneSeed
		o.store = workload.GenerateCity(spec)
	} else {
		o.store = st.dataset.Store
	}
	o.idx = index.NewSharded(o.store, index.XYW, index.ShardedConfig{Shards: cfg.shards})
	return o
}

// countingIndex counts the ids the oracle's searches return: every
// sub-query's raw hits before the delivered-set filter.
type countingIndex struct {
	*index.Sharded
	ids int64
}

func (c *countingIndex) Search(q index.Query) ([]int64, int64) {
	ids, io := c.Sharded.Search(q)
	c.ids += int64(len(ids))
	return ids, io
}

func (c *countingIndex) SearchInto(q index.Query, buf []int64, cur *index.Cursor) ([]int64, int64) {
	n0 := len(buf)
	ids, io := c.Sharded.SearchInto(q, buf, cur)
	c.ids += int64(len(ids) - n0)
	return ids, io
}

// verdict is the oracle's judgement of one phase.
type verdict struct {
	attempted, failed int
	firstBad          string // the first failure, for the log
	// Over the frames of the measured window (layer counters):
	frames    int
	sent      int64 // coefficients delivered
	raw       int64 // ids the searches produced
	singleSub int   // frames of one sub-query
	replays   []replay
}

// replay is one session's windows and deliveries, kept for timing the
// calls that have no seam: planning and reconstruction.
type replay struct {
	frames []replayFrame
}

type replayFrame struct {
	q     geom.Rect2
	speed float64
	ids   []int64
}

// maxReplays bounds the sessions kept for the replayed timers.
const maxReplays = 200

// check replays every session of ph and compares each frame the client
// received with the oracle's: count, io, dropped, and the length and
// CRC-32 of the response bytes. Frames that errored, were refused or
// differ are failures.
func (o *oracle) check(ph *phase, keep bool) *verdict {
	bySess := make(map[int32][]*frameRec)
	for i := range ph.frames {
		f := &ph.frames[i]
		bySess[f.sess] = append(bySess[f.sess], f)
	}
	keys := make([]int32, 0, len(bySess))
	for k := range bySess {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	parts := make([]*verdict, connections)
	var wg sync.WaitGroup
	for w := range parts {
		parts[w] = &verdict{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ci := &countingIndex{Sharded: o.idx}
			enc := newEncoder()
			srv := retrieval.NewServer(o.store, ci)
			srv.SetStats(nil)
			srv.SetParallelism(1)
			for i := w; i < len(keys); i += connections {
				k := keys[i]
				o.session(srv, ci, enc, ph, int(k), bySess[k], parts[w], keep && len(parts[w].replays) < maxReplays/connections)
			}
		}(w)
	}
	wg.Wait()
	v := &verdict{}
	for _, p := range parts {
		v.attempted += p.attempted
		v.failed += p.failed
		if v.firstBad == "" {
			v.firstBad = p.firstBad
		}
		v.frames += p.frames
		v.sent += p.sent
		v.raw += p.raw
		v.singleSub += p.singleSub
		v.replays = append(v.replays, p.replays...)
	}
	return v
}

func (o *oracle) session(srv *retrieval.Server, ci *countingIndex, enc *encoder, ph *phase, k int, recs []*frameRec, v *verdict, keep bool) {
	tour := o.ts.tour(k)
	sess := retrieval.NewSession(srv)
	planner := retrieval.NewClient(nil, mapSpeed)
	budget := o.cfg.budget > 0 && !ph.load.plain
	var rp replay
	for _, f := range recs {
		v.attempted++
		if !f.ok {
			v.failed++
			if v.firstBad == "" {
				v.firstBad = fmt.Sprintf("session %d frame %d: error or refused", k, f.step)
			}
			continue
		}
		q, speed := o.ts.frame(tour, int(f.step))
		var subs []retrieval.SubQuery
		var resp retrieval.Response
		raw0 := ci.ids
		if budget {
			subs = abr.PlanViewport(q, q.Center(), mapSpeed(speed), o.cfg.rings)
			resp = sess.RetrieveBudget(subs, o.cfg.budget)
		} else {
			subs = planner.PlanFrame(q, speed)
			resp = sess.RetrieveScratch(subs)
			planner.Advance(q, speed)
		}
		// The server numbers a session's responses from 1.
		wire, crc := enc.response(o.store, &resp, int64(f.step)+1, budget, o.cfg.budget)
		if int(f.n) != len(resp.IDs) || f.io != resp.IO || int64(f.dropped) != resp.Dropped || int(f.wire) != wire || f.crc != crc {
			v.failed++
			if v.firstBad == "" {
				v.firstBad = fmt.Sprintf("session %d frame %d: received %d coefficients, io %d, dropped %d, %d bytes, crc %08x; oracle %d, io %d, dropped %d, %d bytes, crc %08x",
					k, f.step, f.n, f.io, f.dropped, f.wire, f.crc, len(resp.IDs), resp.IO, resp.Dropped, wire, crc)
			}
		}
		if ph.inWindow(f.at) {
			v.frames++
			v.sent += int64(len(resp.IDs))
			v.raw += ci.ids - raw0
			if len(subs) == 1 {
				v.singleSub++
			}
			if keep {
				rp.frames = append(rp.frames, replayFrame{q: q, speed: speed, ids: append([]int64(nil), resp.IDs...)})
			}
		}
	}
	if keep && len(rp.frames) > 0 {
		v.replays = append(v.replays, rp)
	}
}

// encoder writes the response the server should have sent for a frame
// with the protocol's own writer, into a hash rather than a buffer.
type encoder struct {
	h       wireHash
	w       *proto.Writer
	coeffs  []proto.Coeff
	payload []byte
}

func newEncoder() *encoder {
	e := &encoder{}
	e.w = proto.NewWriter(&e.h)
	return e
}

// response encodes resp as the answer to request seq of a session, plain
// or with the budget maxBytes, and returns its length and CRC-32 (-1 if
// the writer refuses it).
func (e *encoder) response(store index.CoefficientSource, resp *retrieval.Response, seq int64, budget bool, maxBytes int64) (int, uint32) {
	e.coeffs = e.coeffs[:0]
	for _, id := range resp.IDs {
		c := index.MustCoeff(store, id)
		// The record proto.Server sends for a stored coefficient.
		e.coeffs = append(e.coeffs, proto.Coeff{
			Object: c.Object,
			Vertex: c.Vertex,
			Delta:  c.Delta,
			Pos:    [3]float32{float32(c.Pos.X), float32(c.Pos.Y), float32(c.Pos.Z)},
			Value:  float32(c.Value),
		})
	}
	e.payload = proto.EncodeResponsePayload(e.payload[:0], e.coeffs)
	e.h = wireHash{}
	var err error
	if budget {
		err = e.w.WriteBudgetResponsePayload(len(e.coeffs), resp.IO, seq, resp.Dropped, maxBytes, e.payload)
	} else {
		err = e.w.WriteResponsePayload(len(e.coeffs), resp.IO, seq, e.payload)
	}
	if err != nil {
		return -1, 0
	}
	return e.h.n, e.h.crc
}

// wireHash counts and hashes the bytes written to it.
type wireHash struct {
	n   int
	crc uint32
}

func (h *wireHash) Write(p []byte) (int, error) {
	h.n += len(p)
	h.crc = crc32.Update(h.crc, crc32.IEEETable, p)
	return len(p), nil
}

// replayTimes times, outside any measured frame, the client-side calls
// no seam reaches, on the kept sessions' windows and deliveries:
// retrieval.Client.PlanFrame (with Advance), abr.PlanViewport and
// wavelet.Reconstructor.Apply. It returns nanoseconds per plan, per
// viewport plan and per applied coefficient.
func (o *oracle) replayTimes(replays []replay) (planNs, viewportNs, applyNs float64) {
	const rounds = 5
	var plans int
	var tPlan, tView time.Duration
	for r := 0; r < rounds; r++ {
		for _, rp := range replays {
			planner := retrieval.NewClient(nil, mapSpeed)
			t0 := time.Now()
			for _, f := range rp.frames {
				sink += len(planner.PlanFrame(f.q, f.speed))
				planner.Advance(f.q, f.speed)
			}
			t1 := time.Now()
			for _, f := range rp.frames {
				sink += len(abr.PlanViewport(f.q, f.q.Center(), mapSpeed(f.speed), o.cfg.rings))
			}
			tView += time.Since(t1)
			tPlan += t1.Sub(t0)
			plans += len(rp.frames)
		}
	}
	var coeffs int
	var tApply time.Duration
	base := o.store.BaseVerts()
	levels := o.cfg.levels
	if o.cfg.paged() {
		levels = o.cfg.city.Levels
	}
	for _, rp := range replays {
		recons := make(map[int32]*wavelet.Reconstructor)
		for _, f := range rp.frames {
			cs := make([]wavelet.Coefficient, len(f.ids))
			for i, id := range f.ids {
				c := index.MustCoeff(o.store, id)
				level := int8(0)
				if int(c.Vertex) < base {
					level = wavelet.BaseLevel
				}
				cs[i] = wavelet.Coefficient{Object: c.Object, Vertex: c.Vertex, Level: level, Delta: c.Delta, Value: c.Value}
				if recons[c.Object] == nil {
					recons[c.Object] = wavelet.NewReconstructor(mesh.Octahedron(), geom.Vec3{}, levels)
				}
			}
			t0 := time.Now()
			for i := range cs {
				recons[cs[i].Object].Apply(cs[i])
			}
			tApply += time.Since(t0)
			coeffs += len(cs)
		}
	}
	if plans > 0 {
		planNs = float64(tPlan.Nanoseconds()) / float64(plans)
		viewportNs = float64(tView.Nanoseconds()) / float64(plans)
	}
	if coeffs > 0 {
		applyNs = float64(tApply.Nanoseconds()) / float64(coeffs)
	}
	return planNs, viewportNs, applyNs
}

// sink keeps replayed results alive so the compiler cannot drop the
// calls being timed.
var sink int
