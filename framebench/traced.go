package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/hotcache"
	"repro/internal/persist"
	"repro/internal/retrieval"
	"repro/internal/stats"
)

// counters are the layer counters read at the edges of the traced
// phase's measured window.
type counters struct {
	snap  stats.Snapshot
	hot   hotcache.Stats
	co    retrieval.CoalescerStats
	pager persist.PagerStats
}

func readCounters(st *stack) counters {
	c := counters{
		snap: st.st.Snapshot(),
		hot:  st.scene.Server.HotCache().Stats(),
		co:   st.scene.Server.Coalescer().Stats(),
	}
	if st.paged != nil {
		c.pager = st.paged.PagerStats()
	}
	return c
}

// residency samples the paged store's resident bytes against its
// budget while the window is open and keeps the peak ratio.
type residency struct {
	stop chan struct{}
	done chan struct{}
	peak float64
}

func sampleResidency(st *stack) *residency {
	r := &residency{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			if st.paged != nil {
				p := st.paged.PagerStats()
				if x := ratio(float64(p.ResidentBytes), float64(p.CacheBytes)); x > r.peak {
					r.peak = x
				}
			}
			select {
			case <-t.C:
			case <-r.stop:
				return
			}
		}
	}()
	return r
}

func (r *residency) finish() float64 {
	close(r.stop)
	<-r.done
	return r.peak
}

// runTraced measures the per-layer metrics. It serves the workload
// untraced from the production stack for half the measured time, then
// from a traced stack for the other half, then runs two short phases of
// plain frames on the traced stack, direct and through a gateway, for
// the gateway's own costs. Every phase is checked against the oracle,
// and the traced phase's deterministic counters must equal the
// untraced phase's.
func runTraced(o options, cfg *config, dir string, rep *report) error {
	half := o.seconds / 2
	st0, err := buildStack(cfg, dir, nil, false)
	if err != nil {
		return err
	}
	setup := st0.times
	ts := newTours(cfg, o.seed, st0.scene.Source.Bounds().XY())
	ph0 := runLoad(cfg, ts, load{addr: st0.addr(), warm: cfg.warm, run: half}, nil)
	st0.close()
	runtime.GC()

	tr := newTracer()
	st, err := buildStack(cfg, dir, tr, true)
	if err != nil {
		return err
	}
	var c0, c1 counters
	var res *residency
	var peak float64
	edge := func(end bool) {
		if !end {
			c0 = readCounters(st)
			res = sampleResidency(st)
			return
		}
		peak = res.finish()
		c1 = readCounters(st)
	}
	ph1 := runLoad(cfg, ts, load{addr: st.addr(), warm: cfg.warm, run: half, edge: edge}, tr)
	side := func(addr string, base int) *phase {
		return runLoad(cfg, ts, load{addr: addr, base: base, plain: true, warm: cfg.sideLength / 4, run: cfg.sideLength}, tr)
	}
	phD := side(st.backendAddr(), 1<<20)
	phG := side(st.gatewayAddr(), 2<<20)
	st.close()
	if o.spans != "" {
		if err := tr.writeFile(o.spans); err != nil {
			return err
		}
	}

	orc := newOracle(cfg, ts, st0)
	v0 := orc.check(ph0, false)
	rep.verdict("untraced phase", v0)
	v1 := orc.check(ph1, true)
	rep.verdict("traced phase", v1)
	rep.verdict("direct plain phase", orc.check(phD, false))
	rep.verdict("gateway plain phase", orc.check(phG, false))
	common, mismatched := compareCounters(ph0, ph1)
	fmt.Fprintf(rep.w, "trace counters: %d frames common to the untraced and traced phases, %d differ in coefficients, node reads, budget drops or response bytes\n",
		common, mismatched)
	if mismatched > 0 || common == 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("traced counters differ from untraced on %d of %d frames", mismatched, common))
	}

	spans := tr.snapshot()
	w1 := windowOf(tr, ph1)
	pw := wireStats(spans, w1)
	wd, wg := wireStats(spans, windowOf(tr, phD)), wireStats(spans, windowOf(tr, phG))
	e0, e1, eG := endToEnd(ph0), endToEnd(ph1), endToEnd(phG)
	frames := float64(e1.frames)
	fmt.Fprintf(rep.w, "traced window: %d client frames, %d server frames, %.3f s; untraced frame_p50_us %.4f, traced %.4f\n",
		pw.clientFrames, pw.serverFrames, ph1.seconds(), e0.frameP50, e1.frameP50)

	rep.set("proto.server_frame_p50_us", pw.serverP50, "us", "")
	rep.set("proto.server_frame_p999_us", pw.serverP999, "us", "")
	rep.set("proto.server_write_us", pw.serverWriteP50, "us", "p50 per frame")
	rep.set("proto.client_self_us", pw.clientSelfP50, "us", "p50 per frame")
	rep.set("proto.wait_overhead_us", pw.waitOverhead, "us", "mean per frame")
	rep.set("proto.req_bytes_per_frame", pw.reqBytes, "B", "")
	rep.set("cluster.hop_us", wg.waitOverhead-wd.waitOverhead, "us", "plain frames, gateway minus direct")
	rep.set("cluster.route_us", eG.openP50-wg.helloP50, "us", "gateway session open minus backend accept-to-hello")

	d := func(a, b int64) float64 { return float64(b - a) }
	s0, s1 := c0.snap, c1.snap
	requests := d(s0.Requests, s1.Requests)
	rep.set("retrieval.execute_mean_us", ratio(d(s0.Latency.Sum, s1.Latency.Sum), d(s0.Latency.Count, s1.Latency.Count))/1e3, "us", "")
	rep.set("retrieval.subqueries_per_frame", ratio(d(s0.SubQueries, s1.SubQueries), requests), "count", "")
	rep.set("retrieval.useful_ratio", ratio(float64(v1.sent), float64(v1.raw)), "ratio",
		fmt.Sprintf("%d sent of %d raw ids", v1.sent, v1.raw))
	planNs, viewportNs, applyNs := orc.replayTimes(v1.replays)
	rep.set("retrieval.plan_us", planNs/1e3, "us", "PlanFrame replayed")
	routed := d(c0.co.Routed, c1.co.Routed)
	rep.set("retrieval.coalesce_shared_ratio", ratio(d(c0.co.Shared, c1.co.Shared), routed), "ratio", "")
	rep.set("retrieval.coalesce_routed_per_frame", ratio(routed, frames), "count", "")
	hits, misses := d(c0.hot.Hits, c1.hot.Hits), d(c0.hot.Misses, c1.hot.Misses)
	rep.set("hotcache.hit_ratio", ratio(hits, hits+misses), "ratio", "")
	rep.set("hotcache.evict_per_miss", ratio(d(c0.hot.Evictions, c1.hot.Evictions), misses), "ratio", "")
	rep.set("hotcache.payload_hit_ratio", ratio(d(c0.hot.PayloadHits, c1.hot.PayloadHits), float64(v1.singleSub)), "ratio",
		fmt.Sprintf("%d single-sub-query frames", v1.singleSub))

	ix := layerSpans(spans, w1)
	rep.set("index.search_p50_us", quantile(ix.search, 0.5)/1e3, "us", fmt.Sprintf("n=%d", len(ix.search)))
	rep.set("index.search_p999_us", quantile(ix.search, 0.999)/1e3, "us", "")
	rep.set("index.searches_per_frame", ratio(float64(len(ix.search)), frames), "count", "")
	rep.set("index.ids_per_search", ratio(float64(ix.searchIDs), float64(len(ix.search))), "count", "")
	rep.set("index.pin_ids_us", mean(ix.pinIDs)/1e3, "us", "")
	rep.set("index.pin_ids_per_frame", ratio(float64(len(ix.pinIDs)), frames), "count", "")
	rep.set("rtree.node_reads_per_frame", ratio(d(s0.IndexIO, s1.IndexIO), requests), "count", "")

	p0, p1 := c0.pager, c1.pager
	pins := d(p0.Pins, p1.Pins)
	rep.set("persist.pins_per_frame", ratio(pins, frames), "count", "")
	rep.set("persist.hit_ratio", ratio(d(p0.Hits, p1.Hits), pins), "ratio", "")
	rep.set("persist.faults_per_frame", ratio(d(p0.Faults, p1.Faults), frames), "count", "")
	rep.set("persist.evictions_per_frame", ratio(d(p0.Evictions, p1.Evictions), frames), "count", "")
	rep.set("persist.page_read_us", mean(ix.readAt)/1e3, "us", "")
	rep.set("persist.page_reads_per_frame", ratio(float64(len(ix.readAt)), frames), "count", "")
	rep.set("persist.resident_over_budget", peak, "ratio", "peak")
	rep.set("persist.scrub_pass_ms", mean(ix.scrub)/1e6, "ms", "")

	budgets := d(s0.BudgetRequests, s1.BudgetRequests)
	rep.set("abr.plan_us", viewportNs/1e3, "us", "PlanViewport replayed")
	rep.set("abr.truncated_ratio", ratio(d(s0.TruncatedResponses, s1.TruncatedResponses), budgets), "ratio", "")
	rep.set("abr.dropped_per_frame", ratio(d(s0.CoeffsDropped, s1.CoeffsDropped), budgets), "count", "")
	rep.set("wavelet.apply_ns_per_coeff", applyNs, "ns", "Apply replayed")

	rep.set("runtime.gc_per_kframe", ratio(float64(ph0.numGC)*1e3, float64(e0.frames)), "count", "untraced phase")
	rep.set("runtime.gc_pause_ms", float64(ph0.pauseNs)/1e6, "ms", "untraced phase, total")
	rep.set("setup.dataset_s", setup.dataset, "s", "")
	rep.set("setup.index_s", setup.index, "s", "")
	rep.set("setup.serve_s", setup.serve, "s", "")
	rep.set("trace.overhead_us", e1.frameP50-e0.frameP50, "us", "traced minus untraced frame_p50_us")
	rep.set("trace.counter_mismatches", float64(mismatched), "count", fmt.Sprintf("of %d common frames", common))
	return nil
}

// window is a measured window in tracer time.
type window struct{ from, to int64 }

func windowOf(tr *tracer, ph *phase) window {
	base := ph.start.Sub(tr.epoch).Nanoseconds()
	return window{from: base + ph.from, to: base + ph.to}
}

func (w window) has(s *span) bool { return s.end >= w.from && s.end < w.to }

// wireFigures holds the protocol layer's figures over one window.
type wireFigures struct {
	clientFrames, serverFrames int
	serverP50, serverP999      float64
	serverWriteP50             float64
	clientSelfP50              float64
	waitOverhead               float64
	reqBytes                   float64
	helloP50                   float64
}

// wireStats derives the protocol figures from the client and server
// conn spans of frames that ended in w.
func wireStats(spans []span, w window) wireFigures {
	var out wireFigures
	type kids struct{ read, write, writeBytes int64 }
	child := make(map[int32]*kids)
	for i := range spans {
		s := &spans[i]
		if s.parent < 0 || (s.kind != spClientRead && s.kind != spClientWrite && s.kind != spServerWrite) {
			continue
		}
		if !w.has(&spans[s.parent]) {
			continue
		}
		k := child[s.parent]
		if k == nil {
			k = &kids{}
			child[s.parent] = k
		}
		switch s.kind {
		case spClientRead:
			k.read += s.dur()
		default:
			k.write += s.dur()
			k.writeBytes += int64(s.bytes)
		}
	}
	var steadyServer, serverWrite, clientSelf, hello []float64
	var serverSum, readSum, reqBytes float64
	for i := range spans {
		s := &spans[i]
		if !w.has(s) {
			continue
		}
		k := child[int32(i)]
		if k == nil {
			k = &kids{}
		}
		switch s.kind {
		case spServerFrame:
			out.serverFrames++
			serverSum += float64(s.dur())
			serverWrite = append(serverWrite, float64(k.write)/1e3)
			if s.frame&(1<<20-1) > 0 {
				steadyServer = append(steadyServer, float64(s.dur())/1e3)
			}
		case spClientFrame:
			out.clientFrames++
			readSum += float64(k.read)
			reqBytes += float64(k.writeBytes)
			if s.frame&(1<<16-1) > 0 {
				clientSelf = append(clientSelf, float64(s.dur()-k.read-k.write)/1e3)
			}
		case spServerHello:
			hello = append(hello, float64(s.dur())/1e3)
		}
	}
	out.serverP50, out.serverP999 = quantile(steadyServer, 0.5), quantile(steadyServer, 0.999)
	out.serverWriteP50 = quantile(serverWrite, 0.5)
	out.clientSelfP50 = quantile(clientSelf, 0.5)
	out.waitOverhead = (ratio(readSum, float64(out.clientFrames)) - ratio(serverSum, float64(out.serverFrames))) / 1e3
	out.reqBytes = ratio(reqBytes, float64(out.clientFrames))
	out.helloP50 = quantile(hello, 0.5)
	return out
}

// layers holds the durations (ns) of the index, pin, page-read and
// scrub spans that ended in a window.
type layers struct {
	search, pinIDs, readAt, scrub []float64
	searchIDs                     int64
}

func layerSpans(spans []span, w window) layers {
	var l layers
	for i := range spans {
		s := &spans[i]
		if !w.has(s) {
			continue
		}
		d := float64(s.dur())
		switch s.kind {
		case spSearch:
			l.search = append(l.search, d)
			l.searchIDs += int64(s.bytes)
		case spPinIDs:
			l.pinIDs = append(l.pinIDs, d)
		case spReadAt:
			l.readAt = append(l.readAt, d)
		case spScrub:
			l.scrub = append(l.scrub, d)
		}
	}
	return l
}

// compareCounters matches the frames both phases served — same session,
// same step — and counts those whose coefficients, node reads, budget
// drops or response bytes differ.
func compareCounters(a, b *phase) (common, mismatched int) {
	type key struct{ sess, step int32 }
	type val struct {
		n, dropped, wire int32
		io               int64
		crc              uint32
	}
	seen := make(map[key]val)
	for _, f := range a.frames {
		if f.ok {
			seen[key{f.sess, f.step}] = val{f.n, f.dropped, f.wire, f.io, f.crc}
		}
	}
	for _, f := range b.frames {
		if !f.ok {
			continue
		}
		if v, ok := seen[key{f.sess, f.step}]; ok {
			common++
			if v != (val{f.n, f.dropped, f.wire, f.io, f.crc}) {
				mismatched++
			}
		}
	}
	return common, mismatched
}
