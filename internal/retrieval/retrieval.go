// Package retrieval implements the motion-aware continuous data retrieval
// of paper §IV: the client-side Algorithm 1 (ContinuousDataRetrieval) that
// turns consecutive query frames into incremental sub-queries with
// speed-dependent resolution bands, and the server that executes the
// sub-queries against a pluggable index and filters out coefficients a
// client already holds (the Fig. 3 "send only vertex 2" behaviour).
package retrieval

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/hotcache"
	"repro/internal/index"
	"repro/internal/stats"
	"repro/internal/wavelet"
)

// SubQuery is one element of the parameter set passed to the paper's
// Retrieve function: a region plus the value band of the coefficients
// needed in it.
type SubQuery struct {
	Region geom.Rect2
	WMin   float64
	WMax   float64
	// Filter optionally restricts delivery to coefficients whose vertex
	// position satisfies it (e.g. a view frustum). Nil delivers every
	// match. Filters are a local-API extension; the wire protocol ships
	// pure window queries.
	Filter func(geom.Vec3) bool
}

// Response summarizes one retrieval round-trip.
type Response struct {
	IDs     []int64 // newly delivered coefficient ids
	Bytes   int64   // payload size of the delivered coefficients
	IO      int64   // index node reads spent answering the sub-queries
	Queries int     // number of sub-queries executed
	// Dropped counts coefficients withheld from this response: by a
	// byte budget (see Execute — exactly the deliveries the
	// unlimited run would have made beyond the budget's prefix cut) or
	// by a storage fault (the filter pass could not read the backing
	// page — see index.ErrPageUnavailable). Always 0 for unbudgeted,
	// fault-free execution. Withheld coefficients are NOT marked
	// delivered — later frames retrieve them when budget allows or the
	// page heals.
	Dropped int64
	// Hot identifies the hot-cache entry whose id set this response
	// equals exactly, when there is one — see HotRef. Transports use it
	// to replay a cached serialized payload instead of re-encoding.
	Hot HotRef
}

// HotRef ties a response to a hot-cache entry. It is set (Valid) only
// when the response's IDs are exactly the entry's ids — a single
// unfiltered sub-query from which the delivered-set merge dropped
// nothing, answered at a stable even index epoch — so a payload encoded
// from this response may be cached under (Query, Epoch) and replayed
// byte-identically for later responses carrying the same reference.
type HotRef struct {
	Valid bool
	Query index.Query
	Epoch uint64
}

// MapSpeedToResolution is the client-tunable function of §IV converting
// normalized speed into the minimum coefficient value worth retrieving.
// Nil clients use Identity.
type MapSpeedToResolution func(speed float64) float64

// Identity is the mapping used throughout the paper's experiments: the
// speed *is* the resolution cutoff ("the speed is expected to be inversely
// proportional to the value of the wavelet coefficients retrieved"),
// clamped to [0, 1].
func Identity(speed float64) float64 {
	if speed < 0 {
		return 0
	}
	if speed > 1 {
		return 1
	}
	return speed
}

// Server answers window sub-queries from a coefficient store through an
// access method. It is safe for concurrent use by any number of
// sessions: Execute only reads the store and the index (whose Search is
// concurrent-safe per the index.Index contract) and touches no shared
// mutable state beyond the wait-free stats collector.
type Server struct {
	store   index.CoefficientSource
	idx     index.Index
	zMin    float64
	zMax    float64
	workers int
	st      *stats.Stats
	scene   string
	// hot memoizes sub-query results for repeated window queries and co
	// singleflights concurrent identical searches; epoch is the index's
	// content version used to validate both. Either layer requires the
	// index to implement index.Epocher (see SetHotCache/SetCoalescer);
	// nil disables it.
	hot   *hotcache.Cache
	co    *Coalescer
	epoch index.Epocher
	// pinner is the store again when it pages coefficients from disk
	// (index.PinningSource); coefficient reads that outlive one call —
	// the merge loop's filter pass — then go through a frame-scoped pin
	// set. nil for the in-memory store, which keeps that path exactly as
	// allocation-free as before.
	pinner index.PinningSource
}

// NewServer creates a server over a coefficient source using the given
// index (the in-memory index.Store is the first source implementation;
// the server never needs the concrete slab). The vertical query band is
// derived from the source's bounds (queries are ground-plane windows;
// the z band always spans every object). The server records into
// stats.Default and executes a request's sub-queries on a bounded worker
// pool sized to the machine; SetStats and SetParallelism override both.
func NewServer(store index.CoefficientSource, idx index.Index) *Server {
	b := store.Bounds()
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		// Algorithm 1 yields ≤5 sub-queries; more workers than that only
		// buys scheduler churn.
		workers = 8
	}
	srv := &Server{store: store, idx: idx, zMin: b.Min.Z, zMax: b.Max.Z,
		workers: workers, st: stats.Default}
	srv.pinner, _ = store.(index.PinningSource)
	return srv
}

// SetStats redirects the server's observability counters (nil disables
// recording). Not safe to call while requests are in flight.
func (s *Server) SetStats(st *stats.Stats) { s.st = st }

// SetScene names the scene this server serves; executed requests are then
// attributed to it in the per-scene stats breakdown (empty = no
// attribution). The engine registry sets it when a scene is added. Not
// safe to call while requests are in flight.
func (s *Server) SetScene(name string) { s.scene = name }

// Scene returns the scene name set via SetScene ("" for unnamed).
func (s *Server) Scene() string { return s.scene }

// SetHotCache wires a hot-region result cache into the search path (nil
// disables it). The cache takes effect only when the server's index
// versions its contents (implements index.Epocher) — without an epoch
// there is no safe invalidation signal, so the cache stays off and every
// search runs against the index. Cached results are validated per-Get
// against the index's current epoch, so responses remain byte-identical
// to uncached execution across mutations. Not safe to call while
// requests are in flight.
func (s *Server) SetHotCache(hot *hotcache.Cache) {
	if _, ok := s.idx.(index.Epocher); !ok {
		hot = nil
	}
	s.hot = hot
	s.refreshEpoch()
}

// HotCache returns the cache wired via SetHotCache (nil when disabled).
func (s *Server) HotCache() *hotcache.Cache { return s.hot }

// SetCoalescer wires a query coalescer into the search path (nil
// disables it). Like the hot cache, coalescing takes effect only when
// the index implements index.Epocher: without an epoch there is no
// proof two concurrent searches would return the same answer, so the
// coalescer stays off and every session searches independently. Shared
// results are epoch-revalidated at adoption, so responses remain
// byte-identical to independent execution. Not safe to call while
// requests are in flight.
func (s *Server) SetCoalescer(co *Coalescer) {
	if _, ok := s.idx.(index.Epocher); !ok {
		co = nil
	}
	s.co = co
	s.refreshEpoch()
}

// Coalescer returns the coalescer wired via SetCoalescer (nil when
// disabled).
func (s *Server) Coalescer() *Coalescer { return s.co }

// refreshEpoch re-derives the epoch source after SetHotCache or
// SetCoalescer: present while either layer is on, nil when both are off
// (keeping the raw search path branch-free on the epoch check).
func (s *Server) refreshEpoch() {
	if s.hot == nil && s.co == nil {
		s.epoch = nil
		return
	}
	s.epoch, _ = s.idx.(index.Epocher)
}

// SetParallelism bounds the worker pool that executes one request's
// sub-queries; 1 (or less) runs them serially on the calling goroutine.
// Parallelism never changes results: sub-query searches are independent
// index reads and the delivered-set merge always runs in sub-query
// order. Not safe to call while requests are in flight.
func (s *Server) SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	s.workers = n
}

// Store returns the underlying coefficient source.
func (s *Server) Store() index.CoefficientSource { return s.store }

// Index returns the access method in use.
func (s *Server) Index() index.Index { return s.idx }

// Scratch is reusable per-caller execution state: the per-sub-query
// result slabs, the index search cursors (one serial, plus one per
// fan-out worker), and the response id buffer. A zero Scratch is ready
// to use; buffers grow on first use and are retained, so steady-state
// requests allocate almost nothing. A Scratch must not be shared by
// concurrent requests — it belongs to one session, like the delivered
// map.
type Scratch struct {
	results []subResult
	cur     index.Cursor
	curs    []index.Cursor
	ids     []int64
	// pins is the session's frame pin set, created on first use against
	// a paging store and reused (Release keeps its storage) thereafter.
	pins *index.Pins
}

// Execute is the paper's Retrieve: it runs the sub-queries, filtering
// results against the client's delivered set (nil = no filtering) and
// recording new deliveries into it. This is the server side of Fig. 3:
// overlapping sub-queries and support regions straddling the old frame
// produce duplicates, and the filter ensures each coefficient crosses the
// link once per client.
//
// sc is the caller's reusable execution state: the returned Response's
// IDs slice aliases sc's buffer and is valid only until the next Execute
// with the same Scratch. A nil sc runs on a Scratch local to the call, so
// the result is safe to retain.
//
// maxBytes is a byte budget: at most maxBytes/wavelet.WireBytes
// coefficients are delivered, cut as a prefix of the deterministic merge
// order (sub-query order, index order within each sub-query). Because the
// merge order is the planner's priority order, truncation degrades
// gracefully: the highest-utility sub-queries keep their coefficients and
// the tail is withheld. Withheld coefficients are counted in
// Response.Dropped and are NOT marked delivered, so they remain
// retrievable by later frames. maxBytes <= 0 means unlimited.
//
// The index searches of one request run on a bounded worker pool (see
// SetParallelism); the merge into the delivered set always happens on
// the calling goroutine in sub-query order, so the response — ids,
// order, bytes, I/O, Dropped — is byte-identical to serial execution.
// The delivered map is the caller's: Execute must not be called
// concurrently with the same map (one session = one client = one
// request at a time).
func (s *Server) Execute(subs []SubQuery, delivered map[int64]bool, sc *Scratch, maxBytes int64) Response {
	var start time.Time
	if s.st != nil {
		start = time.Now()
	}
	if sc == nil {
		sc = new(Scratch)
	}
	for len(sc.results) < len(subs) {
		sc.results = append(sc.results, subResult{})
	}
	results := sc.results[:len(subs)]
	s.searchAll(subs, results, sc)
	resp := Response{IDs: sc.ids[:0]}
	// dropped records whether the merge suppressed any raw hit (filter,
	// already-delivered, or budget): only a drop-free single-sub response
	// equals its cache entry's id set and may carry a HotRef.
	dropped := false
	// limit is the budget's prefix cut in whole coefficients; -1 means
	// unlimited. A positive budget below one wire record delivers
	// nothing (and withholds everything). withheld dedups the ids the
	// cut suppresses — they are not in the delivered map (purity), but
	// Dropped must equal exactly what the unlimited run would have
	// delivered beyond the cut, and a support region straddling several
	// sub-query rectangles hits the merge more than once. Allocated
	// lazily: only truncated responses (the degraded path) pay for it.
	limit := int64(-1)
	if maxBytes > 0 {
		limit = maxBytes / wavelet.WireBytes
	}
	var withheld map[int64]bool
	// faultWithheld counts merge hits suppressed because their backing
	// page was unreadable — a subset of resp.Dropped, surfaced to stats
	// separately from budget truncation.
	faultWithheld := int64(0)
	// Against a paging store, the filter pass reads coefficient
	// positions across the whole merge loop, so those pages are pinned
	// for the frame and released after the loop. The in-memory store
	// leaves pins nil and the loop byte-for-byte on its old path.
	var pins *index.Pins
	if s.pinner != nil {
		for i := range subs {
			if subs[i].Filter != nil {
				if sc.pins == nil {
					sc.pins = s.pinner.NewPins()
				}
				pins = sc.pins
				break
			}
		}
	}
	for i := range subs {
		r := &results[i]
		if !r.ran {
			continue
		}
		resp.IO += r.io
		resp.Queries++
		for _, id := range r.ids {
			// Filter before touching the delivered set: a coefficient the
			// filter rejects has not been sent and must stay retrievable.
			if subs[i].Filter != nil {
				pos, err := s.coeffPos(pins, id)
				if err != nil {
					// Unreadable page: withhold the coefficient without
					// marking it delivered (ABR Dropped semantics) — the
					// session re-retrieves it once the page heals, and
					// frames touching only healthy pages are unaffected.
					dropped = true
					faultWithheld++
					if delivered == nil {
						resp.Dropped++
					} else if !withheld[id] {
						if withheld == nil {
							withheld = make(map[int64]bool)
						}
						withheld[id] = true
						resp.Dropped++
					}
					continue
				}
				if !subs[i].Filter(pos) {
					dropped = true
					continue
				}
			}
			if delivered != nil && delivered[id] {
				dropped = true
				continue
			}
			if limit >= 0 && int64(len(resp.IDs)) >= limit {
				// Budget exhausted: withhold, don't mark delivered. Without
				// a delivered map the unlimited merge would append every
				// hit, so every hit counts; with one, duplicates would have
				// been deduped, so withheld ids count once.
				dropped = true
				if delivered == nil {
					resp.Dropped++
				} else if !withheld[id] {
					if withheld == nil {
						withheld = make(map[int64]bool)
					}
					withheld[id] = true
					resp.Dropped++
				}
				continue
			}
			if delivered != nil {
				delivered[id] = true
			}
			resp.IDs = append(resp.IDs, id)
		}
	}
	if pins != nil {
		pins.Release()
	}
	sc.ids = resp.IDs
	if len(subs) == 1 && results[0].hot && !dropped {
		resp.Hot = HotRef{Valid: true, Query: s.queryOf(&subs[0]), Epoch: results[0].epoch}
	}
	resp.Bytes = int64(len(resp.IDs)) * wavelet.WireBytes
	if s.st != nil {
		s.st.RecordRequest(resp.Queries, resp.IO, int64(len(resp.IDs)),
			resp.Bytes, time.Since(start))
		s.st.RecordScene(s.scene, resp.IO, int64(len(resp.IDs)), resp.Bytes)
		if maxBytes > 0 {
			s.st.RecordBudget(maxBytes, resp.Bytes, resp.Dropped)
		}
		if faultWithheld > 0 {
			s.st.RecordWithheld(faultWithheld)
		}
	}
	return resp
}

// coeffPos reads one coefficient's vertex position — through the frame
// pin set when the store pages, directly off the resident slab when not
// (pins nil keeps the in-memory path allocation-free). A non-nil error
// means the backing page is unreadable (index.ErrPageUnavailable) and
// the caller must withhold the coefficient.
func (s *Server) coeffPos(pins *index.Pins, id int64) (geom.Vec3, error) {
	if pins != nil {
		c, err := pins.Coeff(id)
		if err != nil {
			return geom.Vec3{}, err
		}
		return c.Pos, nil
	}
	c, err := s.store.Coeff(id)
	if err != nil {
		return geom.Vec3{}, err
	}
	return c.Pos, nil
}

// subResult holds one sub-query's raw index hits, pre-merge. The ids slab
// is retained in the Scratch and reused across requests.
type subResult struct {
	ids []int64
	io  int64
	ran bool // false for degenerate sub-queries (empty region, WMin > WMax)
	// hot marks a result answered (or stored) at the stable even index
	// epoch below — the precondition for a response-level HotRef.
	hot   bool
	epoch uint64
}

// searchAll runs the index search of every well-formed sub-query into
// results (len(results) == len(subs)), in parallel on the worker pool
// when the request has more than one. results[i] always corresponds to
// subs[i], whatever order the searches complete in.
func (s *Server) searchAll(subs []SubQuery, results []subResult, sc *Scratch) {
	valid := 0
	for i := range subs {
		results[i].ran = false
		results[i].hot = false
		if subs[i].Region.Empty() || subs[i].WMin > subs[i].WMax {
			continue
		}
		results[i].ran = true
		valid++
	}
	if valid <= 1 || s.workers <= 1 {
		for i := range results {
			if results[i].ran {
				s.searchOne(&subs[i], &results[i], &sc.cur)
			}
		}
		return
	}
	workers := s.workers
	if workers > valid {
		workers = valid
	}
	// Kept out of line so the goroutine closure doesn't force the serial
	// path's locals to the heap.
	s.searchParallel(subs, results, sc, workers)
}

// searchParallel fans the sub-queries out over a spawn-per-request
// worker pool, each worker draining indices off a shared atomic counter
// with its own scratch cursor.
func (s *Server) searchParallel(subs []SubQuery, results []subResult, sc *Scratch, workers int) {
	for len(sc.curs) < workers {
		sc.curs = append(sc.curs, index.Cursor{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(cur *index.Cursor) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(subs) {
					return
				}
				if results[i].ran {
					s.searchOne(&subs[i], &results[i], cur)
				}
			}
		}(&sc.curs[w])
	}
	wg.Wait()
}

func (s *Server) queryOf(sub *SubQuery) index.Query {
	return index.Query{
		Region: sub.Region,
		ZMin:   s.zMin, ZMax: s.zMax,
		WMin: sub.WMin, WMax: sub.WMax,
	}
}

// searchOne answers one sub-query: through the hot cache when one is
// wired (Get, else search-and-Put under the seqlock epoch protocol),
// through the coalescer when one is wired (sharing one in-flight index
// pass among concurrent identical searches), directly against the index
// otherwise.
// out.ids is reused as the result buffer.
func (s *Server) searchOne(sub *SubQuery, out *subResult, cur *index.Cursor) {
	q := s.queryOf(sub)
	if s.hot == nil && s.co == nil {
		out.ids, out.io = s.runSearch(q, out.ids[:0], cur)
		return
	}
	e0 := s.epoch.Epoch()
	if s.hot != nil {
		var ok bool
		if out.ids, out.io, ok = s.hot.Get(q, e0, out.ids[:0]); ok {
			// The cached io is replayed so the response is byte-identical to
			// the uncached serve that populated the entry.
			out.hot, out.epoch = true, e0
			return
		}
	}
	if s.co != nil {
		// The flight leader memoizes its result into the hot cache itself.
		out.ids, out.io, out.epoch, out.hot = s.co.do(s, q, e0, out.ids[:0], cur)
		return
	}
	out.ids, out.io = s.runSearch(q, out.ids[:0], cur)
	e1 := s.epoch.Epoch()
	s.hot.Put(q, e0, e1, out.ids, out.io)
	if e0 == e1 && e0%2 == 0 {
		out.hot, out.epoch = true, e0
	}
}

// runSearch performs the raw index search, appending into buf via the
// cursor path when the index supports it.
func (s *Server) runSearch(q index.Query, buf []int64, cur *index.Cursor) ([]int64, int64) {
	if is, ok := s.idx.(index.IntoSearcher); ok {
		return is.SearchInto(q, buf, cur)
	}
	ids, io := s.idx.Search(q)
	return append(buf, ids...), io
}

// RegionBytes returns the payload size and index I/O of a one-shot window
// query at the given resolution, without per-client filtering. The buffer
// manager uses it to size and fetch blocks.
func (s *Server) RegionBytes(region geom.Rect2, wmin float64) (int64, int64) {
	resp := s.Execute([]SubQuery{{Region: region, WMin: wmin, WMax: 1}}, nil, nil, 0)
	return resp.Bytes, resp.IO
}

// BlockBytes returns the payload and index I/O of the coefficients
// *assigned* to the region: those whose vertex position falls inside it
// (with value ≥ wmin). Assignment partitions the dataset — a coefficient
// belongs to exactly one grid block — so block payloads sum to the
// dataset size without the multiple counting that support-region overlap
// would cause. Grid-block caching uses this; window queries keep using
// the support-intersection semantics of RegionBytes.
func (s *Server) BlockBytes(region geom.Rect2, wmin float64) (int64, int64) {
	ids, io := s.idx.Search(index.Query{
		Region: region,
		ZMin:   s.zMin, ZMax: s.zMax,
		WMin: wmin, WMax: 1,
	})
	var n int64
	var pins *index.Pins
	if s.pinner != nil {
		pins = s.pinner.NewPins()
	}
	for _, id := range ids {
		pos, err := s.coeffPos(pins, id)
		if err != nil {
			continue // unreadable page: the block simply sizes without it
		}
		if region.Contains(pos.XY()) {
			n++
		}
	}
	if pins != nil {
		pins.Release()
	}
	return n * wavelet.WireBytes, io
}

// Session is the per-client server state: the set of coefficients already
// delivered to this client. A Session is NOT safe for concurrent use —
// it is owned by one client (one connection goroutine); many sessions
// may call into the shared Server concurrently.
type Session struct {
	srv       *Server
	delivered map[int64]bool
	// scratch backs RetrieveBudget: per-session search cursors and
	// result buffers reused across frames. Single ownership comes free
	// with the session's one-request-at-a-time contract.
	scratch Scratch
}

// NewSession opens a session against the server.
func NewSession(srv *Server) *Session {
	return &Session{srv: srv, delivered: make(map[int64]bool)}
}

// RetrieveBudget executes the sub-queries with duplicate filtering under
// a byte budget (0 = unlimited; see Execute for the truncation contract)
// on the session's scratch: the response's IDs slice is valid only until
// this session's next retrieval. The wire server uses it — a serving
// goroutine consumes each response (encodes it onto the connection)
// before the next request arrives, so nothing outlives the window.
func (s *Session) RetrieveBudget(subs []SubQuery, maxBytes int64) Response {
	return s.srv.Execute(subs, s.delivered, &s.scratch, maxBytes)
}

// RetrieveScratch is RetrieveBudget with no budget.
func (s *Session) RetrieveScratch(subs []SubQuery) Response {
	return s.RetrieveBudget(subs, 0)
}

// Delivered returns the number of coefficients this client holds.
func (s *Session) Delivered() int { return len(s.delivered) }

// Forget removes ids from the delivered set so they become retrievable
// again. The wire server uses it for resume rollback: when a response
// was sent but the client never applied it (connection lost mid-reply),
// the frame's deliveries are forgotten so the retry re-sends them
// instead of leaving permanent holes in the client's meshes.
func (s *Session) Forget(ids []int64) {
	for _, id := range ids {
		delete(s.delivered, id)
	}
}

// Has reports whether a coefficient has been delivered to this client.
func (s *Session) Has(id int64) bool { return s.delivered[id] }

// DeliveredIDs returns the delivered set as a sorted slice — the
// serializable form of the session for the durable session journal.
// Sorting makes the encoding deterministic (byte-identical journals
// for identical sessions).
func (s *Session) DeliveredIDs() []int64 {
	ids := make([]int64, 0, len(s.delivered))
	for id := range s.delivered {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// RestoreSession rebuilds a session from a journaled delivered set —
// the inverse of DeliveredIDs, used when a restarted server replays
// its session journal.
func RestoreSession(srv *Server, delivered []int64) *Session {
	s := &Session{srv: srv, delivered: make(map[int64]bool, len(delivered))}
	for _, id := range delivered {
		s.delivered[id] = true
	}
	return s
}

// Client runs Algorithm 1 (ContinuousDataRetrieval) against a session:
// each frame is diffed against the previous one, the speed is mapped to a
// resolution cutoff, and only the new region — plus, when the client
// slowed down, the extra detail band for the overlap region — is
// retrieved.
type Client struct {
	session  *Session
	mapSpeed MapSpeedToResolution

	havePrev bool
	prev     geom.Rect2
	prevW    float64
}

// NewClient creates a client over the session. A nil mapping uses
// Identity. A nil session is allowed for plan-only use (PlanFrame +
// Advance, e.g. when the retrieval happens over a network connection);
// Frame requires a session.
func NewClient(session *Session, mapSpeed MapSpeedToResolution) *Client {
	if mapSpeed == nil {
		mapSpeed = Identity
	}
	return &Client{session: session, mapSpeed: mapSpeed}
}

// Session returns the client's server session.
func (c *Client) Session() *Session { return c.session }

// Frame processes the query frame at time t (Algorithm 1). It returns the
// retrieval response and the resolution cutoff used.
func (c *Client) Frame(q geom.Rect2, speed float64) (Response, float64) {
	w := c.mapSpeed(speed)
	subs := c.PlanFrame(q, speed)
	resp := c.session.srv.Execute(subs, c.session.delivered, nil, 0)
	c.havePrev = true
	c.prev = q
	c.prevW = w
	return resp, w
}

// PlanFrame computes the sub-queries Algorithm 1 would issue for the
// frame without executing them (used by tests and by the wire protocol).
func (c *Client) PlanFrame(q geom.Rect2, speed float64) []SubQuery {
	w := c.mapSpeed(speed)
	if !c.havePrev {
		// Line 1.10: no previous frame — retrieve Q_t wholesale.
		return []SubQuery{{Region: q, WMin: w, WMax: 1}}
	}
	overlap := q.Intersect(c.prev)
	if overlap.Empty() {
		return []SubQuery{{Region: q, WMin: w, WMax: 1}}
	}
	var subs []SubQuery
	if w < c.prevW {
		// Line 1.6: the client slowed down (finer resolution, lower cutoff):
		// fetch the missing detail band for the overlap region. The band is
		// closed at prevW; coefficients exactly at prevW were already
		// delivered and are removed by the session filter.
		subs = append(subs, SubQuery{Region: overlap, WMin: w, WMax: c.prevW})
	}
	// Lines 1.6/1.8: the region not covered by the previous frame at full
	// band.
	for _, n := range q.Difference(c.prev) {
		subs = append(subs, SubQuery{Region: n, WMin: w, WMax: 1})
	}
	return subs
}

// Advance records that the frame was served (by whatever transport)
// without executing sub-queries locally. Plan-only clients call
// PlanFrame, ship the sub-queries over their own transport, then Advance.
func (c *Client) Advance(q geom.Rect2, speed float64) {
	c.havePrev = true
	c.prev = q
	c.prevW = c.mapSpeed(speed)
}

// FrustumFrame retrieves the data visible in a directional view frustum
// at the given speed: the frustum's bounding window is queried with a
// position filter restricted to the sector. Frustum frames do not use
// the rectangle-difference incrementality (a filtered window leaves
// unfiltered parts of the rectangle unretrieved, which would poison the
// overlap bookkeeping); incremental savings come entirely from the
// session's delivered-set filtering, which remains exact.
func (c *Client) FrustumFrame(f geom.Frustum, speed float64) (Response, float64) {
	w := c.mapSpeed(speed)
	sub := SubQuery{
		Region: f.BoundingRect(),
		WMin:   w,
		WMax:   1,
		Filter: func(p geom.Vec3) bool { return f.Contains(p.XY()) },
	}
	resp := c.session.srv.Execute([]SubQuery{sub}, c.session.delivered, nil, 0)
	// The rectangular-frame history is invalidated: what was "covered" was
	// a sector, not the rectangle.
	c.havePrev = false
	return resp, w
}

// Reset forgets the previous frame (e.g. after a teleport or cache
// flush); the next frame is retrieved wholesale.
func (c *Client) Reset() { c.havePrev = false }
