// Query coalescing: the crowd-serving optimization. Concurrent sessions
// whose windows coincide are common — viewers flock to landmarks — and
// each one would re-run an index search whose answer is identical. The
// coalescer singleflights those: the first arrival (the leader) runs the
// search; sessions that ask the identical query while it is in flight
// (followers) wait and adopt the leader's result. Once the search
// completes the leader hands the result to the hot cache (when one is
// wired) and retires its flight — remembering finished results is the
// hot cache's job alone, so the flight table only ever holds searches
// that are still running.
//
// Sharing is only correct while the index is provably unchanged, so the
// coalescer applies the hot cache's seqlock epoch rule (see package
// hotcache): the leader stamps its result with the even epoch observed
// before and after its search, and a follower adopts only while the
// index still reports exactly that epoch, re-checked at adoption time.
// Flights are keyed on the exact query, so an adopted result — ids and
// replayed node I/O — is byte-identical to what the follower's own
// search would have returned. Per-session delivered-set filtering
// happens downstream in the merge loop, so two sessions sharing one
// index pass still receive exactly their own increments.
package retrieval

import (
	"sync"
	"sync/atomic"

	"repro/internal/index"
)

// CoalescerConfig is empty: the in-flight table needs no tuning now that
// flights are keyed on the exact query and retire when their search
// completes. It stays as the parameter of NewCoalescer and
// engine.Registry.EnableCoalescer so existing callers keep compiling.
type CoalescerConfig struct{}

// flight is one in-progress shared search. done is closed after the
// result fields (ids, io, ok, epoch) are final; they are immutable from
// then on — followers read them without a lock. ids is flight-owned
// (never aliases a session's scratch).
type flight struct {
	done  chan struct{}
	ids   []int64
	io    int64
	epoch uint64
	ok    bool // result stamped at a stable even epoch; adoptable
}

// Coalescer merges concurrent identical window searches into one index
// pass. All methods are safe for concurrent use. The zero Coalescer is
// not usable; call NewCoalescer. One Coalescer serves one index (one
// scene) — epochs from different indexes must never mix.
type Coalescer struct {
	mu      sync.Mutex
	flights map[index.Query]*flight

	routed      atomic.Int64
	led         atomic.Int64
	shared      atomic.Int64
	bypassStale atomic.Int64
}

// NewCoalescer builds an empty coalescer.
func NewCoalescer(CoalescerConfig) *Coalescer {
	return &Coalescer{flights: make(map[index.Query]*flight)}
}

// do answers one sub-query through the coalescer. e0 is the index epoch
// the caller observed before entering; buf receives the ids (appended,
// like runSearch). It returns the extended buffer, the node I/O to
// replay, and — when the result is known valid at a stable even epoch —
// that epoch and stable=true.
func (co *Coalescer) do(s *Server, q index.Query, e0 uint64, buf []int64, cur *index.Cursor) (ids []int64, io int64, epoch uint64, stable bool) {
	if q != q {
		// A NaN coordinate makes the query unequal to itself: no follower
		// could find its flight, and the leader could never delete it.
		// Search alone, as a leader nobody joins.
		co.routed.Add(1)
		co.led.Add(1)
		ids, io = s.runSearch(q, buf, cur)
		return ids, io, 0, false
	}
	co.mu.Lock()
	// Routed is counted under the table lock, so a query it counts has
	// already published or joined its flight.
	co.routed.Add(1)
	f := co.flights[q]
	if f == nil {
		f = &flight{done: make(chan struct{})}
		co.flights[q] = f
		co.mu.Unlock()
		return co.lead(s, f, q, e0, buf, cur)
	}
	co.mu.Unlock()
	<-f.done
	// Adoption check, at adoption time: the result must have been stamped
	// stable AND the index must still be at that exact epoch — otherwise a
	// mutation landed since the leader searched and the shared ids could
	// differ from what our own search would return.
	if f.ok && s.epoch.Epoch() == f.epoch {
		co.shared.Add(1)
		return append(buf, f.ids...), f.io, f.epoch, true
	}
	co.bypassStale.Add(1)
	ids, io = s.runSearch(q, buf, cur)
	return ids, io, 0, false
}

// lead runs the leader's search, releases the followers, memoizes a
// stable result into the hot cache and only then retires the flight, so
// an identical query arriving meanwhile finds one or the other. The
// result slice is flight-owned: followers hold references to it after
// done closes, so it must never alias a session's reusable scratch.
func (co *Coalescer) lead(s *Server, f *flight, q index.Query, e0 uint64, buf []int64, cur *index.Cursor) ([]int64, int64, uint64, bool) {
	f.ids, f.io = s.runSearch(q, nil, cur)
	e1 := s.epoch.Epoch()
	if e0 == e1 && e0%2 == 0 {
		f.ok, f.epoch = true, e0
	}
	close(f.done)
	co.led.Add(1)
	if s.hot != nil {
		s.hot.Put(q, e0, e1, f.ids, f.io)
	}
	co.mu.Lock()
	delete(co.flights, q)
	co.mu.Unlock()
	return append(buf, f.ids...), f.io, f.epoch, f.ok
}

// CoalescerStats is a point-in-time snapshot of the coalescer counters.
// Routed == Led + Shared + BypassStale exactly once traffic quiesces:
// every routed sub-query took exactly one of the three paths.
type CoalescerStats struct {
	// Routed counts sub-queries that entered the coalescer.
	Routed int64
	// Led counts searches actually executed against the index by a
	// flight leader.
	Led int64
	// Shared counts sub-queries answered by adopting another session's
	// in-flight search — the index passes saved.
	Shared int64
	// BypassStale counts sub-queries that ran their own search because
	// the flight they waited on was unstable or its epoch had moved.
	BypassStale int64
	// Flights is the current number of searches in flight.
	Flights int
}

// Stats snapshots the counters and current flight-table occupancy.
func (co *Coalescer) Stats() CoalescerStats {
	co.mu.Lock()
	flights := len(co.flights)
	co.mu.Unlock()
	return CoalescerStats{
		Routed:      co.routed.Load(),
		Led:         co.led.Load(),
		Shared:      co.shared.Load(),
		BypassStale: co.bypassStale.Load(),
		Flights:     flights,
	}
}
