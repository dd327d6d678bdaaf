package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/hotcache"
	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/retrieval"
	"repro/internal/stats"
)

// spanKind names a span: the layer boundary it was recorded at.
type spanKind uint8

const (
	spClientFrame spanKind = iota // proto.Client Frame/FrameBudget call
	spClientRead                  // client conn Read
	spClientWrite                 // client conn Write
	spServerHello                 // server conn accept to hello written
	spServerFrame                 // server conn request read to response written
	spServerWrite                 // server conn Write inside a frame
	spSearch                      // index Search/SearchInto
	spPinIDs                      // paged source PinIDs
	spReadAt                      // segment io.ReaderAt ReadAt
	spScrub                       // scrubber VerifyPages pass
)

var spanNames = [...]string{
	spClientFrame: "proto.client.frame",
	spClientRead:  "proto.client.read",
	spClientWrite: "proto.client.write",
	spServerHello: "proto.server.hello",
	spServerFrame: "proto.server.frame",
	spServerWrite: "proto.server.write",
	spSearch:      "index.search",
	spPinIDs:      "index.pin_ids",
	spReadAt:      "persist.read_at",
	spScrub:       "persist.scrub",
}

// span is one timed call at a layer boundary. start and end are
// nanoseconds since the tracer started; parent indexes the enclosing
// span in the same tracer (-1: none known); frame identifies the frame
// where the seam knows it (-1: unknown); bytes is the payload moved or
// the ids returned, where the seam has one.
type span struct {
	start, end int64
	frame      int64
	parent     int32
	bytes      int32
	kind       spanKind
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps the spans of a traced run in memory.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// add records one span whose parent, if any, is already in the tracer.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// addBatch records spans collected by one goroutine; their parent
// fields index the batch and are rebased onto the tracer.
func (t *tracer) addBatch(batch []span) {
	t.mu.Lock()
	base := int32(len(t.spans))
	for _, s := range batch {
		if s.parent >= 0 {
			s.parent += base
		}
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// writeFile writes every span as one tab-separated line: name, start,
// end, parent, frame, bytes.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.snapshot() {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", spanNames[s.kind], s.start, s.end, s.parent, s.frame, s.bytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// buildScene assembles the traced scene from its parts — the path
// engine.Registry.Build takes, with the index and source wrapped — and
// checks that the wrappers expose every optional interface the
// unwrapped parts do, since retrieval, the hot cache and the engine
// silently switch features off when a type assertion fails.
func (t *tracer) buildScene(reg *engine.Registry, src index.CoefficientSource, levels, shards int, st *stats.Stats) (*engine.Scene, error) {
	if ps, ok := src.(*index.PagedStore); ok {
		src = &tracedPaged{PagedStore: ps, tr: t}
	}
	sh := index.NewSharded(src, index.XYW, index.ShardedConfig{Shards: shards})
	sh.SetStats(st)
	idx := &tracedIndex{Sharded: sh, tr: t}
	if err := sameInterfaces(src, idx, sh); err != nil {
		return nil, err
	}
	srv := retrieval.NewServer(src, idx)
	srv.SetStats(st)
	return reg.AddScene(sceneName, srv, levels)
}

// sameInterfaces checks the traced wrappers against the parts they
// wrap.
func sameInterfaces(src index.CoefficientSource, idx *tracedIndex, sh *index.Sharded) error {
	var inner index.CoefficientSource = src
	if tp, ok := src.(*tracedPaged); ok {
		inner = tp.PagedStore
	}
	type pagerStats interface{ PagerStats() persist.PagerStats }
	checks := []struct {
		name        string
		outer, want bool
	}{
		{"index.IntoSearcher", is[index.IntoSearcher](idx), is[index.IntoSearcher](sh)},
		{"index.Epocher", is[index.Epocher](idx), is[index.Epocher](sh)},
		{"index.PinningSource", is[index.PinningSource](src), is[index.PinningSource](inner)},
		{"hotcache.Pinner", is[hotcache.Pinner](src), is[hotcache.Pinner](inner)},
		{"PagerStats", is[pagerStats](src), is[pagerStats](inner)},
		{"engine.PageVerifier", is[engine.PageVerifier](src), is[engine.PageVerifier](inner)},
	}
	for _, c := range checks {
		if c.outer != c.want {
			return fmt.Errorf("traced wrapper changes %s: wrapped %v, unwrapped %v", c.name, c.outer, c.want)
		}
	}
	return nil
}

func is[T any](v any) bool {
	_, ok := v.(T)
	return ok
}

// tracedIndex times every search of the scene's sharded index.
type tracedIndex struct {
	*index.Sharded
	tr *tracer
}

func (x *tracedIndex) Search(q index.Query) ([]int64, int64) {
	t0 := x.tr.now()
	ids, io := x.Sharded.Search(q)
	x.tr.add(span{kind: spSearch, start: t0, end: x.tr.now(), parent: -1, frame: -1, bytes: int32(len(ids))})
	return ids, io
}

func (x *tracedIndex) SearchInto(q index.Query, buf []int64, cur *index.Cursor) ([]int64, int64) {
	t0 := x.tr.now()
	n0 := len(buf)
	ids, io := x.Sharded.SearchInto(q, buf, cur)
	x.tr.add(span{kind: spSearch, start: t0, end: x.tr.now(), parent: -1, frame: -1, bytes: int32(len(ids) - n0)})
	return ids, io
}

// tracedPaged times the hot cache's page pre-pins on the city's paged
// store; every other method is the store's own.
type tracedPaged struct {
	*index.PagedStore
	tr *tracer
}

func (p *tracedPaged) PinIDs(ids []int64) error {
	t0 := p.tr.now()
	err := p.PagedStore.PinIDs(ids)
	p.tr.add(span{kind: spPinIDs, start: t0, end: p.tr.now(), parent: -1, frame: -1, bytes: int32(len(ids))})
	return err
}

// timedReaderAt times the page reads under the city's segment.
type timedReaderAt struct {
	r  io.ReaderAt
	tr *tracer
}

func (r *timedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	t0 := r.tr.now()
	n, err := r.r.ReadAt(p, off)
	r.tr.add(span{kind: spReadAt, start: t0, end: r.tr.now(), parent: -1, frame: -1, bytes: int32(n)})
	return n, err
}

// timedVerifier times the scrubber's passes.
type timedVerifier struct {
	ps *index.PagedStore
	tr *tracer
}

func (v *timedVerifier) VerifyPages() ([]int, error) {
	t0 := v.tr.now()
	bad, err := v.ps.VerifyPages()
	v.tr.add(span{kind: spScrub, start: t0, end: v.tr.now(), parent: -1, frame: -1})
	return bad, err
}

// tracedListener wraps the listener proto.Server serves, so every
// server-side connection is a serverConn.
type tracedListener struct {
	net.Listener
	tr    *tracer
	conns int64
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.conns++
	return &serverConn{Conn: c, tr: l.tr, accepted: l.tr.now(), id: int64(l.conns), frame: -1}, nil
}

// serverConn records, on one server connection, the span from accept
// to the hello written and, for every request, the span from the Read
// that returns its first bytes to the return of the last response
// Write, with each Write as a child span. The server reads and writes a
// connection from one goroutine; mu orders those calls against a Close
// from another.
type serverConn struct {
	net.Conn
	tr       *tracer
	id       int64
	accepted int64
	spans    []span
	frame    int32 // open frame span, -1 before the first request
	frames   int64
	reading  bool // no Write since the last Read with data
	helloed  bool
	mu       sync.Mutex
	closed   bool
}

func (c *serverConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n == 0 {
		return n, err
	}
	now := c.tr.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return n, err
	}
	if !c.helloed {
		c.helloed = true
		c.closeHello(now)
	}
	if !c.reading {
		c.reading = true
		c.frame = int32(len(c.spans))
		c.spans = append(c.spans, span{kind: spServerFrame, start: now, end: -1, parent: -1, frame: c.id<<20 | c.frames})
		c.frames++
	}
	return n, err
}

// closeHello records accept-to-hello-written: the hello is every Write
// before the first request.
func (c *serverConn) closeHello(now int64) {
	end := c.accepted
	for i := range c.spans {
		if c.spans[i].kind == spServerWrite && c.spans[i].end > end {
			end = c.spans[i].end
		}
	}
	if end > c.accepted {
		c.spans = append(c.spans, span{kind: spServerHello, start: c.accepted, end: end, parent: -1, frame: c.id << 20})
	}
}

func (c *serverConn) Write(p []byte) (int, error) {
	t0 := c.tr.now()
	n, err := c.Conn.Write(p)
	t1 := c.tr.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return n, err
	}
	c.reading = false
	c.spans = append(c.spans, span{kind: spServerWrite, start: t0, end: t1, parent: c.frame, frame: -1, bytes: int32(n)})
	if c.frame >= 0 {
		c.spans[c.frame].end = t1
	}
	return n, err
}

func (c *serverConn) Close() error {
	err := c.Conn.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		if !c.helloed {
			c.closeHello(c.tr.now())
		}
		// A frame with no response (the client's goodbye) is not a frame.
		kept := c.spans[:0]
		remap := make([]int32, len(c.spans))
		for i, s := range c.spans {
			if s.kind == spServerFrame && s.end < 0 {
				remap[i] = -1
				continue
			}
			remap[i] = int32(len(kept))
			kept = append(kept, s)
		}
		for i := range kept {
			if kept[i].parent >= 0 {
				kept[i].parent = remap[kept[i].parent]
			}
		}
		c.tr.addBatch(kept)
	}
	return err
}
