package main

import (
	"hash/crc32"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/proto"
)

var (
	sizeofFrameRec = unsafe.Sizeof(frameRec{})
	sizeofSessRec  = unsafe.Sizeof(sessRec{})
)

// connections is the number of client connections; each is a closed
// loop of back-to-back viewer sessions.
const connections = 2

// frameRec is one frame as its client saw it. at is when the frame
// returned, as an offset from the start of its phase; lat is the
// Frame/FrameBudget call's duration. n and dropped are what the call
// returned and io the node reads it added to Client.ServerIO; wire and
// crc are the length and the CRC-32 of the response bytes the client
// read, which the oracle compares with the response it encodes.
type frameRec struct {
	sess    int32
	step    int32
	at      int64
	lat     int64
	io      int64
	n       int32
	dropped int32
	wire    int32
	crc     uint32
	ok      bool
}

// sessRec is one viewer session: its index (which fixes its tour), the
// time the dial plus hello took, and when it opened.
type sessRec struct {
	k    int32
	at   int64
	open int64
	ok   bool
}

// load is the traffic of one phase: which address the sessions dial,
// which session indexes they take, and whether frames are plain.
type load struct {
	addr  string
	base  int  // first session index
	plain bool // plain frames even on a budget workload
	warm  time.Duration
	run   time.Duration
	flip  *flip
	// edge, when set, runs at the start (end false) and the end (end
	// true) of the measured window, for layer counters read there.
	edge func(end bool)
}

// flip corrupts one byte of the response to frame step of session sess,
// for the self-test: either on the wire (the client reads it flipped) or
// only in the bytes the benchmark hashes for the oracle.
type flip struct {
	sess, step int
	wire       bool
}

// flipOffset is the response byte a flip corrupts; any byte of the
// response will do.
const flipOffset = 5

// phase is the record of one measured phase.
type phase struct {
	load     load
	start    time.Time // the offsets below count from here
	frames   []frameRec
	sessions []sessRec
	// The measured window, as offsets from the phase start, its slices'
	// edges, and the process counters over it.
	from, to    int64
	edges       []edge
	cpu         time.Duration
	mallocs     uint64
	numGC       uint32
	pauseNs     uint64
	liveHeap    uint64
	steal       float64 // share of CPU time the hypervisor stole during the window
	recordBytes uint64
}

// slices is how many equal parts the measured window is cut into;
// most end-to-end metrics are the median of their values per slice, so
// that a burst of load from outside the process moves one slice, not
// the result.
const slices = 5

// edge is a slice boundary: its offset from the phase start and the
// process's CPU time and allocation count there.
type edge struct {
	at      int64
	cpu     time.Duration
	mallocs uint64
}

// seconds is the measured window's length.
func (p *phase) seconds() float64 { return float64(p.to-p.from) / 1e9 }

// inWindow reports whether an offset falls in the measured window.
func (p *phase) inWindow(at int64) bool { return at >= p.from && at < p.to }

// clientConn wraps each client connection. It counts and hashes the
// bytes read since the last write — the response to the request in
// flight — and, when traced, records every Read and Write as a span.
type clientConn struct {
	net.Conn
	respLen  int
	respCRC  uint32
	tr       *tracer
	spans    []span
	frame    int32 // index of the open client frame span, -1 outside frames
	flipAt   int   // response byte to flip as it is read, -1 for none
	flipWire bool  // the client reads the flipped byte, not only the hash
}

func (c *clientConn) Read(p []byte) (int, error) {
	var t0 int64
	if c.tr != nil {
		t0 = c.tr.now()
	}
	n, err := c.Conn.Read(p)
	at := c.flipAt - c.respLen
	flipped := c.flipAt >= 0 && at >= 0 && at < n
	if flipped {
		p[at] ^= 1
		c.flipAt = -1
	}
	c.respCRC = crc32.Update(c.respCRC, crc32.IEEETable, p[:n])
	if flipped && !c.flipWire {
		p[at] ^= 1
	}
	c.respLen += n
	if c.tr != nil {
		c.spans = append(c.spans, span{kind: spClientRead, start: t0, end: c.tr.now(), parent: c.frame, frame: -1, bytes: int32(n)})
	}
	return n, err
}

func (c *clientConn) Write(p []byte) (int, error) {
	c.respLen, c.respCRC = 0, 0
	var t0 int64
	if c.tr != nil {
		t0 = c.tr.now()
	}
	n, err := c.Conn.Write(p)
	if c.tr != nil {
		c.spans = append(c.spans, span{kind: spClientWrite, start: t0, end: c.tr.now(), parent: c.frame, frame: -1, bytes: int32(n)})
	}
	return n, err
}

// runLoad drives connections closed loops against l.addr for l.warm +
// l.run and returns the record; the measured window is the last l.run.
func runLoad(cfg *config, ts *tours, l load, tr *tracer) *phase {
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	ph := &phase{load: l, start: start}
	perConn := make([]*phase, connections)
	for w := 0; w < connections; w++ {
		perConn[w] = &phase{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := &clientConn{tr: tr, frame: -1, flipAt: -1}
			rec := perConn[w]
			for k := l.base + w; !stop.Load(); k += connections {
				runSession(cfg, ts, l, k, start, cl, rec, &stop)
				if tr != nil {
					tr.addBatch(cl.spans)
					cl.spans = cl.spans[:0]
				}
			}
		}(w)
	}
	time.Sleep(l.warm)
	if l.edge != nil {
		l.edge(false)
	}
	var m0, m1 runtime.MemStats
	mark := func() {
		runtime.ReadMemStats(&m1)
		ph.edges = append(ph.edges, edge{at: time.Since(start).Nanoseconds(), cpu: cpuTime(), mallocs: m1.Mallocs})
	}
	mark()
	m0 = m1
	steal0, total0 := hostSteal()
	ph.from = ph.edges[0].at
	for i := 1; i <= slices; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(ph.from) + l.run*time.Duration(i)/slices)))
		if i == slices {
			stop.Store(true)
			wg.Wait()
		}
		mark()
	}
	if steal1, total1 := hostSteal(); total1 > total0 {
		ph.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	last := ph.edges[slices]
	ph.to = last.at
	ph.cpu = last.cpu - ph.edges[0].cpu
	ph.mallocs = last.mallocs - ph.edges[0].mallocs
	if l.edge != nil {
		l.edge(true)
	}
	ph.numGC = m1.NumGC - m0.NumGC
	ph.pauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	runtime.GC()
	runtime.GC() // a second cycle frees what finalizers released
	runtime.ReadMemStats(&m1)
	for _, r := range perConn {
		ph.recordBytes += uint64(cap(r.frames))*uint64(sizeofFrameRec) + uint64(cap(r.sessions))*uint64(sizeofSessRec)
	}
	if m1.HeapAlloc > ph.recordBytes {
		ph.liveHeap = m1.HeapAlloc - ph.recordBytes
	}
	for _, r := range perConn {
		ph.frames = append(ph.frames, r.frames...)
		ph.sessions = append(ph.sessions, r.sessions...)
	}
	return ph
}

// runSession plays session k's tour on a fresh connection until the
// tour ends, a frame fails or the phase stops.
func runSession(cfg *config, ts *tours, l load, k int, start time.Time, cl *clientConn, rec *phase, stop *atomic.Bool) {
	tour := ts.tour(k)
	t0 := time.Now()
	var c *proto.Client
	raw, err := net.Dial("tcp", l.addr)
	if err == nil {
		cl.Conn = raw
		c, err = proto.NewSceneClient(cl, "", mapSpeed)
	}
	t1 := time.Now()
	rec.sessions = append(rec.sessions, sessRec{
		k: int32(k), at: t1.Sub(start).Nanoseconds(), open: t1.Sub(t0).Nanoseconds(), ok: err == nil,
	})
	if err != nil {
		if raw != nil {
			raw.Close()
		}
		rec.frames = append(rec.frames, frameRec{sess: int32(k), at: t1.Sub(start).Nanoseconds()})
		return
	}
	budget := cfg.budget > 0 && !l.plain
	for i := 0; i < tour.Len() && !stop.Load(); i++ {
		q, speed := ts.frame(tour, i)
		var fi int32 = -1
		if cl.tr != nil {
			fi = int32(len(cl.spans))
			cl.spans = append(cl.spans, span{kind: spClientFrame, parent: -1, frame: int64(k)<<16 | int64(i)})
			cl.frame = fi
			cl.spans[fi].start = cl.tr.now()
		}
		if fl := l.flip; fl != nil && fl.sess == k && fl.step == i {
			cl.flipAt, cl.flipWire = flipOffset, fl.wire
		}
		io0 := c.ServerIO
		f0 := time.Now()
		var n int
		var dropped int64
		if budget {
			n, dropped, err = c.FrameBudget(q, speed, cfg.budget, cfg.rings)
		} else {
			n, err = c.Frame(q, speed)
		}
		f1 := time.Now()
		if fi >= 0 {
			cl.spans[fi].end = cl.tr.now()
			cl.frame = -1
		}
		fr := frameRec{
			sess: int32(k), step: int32(i),
			at: f1.Sub(start).Nanoseconds(), lat: f1.Sub(f0).Nanoseconds(),
		}
		cl.flipAt = -1
		if err == nil {
			fr.ok = true
			fr.n, fr.io, fr.dropped = int32(n), c.ServerIO-io0, int32(dropped)
			fr.wire, fr.crc = int32(cl.respLen), cl.respCRC
		}
		rec.frames = append(rec.frames, fr)
		if err != nil {
			cl.Conn.Close()
			return
		}
	}
	c.Close()
}

// hostSteal returns the machine's stolen and total CPU time so far, in
// clock ticks, from /proc/stat (zeros where it cannot be read). Steal
// is time a hypervisor ran something else while the virtual machine
// had work: the benchmark reports its share so that a slow run can be
// told from a slow program.
func hostSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
