package proto

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/retrieval"
	"repro/internal/stats"
	"repro/internal/wavelet"
)

func le32(buf []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(buf, v) }
func le64(buf []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(buf, v) }

func TestBudgetRequestRoundtrip(t *testing.T) {
	req := Request{
		Speed:    0.42,
		MaxBytes: 12345,
		Subs: []retrieval.SubQuery{
			{Region: geom.R2(1, 2, 3, 4), WMin: 0.1, WMax: 0.9},
			{Region: geom.R2(5, 6, 7, 8), WMin: 0, WMax: 1},
		},
	}
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteRequest(req); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	tag, err := r.ReadTag()
	if err != nil || tag != TagRequest {
		t.Fatalf("tag = %d err = %v", tag, err)
	}
	got, err := r.ReadRequest()
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxBytes != req.MaxBytes || got.Speed != req.Speed {
		t.Fatalf("roundtrip budget/speed %d/%g, want %d/%g", got.MaxBytes, got.Speed, req.MaxBytes, req.Speed)
	}
	if !reflect.DeepEqual(got.Subs, req.Subs) {
		t.Fatalf("roundtrip subs %+v != %+v", got.Subs, req.Subs)
	}
}

func TestBudgetRequestRejectsNegativeBudget(t *testing.T) {
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteRequest(Request{MaxBytes: -1}); err == nil {
		t.Fatal("negative budget encoded")
	}

	// A crafted frame with a valid checksum over a negative budget must
	// be rejected by the decoder's post-CRC validation (not as ErrChecksum
	// — the bytes arrived intact, the field is garbage).
	r := NewReader(bytes.NewReader(checksummed(TagRequest, negativeBudgetBody())))
	if _, err := r.ReadTag(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadRequest(); err == nil || err == ErrChecksum {
		t.Fatalf("negative wire budget: err = %v, want a validation error", err)
	}
}

func TestBudgetResponseRoundtrip(t *testing.T) {
	coeffs := []Coeff{
		{Object: 1, Vertex: 2, Delta: geom.Vec3{X: 0.1, Y: -0.2, Z: 0.3}, Pos: [3]float32{1, 2, 3}, Value: 0.5},
		{Object: 4, Vertex: 5, Delta: geom.Vec3{X: -1, Y: 2, Z: -3}, Pos: [3]float32{4, 5, 6}, Value: 0.25},
	}
	payload := EncodeResponsePayload(nil, coeffs)
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteBudgetResponsePayload(len(coeffs), 7, 3, 11, 9999, payload); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	tag, err := r.ReadTag()
	if err != nil || tag != TagResponse {
		t.Fatalf("tag = %d err = %v", tag, err)
	}
	var resp Response
	if err := r.ReadResponseInto(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.IO != 7 || resp.Seq != 3 || resp.Dropped != 11 || resp.Budget != 9999 {
		t.Fatalf("metadata io/seq/dropped/budget = %d/%d/%d/%d", resp.IO, resp.Seq, resp.Dropped, resp.Budget)
	}
	if !reflect.DeepEqual(resp.Coeffs, coeffs) {
		t.Fatalf("roundtrip coeffs %+v != %+v", resp.Coeffs, coeffs)
	}

	// Negative truncation metadata never leaves a conforming writer.
	if err := NewWriter(&buf).WriteBudgetResponsePayload(0, 0, 1, -1, 0, nil); err == nil {
		t.Fatal("negative dropped count encoded")
	}
	if err := NewWriter(&buf).WriteBudgetResponsePayload(0, 0, 1, 0, -1, nil); err == nil {
		t.Fatal("negative budget encoded")
	}
	if err := NewWriter(&buf).WriteResponse(Response{Dropped: -1}); err == nil {
		t.Fatal("negative dropped count encoded by WriteResponse")
	}

	// A crafted frame with a valid checksum over negative metadata is
	// rejected by the post-CRC validation, not as corruption.
	for _, meta := range [][2]int64{{-1, 0}, {0, -1}} {
		r := NewReader(bytes.NewReader(checksummed(TagResponse, emptyResponseBody(meta[0], meta[1]))))
		if _, err := r.ReadTag(); err != nil {
			t.Fatal(err)
		}
		if err := r.ReadResponseInto(&resp); err == nil || err == ErrChecksum {
			t.Fatalf("metadata %v: err = %v, want a validation error", meta, err)
		}
	}

	// Reusing the decode scratch for an unbudgeted response must zero the
	// budget metadata, not leak the previous frame's.
	resp = Response{Dropped: 11, Budget: 9999}
	buf.Reset()
	if err := NewWriter(&buf).WriteResponsePayload(0, 1, 4, nil); err != nil {
		t.Fatal(err)
	}
	r = NewReader(&buf)
	if _, err := r.ReadTag(); err != nil {
		t.Fatal(err)
	}
	if err := r.ReadResponseInto(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Dropped != 0 || resp.Budget != 0 {
		t.Fatalf("unbudgeted response leaked budget metadata %d/%d", resp.Dropped, resp.Budget)
	}
}

// TestBudgetFrameLayoutPin hand-encodes the version-5 request and response
// frames with binary.LittleEndian and pins the writers to those exact
// bytes. Request: tag, budget, speed, sub-query count, six float64 per
// sub-query, CRC. Response: tag, count, io, seq, dropped, budget,
// records, CRC.
func TestBudgetFrameLayoutPin(t *testing.T) {
	req := Request{
		Speed:    1.5,
		MaxBytes: 1 << 20,
		Subs:     []retrieval.SubQuery{{Region: geom.R2(1, 2, 3, 4), WMin: 0.25, WMax: 0.75}},
	}
	var body []byte
	body = le64(body, uint64(req.MaxBytes))
	body = le64(body, math.Float64bits(req.Speed))
	body = le32(body, 1)
	for _, f := range []float64{1, 2, 3, 4, 0.25, 0.75} {
		body = le64(body, math.Float64bits(f))
	}
	want := append([]byte{TagRequest}, body...)
	want = le32(want, crc32.Checksum(body, crcTable))

	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteRequest(req); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("request layout drifted:\n got %x\nwant %x", buf.Bytes(), want)
	}

	coeff := Coeff{Object: 3, Vertex: 9, Delta: geom.Vec3{X: 0.5, Y: -1, Z: 2}, Pos: [3]float32{7, 8, 9}, Value: 0.25}
	var rbody []byte
	rbody = le32(rbody, 1)
	rbody = le64(rbody, 42)   // io
	rbody = le64(rbody, 6)    // seq
	rbody = le64(rbody, 5)    // dropped
	rbody = le64(rbody, 4096) // budget
	rbody = le32(rbody, 3)    // object
	rbody = le32(rbody, 9)    // vertex
	for _, f := range []float64{0.5, -1, 2} {
		rbody = le64(rbody, math.Float64bits(f))
	}
	for _, f := range []float32{7, 8, 9, 0.25} {
		rbody = le32(rbody, math.Float32bits(f))
	}
	wantResp := append([]byte{TagResponse}, rbody...)
	wantResp = le32(wantResp, crc32.Checksum(rbody, crcTable))
	buf.Reset()
	if err := NewWriter(&buf).WriteResponse(Response{Coeffs: []Coeff{coeff}, IO: 42, Seq: 6, Dropped: 5, Budget: 4096}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), wantResp) {
		t.Fatalf("response layout drifted:\n got %x\nwant %x", buf.Bytes(), wantResp)
	}
}

// recordingConn copies everything read off the connection into rec (when
// armed), so a test can capture the exact frame bytes a server emitted.
type recordingConn struct {
	net.Conn
	rec *bytes.Buffer
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.rec != nil {
		c.rec.Write(p[:n])
	}
	return n, err
}

// rawExchange dials the server, completes the handshake, sends one
// request frame, and returns the server's response both parsed and as
// the raw frame bytes it arrived in.
func rawExchange(t *testing.T, addr string, send func(*Writer) error) ([]byte, Response) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	rc := &recordingConn{Conn: conn}
	r, w := NewReader(rc), NewWriter(conn)
	if tag, err := r.ReadTag(); err != nil || tag != TagHello {
		t.Fatalf("handshake tag = %d err = %v", tag, err)
	}
	if _, err := r.ReadHello(); err != nil {
		t.Fatal(err)
	}
	// The server writes nothing between the hello and its reply to our
	// request, so arming the recorder here captures exactly one frame.
	rc.rec = &bytes.Buffer{}
	if err := send(w); err != nil {
		t.Fatal(err)
	}
	tag, err := r.ReadTag()
	if err != nil || tag != TagResponse {
		t.Fatalf("reply tag = %d err = %v, want %d", tag, err, TagResponse)
	}
	var resp Response
	if err := r.ReadResponseInto(&resp); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), rc.rec.Bytes()...), resp
}

// TestBudgetZeroMatchesPlainWire pins that a zero budget is the plain
// Algorithm-1 frame: against a budget large enough for the whole
// universe it returns the same records, io and seq, its truncation
// metadata bytes are zero, and its frame is the generous frame with the
// budget field zeroed, byte for byte.
func TestBudgetZeroMatchesPlainWire(t *testing.T) {
	addr, d, _, _, shutdown := startHardenedServer(t, nil)
	defer shutdown()
	subs := []retrieval.SubQuery{{Region: d.Store.Bounds().XY(), WMin: 0, WMax: 1}}
	send := func(maxBytes int64) func(*Writer) error {
		return func(w *Writer) error {
			return w.WriteRequest(Request{Speed: 0.3, Subs: subs, MaxBytes: maxBytes})
		}
	}

	plainFrame, plainResp := rawExchange(t, addr, send(0))
	generous := int64(d.Store.NumCoeffs()+1) * wavelet.WireBytes
	budgetFrame, budgetResp := rawExchange(t, addr, send(generous))

	if len(plainResp.Coeffs) == 0 {
		t.Fatal("whole-space query returned no coefficients")
	}
	if plainResp.Dropped != 0 || plainResp.Budget != 0 || budgetResp.Dropped != 0 {
		t.Fatalf("untruncated frames report dropped %d/%d, plain budget %d",
			plainResp.Dropped, budgetResp.Dropped, plainResp.Budget)
	}
	if budgetResp.Budget != generous {
		t.Fatalf("generous frame reports budget %d, want %d", budgetResp.Budget, generous)
	}
	if !reflect.DeepEqual(plainResp.Coeffs, budgetResp.Coeffs) {
		t.Fatalf("coefficient streams diverge: %d vs %d records", len(plainResp.Coeffs), len(budgetResp.Coeffs))
	}
	if plainResp.IO != budgetResp.IO || plainResp.Seq != budgetResp.Seq {
		t.Fatalf("io/seq diverge: %d/%d vs %d/%d", plainResp.IO, plainResp.Seq, budgetResp.IO, budgetResp.Seq)
	}

	const metaOff = 1 + 4 + 8 + 8 // tag, count, io, seq
	if meta := plainFrame[metaOff : metaOff+16]; !bytes.Equal(meta, make([]byte, 16)) {
		t.Fatalf("unlimited response carries non-zero metadata %x", meta)
	}
	body := append([]byte(nil), budgetFrame[1:len(budgetFrame)-4]...)
	binary.LittleEndian.PutUint64(body[metaOff-1+8:], 0) // budget field
	want := append([]byte{TagResponse}, body...)
	want = le32(want, crc32.Checksum(body, crcTable))
	if !bytes.Equal(plainFrame, want) {
		t.Fatalf("zero-budget frame is not the generous frame with budget 0 (%d vs %d bytes)", len(plainFrame), len(want))
	}
}

// TestFrameBudgetTruncationConvergence drives budgeted frames end to end
// through a live server: a budget a quarter of the universe must
// truncate, every frame must fit its budget, the per-frame accounting
// must reconcile exactly (delivered so far + withheld = universe), and
// repeated frames over the same window must converge to the full
// coefficient set without ever re-delivering a record.
func TestFrameBudgetTruncationConvergence(t *testing.T) {
	addr, d, _, _, shutdown := startHardenedServer(t, nil)
	defer shutdown()
	space := d.Store.Bounds().XY()

	// Universe size: one unlimited budgeted frame on its own session.
	ref, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	n0, dropped, err := ref.FrameBudget(space, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 || n0 == 0 {
		t.Fatalf("unlimited frame: %d coeffs, %d dropped", n0, dropped)
	}
	ref.Close()

	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	budget := int64(n0/4+1) * wavelet.WireBytes
	total := 0
	for frame := 1; ; frame++ {
		n, dropped, err := c.FrameBudget(space, 0, budget, 3)
		if err != nil {
			t.Fatal(err)
		}
		if int64(n)*wavelet.WireBytes > budget {
			t.Fatalf("frame %d: %d coeffs overflow the %d-byte budget", frame, n, budget)
		}
		total += n
		if int64(total)+dropped != int64(n0) {
			t.Fatalf("frame %d: delivered %d + withheld %d != universe %d", frame, total, dropped, n0)
		}
		if frame == 1 && dropped == 0 {
			t.Fatal("quarter-universe budget did not truncate")
		}
		if dropped == 0 {
			break
		}
		if frame > 16 {
			t.Fatal("budgeted frames never converged")
		}
	}
	if total != n0 {
		t.Fatalf("converged on %d coefficients, universe has %d", total, n0)
	}
	// The window is fully delivered: one more frame streams nothing new.
	n, dropped, err := c.FrameBudget(space, 0, budget, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || dropped != 0 {
		t.Fatalf("post-convergence frame re-delivered %d coeffs (%d dropped)", n, dropped)
	}
}

// TestDegradedFloorDecaysToZero is the regression test for the
// last-resort fallback's recovery path: after timeouts raise the
// degraded-mode floor, sustained successful frames must walk it all the
// way back to exactly 0 (full resolution) — gradually, not as an
// instant reset, and without getting stuck at a tiny residual.
func TestDegradedFloorDecaysToZero(t *testing.T) {
	// Mute server: accepts the handshake, swallows every request.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				w, r := NewWriter(conn), NewReader(conn)
				w.WriteHello(Hello{Version: Version, Objects: 1, Levels: 1, BaseVerts: 6,
					Space: geom.R2(0, 0, 100, 100), Token: newToken()})
				for {
					tag, err := r.ReadTag()
					if err != nil {
						return
					}
					switch tag {
					case TagResume:
						if _, err := r.ReadResume(); err != nil {
							return
						}
						if err := w.WriteResumeFail("no session"); err != nil {
							return
						}
					case TagRequest:
						if _, err := r.ReadRequest(); err != nil {
							return
						}
					default:
						return
					}
				}
			}(conn)
		}
	}()

	addrReal, d, _, _, shutdown := startHardenedServer(t, nil)
	defer shutdown()
	var healed atomic.Bool

	rc, err := DialResilient(ResilientConfig{
		Dial: func() (net.Conn, error) {
			if healed.Load() {
				return net.Dial("tcp", addrReal)
			}
			return net.Dial("tcp", lis.Addr().String())
		},
		FrameTimeout: 200 * time.Millisecond,
		MaxAttempts:  3,
		BackoffBase:  time.Millisecond,
		BackoffMax:   2 * time.Millisecond,
		DegradeAfter: 1,
		DegradeStep:  0.4,
		Stats:        stats.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	space := d.Store.Bounds().XY()
	if _, err := rc.Frame(space, 0.5); err == nil {
		t.Fatal("frame succeeded against a mute server")
	}
	if rc.DegradeFloor() != 1 {
		t.Fatalf("floor = %v after 3 timeouts at step 0.4, want capped at 1", rc.DegradeFloor())
	}

	healed.Store(true)
	decays := 0
	for rc.DegradeFloor() > 0 {
		before := rc.DegradeFloor()
		if _, err := rc.Frame(space, 0.5); err != nil {
			t.Fatal(err)
		}
		after := rc.DegradeFloor()
		if after > 0 && after != before/2 {
			t.Fatalf("success moved the floor %v -> %v, want exactly halved", before, after)
		}
		if decays++; decays > 20 {
			t.Fatalf("floor stuck at %v after %d successes", rc.DegradeFloor(), decays)
		}
	}
	if decays < 5 {
		t.Fatalf("floor hit 0 after only %d successes — reset, not decay", decays)
	}
	if rc.DegradeFloor() != 0 {
		t.Fatalf("floor = %v, want exactly 0", rc.DegradeFloor())
	}
	// Fully recovered: the next frame requests full resolution again.
	if w := rc.mapSpeed(0); w != 0 {
		t.Fatalf("mapSpeed(0) = %v after recovery, want 0", w)
	}
}
