package proto

import (
	"bytes"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/retrieval"
)

// FuzzReader throws arbitrary bytes at every message decoder. The
// invariant is totality: decoders must return (value, error) without
// panicking or over-allocating, for any input. Run with
// `go test -fuzz=FuzzReader ./internal/proto` to explore; the seed corpus
// runs as part of the normal test suite.
func FuzzReader(f *testing.F) {
	// Seeds: one valid message of each kind plus junk.
	var hello bytes.Buffer
	NewWriter(&hello).WriteHello(Hello{Version: Version, Objects: 2, Levels: 3, BaseVerts: 6})
	f.Add(hello.Bytes())

	var req bytes.Buffer
	NewWriter(&req).WriteRequest(Request{Speed: 0.5})
	f.Add(req.Bytes())

	var resp bytes.Buffer
	NewWriter(&resp).WriteResponse(Response{IO: 3, Coeffs: make([]Coeff, 2)})
	f.Add(resp.Bytes())

	var errMsg bytes.Buffer
	NewWriter(&errMsg).WriteError("nope")
	f.Add(errMsg.Bytes())

	var resume bytes.Buffer
	NewWriter(&resume).WriteResume(Resume{Token: 7, AppliedSeq: 3})
	f.Add(resume.Bytes())

	var resumeOK bytes.Buffer
	NewWriter(&resumeOK).WriteResumeOK(ResumeOK{Seq: 3, Delivered: 99})
	f.Add(resumeOK.Bytes())

	var resumeFail bytes.Buffer
	NewWriter(&resumeFail).WriteResumeFail("gone")
	f.Add(resumeFail.Bytes())

	var scene bytes.Buffer
	NewWriter(&scene).WriteSceneSelect("city")
	f.Add(scene.Bytes())

	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	// Budgets and truncation metadata: valid, negative under a valid
	// checksum, and a request with one budget byte flipped.
	subs := []retrieval.SubQuery{{Region: geom.R2(1, 2, 3, 4), WMin: 0.2, WMax: 0.9}}
	var budgetReq bytes.Buffer
	NewWriter(&budgetReq).WriteRequest(Request{Speed: 0.5, Subs: subs, MaxBytes: 4096})
	f.Add(budgetReq.Bytes())
	var budgetResp bytes.Buffer
	payload := EncodeResponsePayload(nil, []Coeff{{Object: 1, Vertex: 9, Value: 0.5}})
	NewWriter(&budgetResp).WriteBudgetResponsePayload(1, 7, 2, 3, 4096, payload)
	f.Add(budgetResp.Bytes())
	f.Add(checksummed(TagRequest, negativeBudgetBody()))
	f.Add(checksummed(TagResponse, emptyResponseBody(-1, 4096)))
	flipped := append([]byte(nil), budgetReq.Bytes()...)
	flipped[2] ^= 0x10
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		tag, err := r.ReadTag()
		if err != nil {
			return
		}
		switch tag {
		case TagHello:
			r.ReadHello()
		case TagRequest:
			if req, err := r.ReadRequest(); err == nil {
				if len(req.Subs) > MaxSubQueries {
					t.Fatalf("oversized request decoded: %d", len(req.Subs))
				}
				if req.MaxBytes < 0 {
					t.Fatalf("negative budget decoded: %d", req.MaxBytes)
				}
			}
		case TagResponse:
			if resp, err := r.ReadResponse(); err == nil {
				checkResponse(t, &resp)
			}
		case TagError:
			r.ReadError()
		case TagResume:
			if res, err := r.ReadResume(); err == nil && res.AppliedSeq < 0 {
				t.Fatalf("negative applied seq decoded: %d", res.AppliedSeq)
			}
		case TagResumeOK:
			r.ReadResumeOK()
		case TagResumeFail:
			if msg, err := r.ReadResumeFail(); err == nil && len(msg) > MaxWireErrorLen {
				t.Fatalf("oversized resume-fail reason decoded: %d bytes", len(msg))
			}
		case TagScene:
			if scene, err := r.ReadSceneSelect(); err == nil {
				if err := engine.ValidateSceneName(scene); err != nil {
					t.Fatalf("invalid scene name decoded: %v", err)
				}
			}
		}
	})
}

// checksummed frames a body under its CRC trailer, so the decoder's
// post-checksum validation is what must reject a garbage field.
func checksummed(tag byte, body []byte) []byte {
	return le32(append([]byte{tag}, body...), crc32.Checksum(body, crcTable))
}

// negativeBudgetBody is a request body whose budget is -1.
func negativeBudgetBody() []byte {
	body := le64(nil, ^uint64(0))
	body = le64(body, math.Float64bits(0.5))
	return le32(body, 0)
}

// emptyResponseBody is a record-free response body (seq 1) carrying the
// given truncation metadata, unchecked.
func emptyResponseBody(dropped, budget int64) []byte {
	body := le32(nil, 0)
	body = le64(body, 0)
	body = le64(body, 1)
	body = le64(body, uint64(dropped))
	return le64(body, uint64(budget))
}

// checkResponse asserts the bounds every successfully decoded response
// obeys: a bounded record count and non-negative truncation metadata.
func checkResponse(t *testing.T, resp *Response) {
	t.Helper()
	if len(resp.Coeffs) > MaxCoeffs {
		t.Fatalf("oversized response decoded: %d", len(resp.Coeffs))
	}
	if resp.Dropped < 0 || resp.Budget < 0 {
		t.Fatalf("negative truncation metadata decoded: %d/%d", resp.Dropped, resp.Budget)
	}
}

// frameBody strips the tag byte from a written frame, giving the body a
// per-message fuzzer consumes after its own ReadTag.
func frameBody(f *testing.F, write func(*Writer) error) []byte {
	f.Helper()
	var buf bytes.Buffer
	if err := write(NewWriter(&buf)); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()[1:]
}

// FuzzReadResponse targets the response decoder: the largest frame, the
// incremental coefficient allocation, and the CRC trailer. The decoder
// must never panic, never allocate unboundedly, and must reject any
// body whose checksum does not match.
func FuzzReadResponse(f *testing.F) {
	f.Add(frameBody(f, func(w *Writer) error {
		return w.WriteResponse(Response{IO: 3, Seq: 1, Coeffs: make([]Coeff, 2)})
	}))
	f.Add(frameBody(f, func(w *Writer) error {
		return w.WriteResponse(Response{})
	}))
	f.Add([]byte{})
	withheld := frameBody(f, func(w *Writer) error {
		return w.WriteBudgetResponsePayload(0, 0, 1, 12, 4096, nil) // all withheld
	})
	f.Add(withheld)
	f.Add(emptyResponseBody(-1, 4096))
	flipped := append([]byte(nil), withheld...)
	flipped[len(withheld)-5] ^= 0x01 // the budget's top byte
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		if resp, err := r.ReadResponse(); err == nil {
			checkResponse(t, &resp)
		}
	})
}

// FuzzReadHello targets the handshake decoder — the one frame a client
// parses before any trust is established.
func FuzzReadHello(f *testing.F) {
	f.Add(frameBody(f, func(w *Writer) error {
		return w.WriteHello(Hello{Version: Version, Objects: 2, Levels: 3, BaseVerts: 6, Token: 42})
	}))
	f.Add(frameBody(f, func(w *Writer) error {
		return w.WriteHello(Hello{Version: Version, Objects: 2, Levels: 3, BaseVerts: 6,
			Token: 42, Scene: "city-01"})
	}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		if h, err := r.ReadHello(); err == nil {
			if h.Version != Version {
				t.Fatalf("foreign version %d accepted", h.Version)
			}
			if len(h.Scene) > engine.MaxSceneName {
				t.Fatalf("oversized scene name decoded: %d bytes", len(h.Scene))
			}
		}
	})
}

// FuzzReadSceneSelect targets the scene-select decoder: a checksummed
// frame that binds a session to a data set, parsed before the session
// has served anything. A decode that succeeds must yield a valid,
// bounded scene name.
func FuzzReadSceneSelect(f *testing.F) {
	f.Add(frameBody(f, func(w *Writer) error {
		return w.WriteSceneSelect("city")
	}))
	f.Add(frameBody(f, func(w *Writer) error {
		return w.WriteSceneSelect("a")
	}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		if scene, err := r.ReadSceneSelect(); err == nil {
			if err := engine.ValidateSceneName(scene); err != nil {
				t.Fatalf("invalid scene name decoded: %v", err)
			}
		}
	})
}

// FuzzReadResume targets the three resume-handshake decoders (request,
// ok, fail) — checksummed frames parsed while a session credential is
// on the line.
func FuzzReadResume(f *testing.F) {
	f.Add(uint8(0), frameBody(f, func(w *Writer) error {
		return w.WriteResume(Resume{Token: 7, AppliedSeq: 3})
	}))
	f.Add(uint8(1), frameBody(f, func(w *Writer) error {
		return w.WriteResumeOK(ResumeOK{Seq: 3, Delivered: 99})
	}))
	f.Add(uint8(2), frameBody(f, func(w *Writer) error {
		return w.WriteResumeFail("gone")
	}))
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		r := NewReader(bytes.NewReader(data))
		switch which % 3 {
		case 0:
			if res, err := r.ReadResume(); err == nil && res.AppliedSeq < 0 {
				t.Fatalf("negative applied seq decoded: %d", res.AppliedSeq)
			}
		case 1:
			r.ReadResumeOK()
		case 2:
			if msg, err := r.ReadResumeFail(); err == nil && len(msg) > MaxWireErrorLen {
				t.Fatalf("oversized resume-fail reason decoded: %d bytes", len(msg))
			}
		}
	})
}

// FuzzCRCRejectsFlips checks the integrity guarantee end to end: any
// single-bit flip anywhere past the tag of a checksummed request or
// response frame must be rejected.
func FuzzCRCRejectsFlips(f *testing.F) {
	var resp, req bytes.Buffer
	if err := NewWriter(&resp).WriteResponse(Response{IO: 7, Seq: 2, Dropped: 3, Budget: 4096,
		Coeffs: []Coeff{{Object: 1, Vertex: 9, Value: 0.5}}}); err != nil {
		f.Fatal(err)
	}
	subs := []retrieval.SubQuery{{Region: geom.R2(1, 2, 3, 4), WMin: 0.2, WMax: 0.9}}
	if err := NewWriter(&req).WriteRequest(Request{Speed: 0.5, Subs: subs, MaxBytes: 4096}); err != nil {
		f.Fatal(err)
	}
	frames := [][]byte{resp.Bytes(), req.Bytes()}
	f.Add(1, uint8(0))
	f.Add(resp.Len()-1, uint8(7))
	f.Add(3, uint8(5)) // a budget byte of the request
	f.Fuzz(func(t *testing.T, pos int, bit uint8) {
		for _, frame := range frames {
			if pos < 1 || pos >= len(frame) { // tag byte is not checksummed
				continue
			}
			mut := append([]byte(nil), frame...)
			mut[pos] ^= 1 << (bit % 8)
			r := NewReader(bytes.NewReader(mut))
			tag, err := r.ReadTag()
			if err != nil {
				continue
			}
			switch tag {
			case TagResponse:
				if _, err := r.ReadResponse(); err == nil {
					t.Fatalf("response bit flip at byte %d bit %d went undetected", pos, bit%8)
				}
			case TagRequest:
				if _, err := r.ReadRequest(); err == nil {
					t.Fatalf("request bit flip at byte %d bit %d went undetected", pos, bit%8)
				}
			}
		}
	})
}
