package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// contract is the part of BENCHMARK.json the output must match.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func shortRun(t *testing.T, workload string, trace bool, fl *flip) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(options{
		workload: workload, seed: 3, seconds: 500 * time.Millisecond,
		trace: trace, dir: t.TempDir(), short: true, flip: fl,
	}, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	return res, out.String()
}

// TestShortRunsPrintEveryMetric runs every workload in short mode,
// untraced and traced, and checks that each metric BENCHMARK.json names
// is printed and returned with its unit, and that no frame failed.
func TestShortRunsPrintEveryMetric(t *testing.T) {
	c := loadContract(t)
	for _, w := range []string{"tram", "crowd", "city"} {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				res, out := shortRun(t, w, trace, nil)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct %v, %d of %d frames failed\n%s", res.Correct, res.Failed, res.Attempted, out)
				}
				want := c.EndToEnd
				if trace {
					want = c.PerLayer
				} else {
					for _, line := range []string{"fail_ratio 0.000000 ratio", fmt.Sprintf("metric %-36s", "first_frame_p90_us")} {
						if !strings.Contains(out, line) {
							t.Errorf("%q not printed\n%s", line, out)
						}
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics returned, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
					if !strings.Contains(out, fmt.Sprintf("metric %-36s", m.Name)) {
						t.Errorf("metric %s not printed", m.Name)
					}
				}
			})
		}
	}
}

// TestFlippedResponseByteIsCaught flips one byte of one response, once
// on the wire, where the client's checksum must refuse the frame, and
// once only in the bytes the benchmark hashes, where the oracle must
// disagree.
func TestFlippedResponseByteIsCaught(t *testing.T) {
	for _, wire := range []bool{true, false} {
		res, out := shortRun(t, "tram", false, &flip{sess: 0, step: 1, wire: wire})
		if res.Correct || res.Failed == 0 {
			t.Errorf("wire=%v: flipped byte not caught: correct %v, %d failed\n%s", wire, res.Correct, res.Failed, out)
		}
	}
}
