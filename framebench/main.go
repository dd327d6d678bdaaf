// Command framebench is the repository's frame-pipeline benchmark. It
// serves one workload's scene from the real stack in this process —
// engine.Registry scenes behind proto.Server on loopback, with a
// cluster.Gateway in front where the workload says so — and drives it
// with two client connections, each a closed loop of back-to-back
// viewer sessions over proto.Client. Every frame a client receives is
// checked against an in-process oracle.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash framebench/run.sh --workload tram|crowd|city --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload untraced and then traced, and prints the per-layer
// metrics, the tracing overhead and whether the two runs' deterministic
// counters agree. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. LAYERS.md explains the
// workloads, the metrics and the layers each one exercises.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	dir      string
	short    bool // shrink the scenes, for the package's own tests
	spans    string
	flip     *flip
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var seconds float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: tram, crowd or city")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: it draws the viewers' tours; the scene is fixed")
	flag.Float64Var(&seconds, "seconds", 15, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs untraced then traced and reports per-layer metrics")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for segment files")
	flag.StringVar(&o.spans, "spans", "", "with --trace 1, write every span to this file")
	flag.Parse()
	if seconds <= 0 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "framebench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "framebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "framebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run, printing a report to w, and returns
// the result line.
func run(o options, w io.Writer) (*result, error) {
	cfg, err := lookupWorkload(o.workload, o.short)
	if err != nil {
		return nil, err
	}
	dir, err := filepath.Abs(o.dir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	printHost(w, o, cfg)
	rep := &report{w: w, metrics: make(map[string]metric)}
	if o.trace {
		err = runTraced(o, cfg, dir, rep)
	} else {
		err = runUntraced(o, cfg, dir, rep)
	}
	if err != nil {
		return nil, err
	}
	return &result{Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics}, nil
}

// report collects the metrics of a run and prints each as it is set.
type report struct {
	w                 io.Writer
	metrics           map[string]metric
	attempted, failed int
	notes             []string // reasons the run is not correct
}

func (r *report) set(name string, value float64, unit, note string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
	r.print(name, value, unit, note)
}

// print reports a metric that the result line does not carry.
func (r *report) print(name string, value float64, unit, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(r.w, "metric %-36s %14.4f %-6s%s\n", name, value, unit, note)
}

func (r *report) verdict(name string, v *verdict) {
	r.attempted += v.attempted
	r.failed += v.failed
	fmt.Fprintf(r.w, "oracle %s: %d frames attempted, %d failed", name, v.attempted, v.failed)
	if v.failed > 0 {
		fmt.Fprintf(r.w, "; first: %s", v.firstBad)
		r.notes = append(r.notes, fmt.Sprintf("%s: %d of %d frames failed", name, v.failed, v.attempted))
	}
	fmt.Fprintln(r.w)
}

func (r *report) correct() bool {
	for _, n := range r.notes {
		fmt.Fprintln(r.w, "not correct:", n)
	}
	return len(r.notes) == 0 && r.attempted > 0
}

// runUntraced measures the end-to-end metrics: set up cfg.setups times
// (setup_s is the median), serve the workload from the last set-up for
// a warm-up and the measured phase, then check every frame.
func runUntraced(o options, cfg *config, dir string, rep *report) error {
	var totals []float64
	var st *stack
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			st.close()
			st = nil
			runtime.GC()
		}
		var err error
		if st, err = buildStack(cfg, dir, nil, false); err != nil {
			return err
		}
		totals = append(totals, st.times.total())
	}
	fmt.Fprintf(rep.w, "heap after set-up: %.1f MB\n", liveHeapMB())
	ts := newTours(cfg, o.seed, st.scene.Source.Bounds().XY())
	ph := runLoad(cfg, ts, load{addr: st.addr(), warm: cfg.warm, run: o.seconds, flip: o.flip}, nil)
	st.close()
	v := newOracle(cfg, ts, st).check(ph, false)
	rep.verdict("main phase", v)
	e := endToEnd(ph)
	fmt.Fprintf(rep.w, "samples: %d steady frames, %d first frames, %d sessions opened, %d set-ups, measured %.3f s, host steal %.1f%%\n",
		e.steady, e.first, e.opens, len(totals), ph.seconds(), 100*ph.steal)
	if e.steady < 10000 {
		fmt.Fprintf(rep.w, "warning: frame_p999_us has fewer than 10 samples beyond it (%d steady frames)\n", e.steady)
	}
	if e.first < 100 {
		fmt.Fprintf(rep.w, "warning: first_frame_p90_us has fewer than 10 samples beyond it (%d sessions)\n", e.first)
	}
	for i, f := range e.slices {
		fmt.Fprintf(rep.w, "slice %d: frame_p50_us %.2f · first_frame_p50_us %.2f · session_open_p50_us %.2f · frames_per_s %.1f · cpu_us_per_frame %.2f · wire_bytes_per_frame %.1f · allocs_per_frame %.2f\n",
			i, f.frameP50, f.firstP50, f.openP50, f.framesPerS, f.cpuPerFrame, f.wirePerFrame, f.allocsPerFrame)
	}
	rep.set("frame_p50_us", e.frameP50, "us", fmt.Sprintf("n=%d", e.steady))
	rep.set("frame_p999_us", e.frameP999, "us", fmt.Sprintf("n=%d", e.steady))
	rep.set("first_frame_p50_us", e.firstP50, "us", fmt.Sprintf("n=%d", e.first))
	// Not in BENCHMARK.json: on city, hypervisor steal of 5-15% moved
	// it by up to 70% while the medians moved by 10-20%.
	rep.print("first_frame_p90_us", e.firstP90, "us", fmt.Sprintf("n=%d; printed, not gated", e.first))
	rep.set("session_open_p50_us", e.openP50, "us", fmt.Sprintf("n=%d", e.opens))
	rep.set("frames_per_s", e.framesPerS, "1/s", fmt.Sprintf("%d frames", e.frames))
	rep.set("cpu_us_per_frame", e.cpuPerFrame, "us", "")
	rep.set("wire_bytes_per_frame", e.wirePerFrame, "B", "")
	rep.set("allocs_per_frame", e.allocsPerFrame, "count", "")
	rep.set("live_heap_mb", float64(ph.liveHeap)/1e6, "MB", fmt.Sprintf("%.1f MB of benchmark records excluded", float64(ph.recordBytes)/1e6))
	rep.set("setup_s", median(totals), "s", "median of "+joinFloats(totals))
	failRatio := 0.0
	if rep.attempted > 0 {
		failRatio = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(rep.w, "fail_ratio %.6f ratio (%d of %d frames attempted; reported as failed/attempted)\n",
		failRatio, rep.failed, rep.attempted)
	return nil
}

// e2e holds the end-to-end figures of one phase.
type e2e struct {
	steady, first, opens, frames int
	frameP50, frameP999          float64
	firstP50, firstP90           float64
	openP50                      float64
	framesPerS, cpuPerFrame      float64
	wirePerFrame                 float64
	allocsPerFrame               float64
	slices                       []e2e
}

// endToEnd computes the end-to-end figures of a phase. Each is the
// median of its values over the measured window's slices, except the
// two high percentiles, which take the whole window's samples (a
// slice's first frames leave a 90th percentile too few beyond it), and
// the sample counts, which are the whole window's.
func endToEnd(ph *phase) e2e {
	e := figures(ph, ph.edges[0], ph.edges[len(ph.edges)-1])
	for i := 0; i+1 < len(ph.edges); i++ {
		e.slices = append(e.slices, figures(ph, ph.edges[i], ph.edges[i+1]))
	}
	for _, field := range []func(*e2e) *float64{
		func(f *e2e) *float64 { return &f.frameP50 },
		func(f *e2e) *float64 { return &f.firstP50 },
		func(f *e2e) *float64 { return &f.openP50 },
		func(f *e2e) *float64 { return &f.framesPerS },
		func(f *e2e) *float64 { return &f.cpuPerFrame },
		func(f *e2e) *float64 { return &f.wirePerFrame },
		func(f *e2e) *float64 { return &f.allocsPerFrame },
	} {
		xs := make([]float64, len(e.slices))
		for i := range e.slices {
			xs[i] = *field(&e.slices[i])
		}
		*field(&e) = median(xs)
	}
	return e
}

// figures computes the end-to-end figures over [a, b): the frames that
// returned in it and the sessions opened in it.
func figures(ph *phase, a, b edge) e2e {
	var e e2e
	var steady, first, opens []float64
	var wire int64
	in := func(at int64) bool { return at >= a.at && at < b.at }
	for i := range ph.frames {
		f := &ph.frames[i]
		if !f.ok || !in(f.at) {
			continue
		}
		e.frames++
		wire += int64(f.wire)
		if f.step == 0 {
			first = append(first, float64(f.lat)/1e3)
		} else {
			steady = append(steady, float64(f.lat)/1e3)
		}
	}
	for _, s := range ph.sessions {
		if s.ok && in(s.at) {
			opens = append(opens, float64(s.open)/1e3)
		}
	}
	e.steady, e.first, e.opens = len(steady), len(first), len(opens)
	e.frameP50, e.frameP999 = quantile(steady, 0.5), quantile(steady, 0.999)
	e.firstP50, e.firstP90 = quantile(first, 0.5), quantile(first, 0.9)
	e.openP50 = quantile(opens, 0.5)
	if e.frames > 0 {
		n := float64(e.frames)
		e.framesPerS = n / (float64(b.at-a.at) / 1e9)
		e.cpuPerFrame = float64((b.cpu - a.cpu).Microseconds()) / n
		e.wirePerFrame = float64(wire) / n
		e.allocsPerFrame = float64(b.mallocs-a.mallocs) / n
	}
	return e
}

// printHost records the host and the run with every result.
func printHost(w io.Writer, o options, cfg *config) {
	fmt.Fprintf(w, "host: %s %s/%s · GOMAXPROCS %d · nproc %d · cpu %s\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
	trace, setups := 0, cfg.setups
	if o.trace {
		trace, setups = 1, 1
	}
	fmt.Fprintf(w, "run: workload %s · seed %d · seconds %g · trace %d · short %v · %d connections · set-ups %d · warm-up %v\n",
		cfg.name, o.seed, o.seconds.Seconds(), trace, o.short, connections, setups, cfg.warm)
}

// liveHeapMB returns the heap in use after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
