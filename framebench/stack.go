package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/hotcache"
	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/proto"
	"repro/internal/retrieval"
	"repro/internal/stats"
	"repro/internal/workload"
)

const sceneName = proto.DefaultSceneName

// setupTimes splits one set-up into its parts, in seconds.
type setupTimes struct {
	dataset, index, serve float64
}

func (s setupTimes) total() float64 { return s.dataset + s.index + s.serve }

// stack is one serving process: the scene, the protocol server on a
// loopback listener and, for gateway workloads, a cluster gateway in
// front of it. It is configured as cmd/server -shards 4 -hot-cache
// -coalesce (plus -store=paged -scrub-interval for the city) and
// cmd/gateway with its default probing.
type stack struct {
	cfg   *config
	st    *stats.Stats
	scene *engine.Scene
	srv   *proto.Server
	lis   net.Listener
	gw    *cluster.Gateway
	glis  net.Listener

	dataset *workload.Dataset // in-memory scenes
	paged   *index.PagedStore // city
	segFile *os.File          // the traced city's segment, opened by hand
	segPath string
	stop    func() // scrubber
	serving sync.WaitGroup

	times setupTimes
}

// backendAddr is where direct sessions dial.
func (s *stack) backendAddr() string { return s.lis.Addr().String() }

// gatewayAddr is where sessions through the gateway dial.
func (s *stack) gatewayAddr() string { return s.glis.Addr().String() }

// addr is where the workload's own sessions dial.
func (s *stack) addr() string {
	if s.cfg.gateway {
		return s.gatewayAddr()
	}
	return s.backendAddr()
}

// buildStack sets up the serving stack for cfg. With a nil
// tracer it takes the production path, engine.Registry.Build; with a
// tracer the scene is assembled from its parts so that the tracer's
// wrappers sit at every public seam. withGateway starts a gateway even
// for direct workloads (the traced run's gateway/direct phases).
func buildStack(cfg *config, dir string, tr *tracer, withGateway bool) (_ *stack, err error) {
	s := &stack{cfg: cfg, st: stats.New(), stop: func() {}}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	reg := engine.NewRegistry()
	t0 := time.Now()
	var src index.CoefficientSource
	levels := cfg.levels
	if cfg.paged() {
		spec := cfg.city
		spec.Seed = sceneSeed
		s.segPath = filepath.Join(dir, fmt.Sprintf("city-%d-%d.seg", os.Getpid(), time.Now().UnixNano()))
		if err := workload.BuildCitySegment(s.segPath, spec, 0); err != nil {
			return nil, fmt.Errorf("city segment: %w", err)
		}
		t1 := time.Now()
		s.times.dataset = t1.Sub(t0).Seconds()
		t0 = t1
		if err := s.openPaged(tr); err != nil {
			return nil, err
		}
		src, levels = s.paged, s.paged.Levels()
	} else {
		s.dataset = workload.Generate(workload.Spec{
			NumObjects: cfg.objects, Levels: cfg.levels,
			Placement: workload.Uniform, Seed: sceneSeed, DropFinals: true,
		})
		t1 := time.Now()
		s.times.dataset = t1.Sub(t0).Seconds()
		t0 = t1
		src = s.dataset.Store
	}
	if tr == nil {
		s.scene, err = reg.Build(engine.SceneConfig{
			Name: sceneName, Dataset: s.dataset, Source: src, Levels: levels,
			Shards: cfg.shards, Stats: s.st,
		})
	} else {
		s.scene, err = tr.buildScene(reg, src, levels, cfg.shards, s.st)
	}
	if err != nil {
		return nil, fmt.Errorf("scene: %w", err)
	}
	reg.EnableHotCache(hotcache.Config{}, s.st)
	reg.EnableCoalescer(retrieval.CoalescerConfig{}, s.st)
	if s.scene.Server.HotCache() == nil || s.scene.Server.Coalescer() == nil {
		return nil, fmt.Errorf("scene: hot cache or coalescer declined by the index")
	}
	if cfg.paged() {
		var v engine.PageVerifier = s.paged
		if tr != nil {
			v = &timedVerifier{ps: s.paged, tr: tr}
		}
		s.stop = engine.StartScrubber(v, cfg.scrubEvery, s.st, logf)
	}
	t1 := time.Now()
	s.times.index = t1.Sub(t0).Seconds()
	t0 = t1

	s.srv = proto.NewMultiServer(reg, logf)
	s.srv.SetStats(s.st)
	s.srv.SetLimits(0, 2*time.Minute, 30*time.Second)
	s.srv.SetResumeCache(1024, 2*time.Minute)
	s.srv.SetDrainTimeout(5 * time.Second)
	if s.lis, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	lis := s.lis
	if tr != nil {
		lis = &tracedListener{Listener: s.lis, tr: tr}
	}
	s.serve(func() error { return s.srv.Serve(lis) })
	if cfg.gateway || withGateway {
		top := &cluster.Topology{
			Order:    []string{sceneName},
			Replicas: map[string][]string{sceneName: {s.backendAddr()}},
		}
		s.gw, err = cluster.NewGateway(cluster.GatewayConfig{
			Topology: top, Stats: s.st, Logf: logf,
			ProbeEvery: 2 * time.Second, ProbeTimeout: 2 * time.Second,
			FailAfter: 2, DialTimeout: 2 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		if s.glis, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		s.serve(func() error { return s.gw.Serve(s.glis) })
	}
	s.times.serve = time.Since(t0).Seconds()
	return s, nil
}

// openPaged opens the city segment with a page cache of
// 1/pageDivisor of its payload: through index.OpenPaged in production,
// through a timed io.ReaderAt under persist.NewSegment when traced.
func (s *stack) openPaged(tr *tracer) error {
	var seg *persist.Segment
	var err error
	if tr == nil {
		seg, err = persist.OpenSegment(s.segPath)
	} else {
		if s.segFile, err = os.Open(s.segPath); err != nil {
			return err
		}
		var fi os.FileInfo
		if fi, err = s.segFile.Stat(); err != nil {
			return err
		}
		seg, err = persist.NewSegment(&timedReaderAt{r: s.segFile, tr: tr}, fi.Size())
	}
	if err != nil {
		return fmt.Errorf("open segment: %w", err)
	}
	payload := seg.NumRecords() * index.CoeffRecordSize
	cfg := index.PagedConfig{CacheBytes: payload / s.cfg.pageDivisor}
	if tr == nil {
		seg.Close()
		s.paged, err = index.OpenPaged(s.segPath, cfg)
	} else {
		s.paged, err = index.NewPagedSegment(seg, cfg)
	}
	return err
}

// serve runs an accept loop until close closes its listener.
func (s *stack) serve(loop func() error) {
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		if err := loop(); err != nil {
			logf("serve: %v", err)
		}
	}()
}

// close stops everything the stack started and waits for it. The
// listeners are closed here as well as by the servers' Close, which
// misses an accept loop that has not started yet.
func (s *stack) close() {
	if s.glis != nil {
		s.glis.Close()
	}
	if s.gw != nil {
		s.gw.Close()
	}
	if s.lis != nil {
		s.lis.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	s.serving.Wait()
	s.stop()
	if s.paged != nil {
		s.paged.Close()
	}
	if s.segFile != nil {
		s.segFile.Close()
	}
	if s.segPath != "" {
		os.Remove(s.segPath)
	}
}

// logf reports server-side diagnostics on standard error; the result
// line goes to standard output.
var logMu sync.Mutex

func logf(format string, args ...any) {
	logMu.Lock()
	defer logMu.Unlock()
	fmt.Fprintf(os.Stderr, "stack: "+format+"\n", args...)
}
