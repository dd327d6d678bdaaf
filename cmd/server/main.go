// Command server runs the motion-aware 3D object retrieval server over
// TCP: it generates a reproducible city dataset, indexes it with a
// sharded support-region (x, y, w) R*-tree, and serves continuous window
// queries with per-client duplicate filtering using the binary protocol
// in internal/proto. Additional named scenes can be served from saved
// dataset files; clients bind to one with a scene-select frame.
//
// With -data-dir the server is crash-safe: scenes are checkpointed to
// the directory (atomically, on a -checkpoint-interval cadence and at
// shutdown), interrupted sessions are mirrored into a durable journal,
// and a restart restores both — checkpointed scenes are served again and
// journaled sessions resume where they left off.
//
// Usage:
//
//	server [-addr :7333] [-advertise host:port] [-objects 100] [-levels 5] [-zipf] [-seed 1]
//	       [-shards 1] [-scene default] [-scenes name=file,name2=file2]
//	       [-store mem|paged] [-page-cache-bytes N] [-verify-pages] [-scrub-interval 10m]
//	       [-city N] [-city-lots 3] [-city-levels 3]
//	       [-data-dir dir] [-checkpoint-interval 1m]
//	       [-stats 30s] [-stats-dump] [-workers 0] [-max-sessions 0]
//	       [-idle-timeout 2m] [-frame-timeout 30s] [-drain-timeout 5s]
//	       [-resume-cache 1024] [-resume-ttl 2m]
//	       [-hot-cache] [-coalesce] [-pprof-addr localhost:6060]
package main

import (
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // side profiling listener, gated by -pprof-addr
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/hotcache"
	"repro/internal/index"
	"repro/internal/proto"
	"repro/internal/retrieval"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", ":7333", "listen address")
		advertise = flag.String("advertise", "", "address cluster gateways and controllers should reach this server at (default: the listen address)")
		objects   = flag.Int("objects", 100, "number of 3D objects")
		levels    = flag.Int("levels", 5, "subdivision levels per object")
		zipf      = flag.Bool("zipf", false, "Zipfian object placement")
		seed      = flag.Int64("seed", 1, "dataset seed")
		save      = flag.String("save", "", "write the generated dataset to this file and continue")
		load      = flag.String("load", "", "serve a previously saved dataset instead of generating")
		shards    = flag.Int("shards", 1, "grid shards per scene index (1 = single shard)")
		scene     = flag.String("scene", proto.DefaultSceneName, "name of the primary scene")
		scenes    = flag.String("scenes", "", "extra scenes as comma-separated name=file pairs")
		workers   = flag.Int("workers", 0, "per-request sub-query parallelism (0 = auto, 1 = serial)")

		dataDir      = flag.String("data-dir", "", "durable state directory (scene checkpoints + session journal); empty disables persistence")
		ckptInterval = flag.Duration("checkpoint-interval", time.Minute, "how often scenes are checkpointed into -data-dir")

		storeKind   = flag.String("store", "mem", "coefficient store: mem (resident) or paged (out-of-core segment in -data-dir)")
		pageCache   = flag.Int64("page-cache-bytes", 64<<20, "paged store's resident-page budget in bytes")
		verifyPages = flag.Bool("verify-pages", false, "scrub every paged-store page against its CRC at boot; corrupt pages are quarantined and logged")
		scrubEvery  = flag.Duration("scrub-interval", 0, "background scrub cadence for the paged store (0 disables); each pass re-verifies every page and converges quarantine state with the disk")
		city        = flag.Int("city", 0, "serve a deterministic city of N×N blocks instead of the scatter dataset (0 = off)")
		cityLots    = flag.Int("city-lots", 3, "buildings per block side in the -city grid")
		cityLevels  = flag.Int("city-levels", 3, "subdivision levels per -city building")

		hotCache  = flag.Bool("hot-cache", false, "enable the per-scene hot-region result cache")
		coalesce  = flag.Bool("coalesce", false, "enable per-scene query coalescing: a session asking a sub-query identical to one still being searched waits for that search instead of running its own (finished results are remembered only by -hot-cache)")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this side listener (empty disables)")

		maxSessions  = flag.Int("max-sessions", 0, "shed connections beyond this many concurrent sessions (0 = unlimited)")
		idleTimeout  = flag.Duration("idle-timeout", 2*time.Minute, "disconnect a session silent for this long (0 disables)")
		frameTimeout = flag.Duration("frame-timeout", 30*time.Second, "per-frame read/write deadline (0 disables)")
		drainTimeout = flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown drain bound")
		resumeCache  = flag.Int("resume-cache", 1024, "dropped sessions kept resumable per scene (0 disables resumption)")
		resumeTTL    = flag.Duration("resume-ttl", 2*time.Minute, "how long a dropped session stays resumable")
	)
	statsFlags := stats.RegisterFlags(flag.CommandLine, 0)
	flag.Parse()

	switch *storeKind {
	case "mem", "paged":
	default:
		log.Fatalf("bad -store %q (want mem or paged)", *storeKind)
	}
	if *storeKind == "paged" && *dataDir == "" {
		log.Fatalf("-store=paged needs -data-dir to hold the segment file")
	}

	reg := engine.NewRegistry()
	// The paged store, when one is opened below, doubles as the target of
	// the -scrub-interval background scrubber.
	var pagedStore engine.PageVerifier

	// With a data directory, checkpoints take precedence: a restart
	// serves exactly what the dying process had checkpointed, and the
	// generation flags only apply to a first (empty-directory) boot.
	restored := 0
	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			log.Fatalf("data-dir: %v", err)
		}
		var err error
		restored, err = reg.LoadAll(*dataDir, stats.Default)
		if err != nil {
			log.Fatalf("data-dir: %v", err)
		}
	}
	if restored > 0 {
		log.Printf("restored %d scene(s) from %s", restored, *dataDir)
		if *workers > 0 {
			for _, name := range reg.Names() {
				if sc, ok := reg.Get(name); ok {
					sc.Server.SetParallelism(*workers)
				}
			}
		}
	} else if *storeKind == "paged" {
		// Out-of-core boot: coefficients live in a paged segment under
		// -data-dir; only the index, metadata, and resident pages stay in
		// memory. An existing segment is served as-is; otherwise it is
		// built once — streamed, never materialized — and then opened.
		segPath := filepath.Join(*dataDir, "scene-"+*scene+".seg")
		if _, err := os.Stat(segPath); os.IsNotExist(err) {
			if *city > 0 {
				wspec := workload.CitySpec{
					BlocksX: *city, BlocksY: *city,
					LotsPerBlock: *cityLots, Levels: *cityLevels, Seed: *seed,
				}
				log.Printf("building %v into %s...", wspec, segPath)
				if err := workload.BuildCitySegment(segPath, wspec, 0); err != nil {
					log.Fatalf("city segment: %v", err)
				}
			} else {
				placement := workload.Uniform
				if *zipf {
					placement = workload.Zipf
				}
				log.Printf("generating %d objects at %d levels into %s...", *objects, *levels, segPath)
				d := workload.Generate(workload.Spec{
					NumObjects: *objects,
					Levels:     *levels,
					Placement:  placement,
					Seed:       *seed,
					DropFinals: true,
				})
				if err := index.BuildSegment(segPath, d.Store, *levels, 0); err != nil {
					log.Fatalf("segment: %v", err)
				}
			}
		} else if err != nil {
			log.Fatalf("segment: %v", err)
		}
		ps, err := index.OpenPaged(segPath, index.PagedConfig{CacheBytes: *pageCache})
		if err != nil {
			log.Fatalf("open segment: %v", err)
		}
		pagedStore = ps
		if *verifyPages {
			// Boot-time scrub: every page is read and CRC-checked before
			// the scene goes live. Corrupt pages are quarantined — the
			// server still boots and serves the healthy pages, withholding
			// coefficients on the bad ones until a later scrub sees them
			// read clean.
			log.Printf("verifying %d pages of %s...", ps.Segment().NumPages(), segPath)
			bad, err := ps.VerifyPages()
			if err != nil {
				log.Fatalf("verify-pages: %v", err)
			}
			if len(bad) > 0 {
				log.Printf("verify-pages: WARNING: %d corrupt page(s) quarantined: %v — their coefficients will be withheld until the segment is repaired", len(bad), bad)
			} else {
				log.Printf("verify-pages: all %d pages clean", ps.Segment().NumPages())
			}
		}
		sc, err := reg.Build(engine.SceneConfig{
			Name:   *scene,
			Source: ps,
			Levels: ps.Levels(),
			Shards: *shards,
			Stats:  stats.Default,
		})
		if err != nil {
			log.Fatalf("scene %q: %v", *scene, err)
		}
		if *workers > 0 {
			sc.Server.SetParallelism(*workers)
		}
		pst := ps.PagerStats()
		log.Printf("scene %q: %s over %d coefficients, paged (%d B payload, %d B cache)",
			*scene, sc.Index.Name(), ps.NumCoeffs(), ps.NumCoeffs()*index.CoeffRecordSize, pst.CacheBytes)
	} else if *city > 0 {
		// A city held fully resident — the oracle configuration the paged
		// store is validated against, and the small-city default.
		wspec := workload.CitySpec{
			BlocksX: *city, BlocksY: *city,
			LotsPerBlock: *cityLots, Levels: *cityLevels, Seed: *seed,
		}
		log.Printf("generating %v...", wspec)
		st := workload.GenerateCity(wspec)
		sc, err := reg.Build(engine.SceneConfig{
			Name:   *scene,
			Source: st,
			Levels: *cityLevels,
			Shards: *shards,
			Stats:  stats.Default,
		})
		if err != nil {
			log.Fatalf("scene %q: %v", *scene, err)
		}
		if *workers > 0 {
			sc.Server.SetParallelism(*workers)
		}
		log.Printf("scene %q: %s over %d coefficients (resident)", *scene, sc.Index.Name(), st.NumCoeffs())
	} else {
		var d *workload.Dataset
		if *load != "" {
			log.Printf("loading dataset from %s...", *load)
			var err error
			d, err = workload.LoadFile(*load, false)
			if err != nil {
				log.Fatalf("load: %v", err)
			}
		} else {
			placement := workload.Uniform
			if *zipf {
				placement = workload.Zipf
			}
			log.Printf("generating %d objects at %d levels (%v placement)...",
				*objects, *levels, placement)
			d = workload.Generate(workload.Spec{
				NumObjects: *objects,
				Levels:     *levels,
				Placement:  placement,
				Seed:       *seed,
				DropFinals: true,
			})
			if *save != "" {
				if err := d.SaveFile(*save); err != nil {
					log.Fatalf("save: %v", err)
				}
				log.Printf("saved dataset to %s", *save)
			}
		}
		log.Printf("dataset ready: %v", d)

		build := func(name string, d *workload.Dataset) *engine.Scene {
			sc, err := reg.Build(engine.SceneConfig{
				Name:    name,
				Dataset: d,
				Levels:  d.Spec.Levels,
				Shards:  *shards,
				Stats:   stats.Default,
			})
			if err != nil {
				log.Fatalf("scene %q: %v", name, err)
			}
			if *workers > 0 {
				sc.Server.SetParallelism(*workers)
			}
			log.Printf("scene %q: %s over %d coefficients", name, sc.Index.Name(), d.Store.NumCoeffs())
			return sc
		}
		build(*scene, d)
		if *scenes != "" {
			for _, pair := range strings.Split(*scenes, ",") {
				name, file, ok := strings.Cut(strings.TrimSpace(pair), "=")
				if !ok || name == "" || file == "" {
					log.Fatalf("bad -scenes entry %q (want name=file)", pair)
				}
				log.Printf("loading scene %q from %s...", name, file)
				sd, err := workload.LoadFile(file, false)
				if err != nil {
					log.Fatalf("scene %q: %v", name, err)
				}
				build(name, sd)
			}
		}
	}

	if *hotCache {
		reg.EnableHotCache(hotcache.Config{}, stats.Default)
		log.Printf("hot-region result cache enabled for %d scene(s)", reg.Len())
	}
	if *coalesce {
		reg.EnableCoalescer(retrieval.CoalescerConfig{}, stats.Default)
		log.Printf("query coalescing enabled for %d scene(s)", reg.Len())
	}
	stopScrub := func() {}
	if *scrubEvery > 0 {
		if pagedStore == nil {
			log.Printf("scrub-interval: WARNING: no paged store to scrub (use -store=paged); ignoring")
		} else {
			stopScrub = engine.StartScrubber(pagedStore, *scrubEvery, stats.Default, log.Printf)
			log.Printf("background page scrub every %v", *scrubEvery)
		}
	}
	if *pprofAddr != "" {
		// Side listener only: the serving port never exposes profiling.
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
	}

	// The advertised address is what a cluster topology names this
	// backend as; behind NAT or a bind-all listen address it differs
	// from -addr.
	if *advertise != "" {
		reg.SetAdvertise(*advertise)
	} else {
		reg.SetAdvertise(*addr)
	}

	srv := proto.NewMultiServer(reg, log.Printf)
	srv.SetStats(stats.Default)
	srv.SetLimits(*maxSessions, *idleTimeout, *frameTimeout)
	srv.SetResumeCache(*resumeCache, *resumeTTL)
	srv.SetDrainTimeout(*drainTimeout)

	// Durability: an immediate first checkpoint, the periodic
	// checkpointer, and the session journal — opened (recovering any torn
	// tail), attached to the resume caches, and replayed so sessions
	// parked by the previous incarnation resume across this restart.
	var jr *engine.SessionJournal
	var ckpt *engine.Checkpointer
	if *dataDir != "" {
		if err := reg.SaveAll(*dataDir, stats.Default); err != nil {
			log.Fatalf("checkpoint: %v", err)
		}
		var err error
		jr, err = engine.OpenSessionJournal(filepath.Join(*dataDir, engine.SessionJournalFile), 0, stats.Default)
		if err != nil {
			log.Fatalf("session journal: %v", err)
		}
		reg.SetSessionJournal(jr)
		if n := jr.Restore(reg); n > 0 {
			log.Printf("restored %d resumable session(s) from the journal", n)
		}
		ckpt = reg.StartCheckpointer(*dataDir, *ckptInterval, stats.Default, log.Printf)
		log.Printf("durable state in %s (checkpoint every %v)", *dataDir, *ckptInterval)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("received %v; shutting down", s)
		srv.Close()
	}()

	stop := statsFlags.Start(stats.Default, log.Printf)
	defer stop()
	log.Printf("serving %d scene(s) %v on %s", reg.Len(), reg.Names(), *addr)
	if err := srv.ListenAndServe(*addr); err != nil {
		log.Fatal(err)
	}
	stopScrub() // halt the ticker and wait out any in-flight pass
	if ckpt != nil {
		ckpt.Stop() // final checkpoint
	}
	if jr != nil {
		jr.Close()
	}
	log.Printf("shutdown complete")
}
