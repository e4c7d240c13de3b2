// Command lccs-serve puts an LCCS-LSH index behind a network endpoint: a
// long-lived daemon that loads (or builds) an index over a dataset file
// and serves the HTTP/JSON API of internal/server — /v1/search,
// /v1/search/batch, /v1/insert, /v1/delete, /v1/stats, /v1/debug/slow,
// /healthz, /metrics — with bounded concurrency, an LRU result cache,
// and graceful shutdown.
//
// Usage:
//
//	lccs-serve -data sift.ds -metric euclidean -m 64 -shards 0 -addr :8080
//	lccs-serve -data sift.ds -dynamic -snapshot snap.lccs -snapshot-data snap.ds
//	lccs-serve -data snap.ds -index snap.lccs            # warm start, read-only
//	lccs-serve -data snap.ds -index snap.lccs -dynamic \
//	           -snapshot snap.lccs                       # warm start, writable
//	mkdir -p /var/lib/lccs && \
//	lccs-serve -data /var/lib/lccs -sync always          # durable data dir
//
// Backend selection: when -data names a DIRECTORY, the daemon runs in
// durable mode — the directory holds a manifest, snapshot container,
// and write-ahead log (see lccs.OpenDurable); boot recovers the
// previous state (the recovery summary is logged), /v1/insert and
// /v1/delete acknowledge only after the write is durable per -sync,
// and the index is checkpointed on a timer, when the WAL outgrows
// -checkpoint-wal-mb, and on graceful shutdown. A SIGKILLed durable
// daemon restarts with every acknowledged write intact.
//
// When -data names a dataset FILE, the pre-PR5 modes apply: -index
// loads a prebuilt index container (read-only, or writable with
// -dynamic); -dynamic alone builds a DynamicIndex (writes are held only
// in memory until the shutdown snapshot — use a durable data dir when
// acknowledged writes must survive a crash); otherwise a ShardedIndex
// is built with -shards shards.
//
// Observability: the daemon logs structured key=value (or JSON with
// -log-format json) records through log/slog; -trace-sample traces a
// fraction of searches into the per-stage span histograms and the
// /v1/debug/slow reservoir; -slow-threshold captures slow queries
// there too; -debug-addr serves net/http/pprof on a separate listener
// so profiling endpoints are never exposed on the public port.
//
// On SIGINT or SIGTERM the daemon flips /healthz to 503, drains
// in-flight requests, waits for any background delta build, and
// persists: durable mode checkpoints (snapshot + WAL truncation), the
// file modes honor -snapshot. A second signal forces immediate exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"lccs"
	"lccs/internal/dataset"
	"lccs/internal/engine"
	"lccs/internal/server"
)

// version is stamped at build time via -ldflags "-X main.version=...".
var version = "dev"

// logger is the process-wide structured logger, configured from
// -log-level and -log-format right after flag parsing.
var logger *slog.Logger

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		dataPath  = flag.String("data", "", "dataset file, or a directory for durable mode (required)")
		indexPath = flag.String("index", "", "load a prebuilt index container instead of building (file mode)")
		metric    = flag.String("metric", "euclidean", "euclidean | angular | hamming | jaccard")
		m         = flag.Int("m", 64, "hash-string length (larger m: higher recall per candidate, more memory)")
		lambda    = flag.Int("lambda", 100, "default candidate budget per query (larger λ: higher recall, more time)")
		seed      = flag.Uint64("seed", 1, "random seed")
		shards    = flag.Int("shards", 0, "shard count for the sharded backend (0 = GOMAXPROCS)")
		dynamic   = flag.Bool("dynamic", false, "serve a DynamicIndex backend (enables /v1/insert)")
		rebuildAt = flag.Int("rebuild-at", 0, "dynamic delta size that triggers a background shard build (0 = default)")
		quantize  = flag.String("quantize", "", "scan-time vector compression: sq8 (euclidean/angular only; exact re-rank keeps distances exact; costs n·d bytes and pays off only at high dimensionality, see docs/PERFORMANCE.md)")
		rerank    = flag.Int("rerank", 0, "quantized-scan survivors re-ranked with exact distances per query (0 = default)")

		maxInFlight  = flag.Int("max-inflight", 0, "concurrent searches (0 = GOMAXPROCS)")
		collInFlight = flag.Int("coll-max-inflight", 0, "per-collection concurrent requests before 503 (0 = no per-collection cap)")
		maxQueue     = flag.Int("max-queue", 0, "requests waiting for a slot before 503 (0 = 4x max-inflight, negative = no waiting)")
		timeout      = flag.Duration("timeout", 2*time.Second, "per-request admission deadline")
		cacheSize    = flag.Int("cache", 4096, "result cache entries, keyed on the exact request (0 disables)")
		maxBody      = flag.Int64("max-body", 0, "request body cap in bytes (0 = 32 MiB)")

		syncPolicy  = flag.String("sync", "always", "durable mode WAL sync policy: always | interval | none (none: acks survive a process kill but NOT an OS crash)")
		syncEvery   = flag.Duration("sync-interval", 50*time.Millisecond, "fsync period for -sync interval")
		walSegMB    = flag.Int64("wal-segment-mb", 64, "durable mode WAL segment size before rotation")
		ckptEvery   = flag.Duration("checkpoint-interval", 5*time.Minute, "durable mode: checkpoint at least this often (0 disables the timer)")
		ckptWALMB   = flag.Int64("checkpoint-wal-mb", 256, "durable mode: checkpoint when the WAL exceeds this size (0 disables the size trigger)")
		bootstrap   = flag.String("bootstrap", "", "durable mode: seed a fresh data dir from this dataset file (ignored once data exists)")
		snapPath    = flag.String("snapshot", "", "file mode: on shutdown, save the dynamic index here")
		snapDataPth = flag.String("snapshot-data", "", "file mode: on shutdown, save the snapshot's vectors here (default: <snapshot>.ds)")
		drainWait   = flag.Duration("drain", 10*time.Second, "graceful shutdown deadline")
		drainDelay  = flag.Duration("drain-delay", 0, "window between /healthz going 503 and the listener closing; set to ≥ your load balancer's probe interval")

		logLevel    = flag.String("log-level", "info", "minimum log level: debug | info | warn | error")
		logFormat   = flag.String("log-format", "text", "log encoding: text | json")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty disables)")
		traceSample = flag.Float64("trace-sample", 0, "fraction of searches traced into per-stage spans (0 = only explicit \"trace\":true requests)")
		slowThresh  = flag.Duration("slow-threshold", 250*time.Millisecond, "capture searches at or above this latency in /v1/debug/slow (0 disables)")
		slowLogSize = flag.Int("slow-log", 64, "slow-query ring capacity (0 = default 64)")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Printf("lccs-serve %s (%s)\n", version, runtime.Version())
		return
	}
	var err error
	logger, err = buildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lccs-serve:", err)
		os.Exit(2)
	}
	if *dataPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	kind, err := lccs.ParseMetric(*metric)
	if err != nil {
		fatal(err)
	}
	cfg := lccs.Config{Metric: kind, M: *m, Budget: *lambda, Seed: *seed,
		Quantize: *quantize, Rerank: *rerank}

	var (
		backend lccs.Searcher
		dyn     *lccs.DynamicIndex // file-mode lifecycle handle
		dur     *lccs.DurableIndex // durable-mode lifecycle handle
		eng     *engine.Engine     // collection registry (rooted in durable mode)
		ds      *dataset.Dataset   // file-mode dataset (snapshot output needs it)
	)
	if fi, err := os.Stat(*dataPath); err == nil && fi.IsDir() {
		dur, err = openDurable(*dataPath, cfg, *syncPolicy, *syncEvery, *walSegMB, *rebuildAt, *bootstrap)
		if err != nil {
			fatal(err)
		}
		backend = dur
		// Collections created over the API live under
		// <data>/collections/<name>/, each with its own WAL and
		// snapshot; the root data dir itself stays the "default"
		// collection. New collections inherit the daemon's flags unless
		// their create request overrides them.
		eng, err = engine.New(*dataPath, engine.Spec{
			Metric: *metric, M: *m, Budget: *lambda, Seed: *seed,
			Quantize: *quantize, Rerank: *rerank, RebuildAt: *rebuildAt,
			Sync: *syncPolicy, SyncIntervalMS: int(syncEvery.Milliseconds()),
			SegmentBytes: *walSegMB << 20,
		}, logger)
		if err != nil {
			fatal(err)
		}
		if *indexPath != "" || *snapPath != "" || *dynamic {
			logger.Warn("file-mode flags ignored with a durable data dir", "flags", "-index/-snapshot/-dynamic")
		}
	} else {
		ds, err = dataset.Load(*dataPath)
		if err != nil {
			fatal(err)
		}
		if kind == lccs.Angular {
			ds = ds.NormalizedCopy()
		}
		backend, dyn, err = buildBackend(ds, cfg, *indexPath, *dynamic, *shards, *rebuildAt)
		if err != nil {
			fatal(err)
		}
		if *snapPath != "" && dyn == nil {
			logger.Warn("-snapshot is only honored with -dynamic; ignoring")
		}
	}

	srv, err := server.New(server.Config{
		Backend:               backend,
		Engine:                eng,
		CollectionMaxInFlight: *collInFlight,
		MaxInFlight:           *maxInFlight,
		MaxQueue:              *maxQueue,
		Timeout:               *timeout,
		CacheSize:             *cacheSize,
		MaxBodyBytes:          *maxBody,
		TraceSample:           *traceSample,
		SlowThreshold:         *slowThresh,
		SlowLogSize:           *slowLogSize,
		Version:               version,
		Logger:                logger,
	})
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// The pprof endpoints live on their own listener so profiling is
	// never reachable through the public port; the mux is explicit to
	// avoid hanging handlers off http.DefaultServeMux.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func(addr string) {
			logger.Info("pprof listening", "addr", addr)
			if err := http.ListenAndServe(addr, dmux); err != nil {
				logger.Error("pprof listener failed", "addr", addr, "err", err)
			}
		}(*debugAddr)
	}

	done := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "vectors", backend.Len(), "metric", string(kind),
			"version", version, "trace_sample", *traceSample, "slow_threshold", *slowThresh)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			done <- err
			return
		}
		done <- nil
	}()

	// Durable mode checkpoints in the background: on a timer and when
	// the WAL outgrows its budget, so neither recovery-replay time nor
	// the data directory grows unboundedly under steady churn.
	stopCkpt := make(chan struct{})
	if dur != nil {
		go checkpointLoop(dur, eng, *ckptEvery, *ckptWALMB<<20, stopCkpt)
	}

	// SIGINT and SIGTERM get the same graceful drain; a second signal
	// forces exit for operators who cannot wait out the drain.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		fatal(err) // listener died before any signal
	case got := <-sig:
		logger.Info("draining; send the signal again to force exit", "signal", got.String())
		go func() {
			s := <-sig
			logger.Warn("forcing exit", "signal", s.String())
			os.Exit(1)
		}()
	}

	// Graceful shutdown: readiness drops first — and stays observable
	// for -drain-delay so load balancers can route away before the
	// listener closes — then connections drain, then the dynamic state
	// is quiesced and persisted.
	srv.SetDraining(true)
	if *drainDelay > 0 {
		time.Sleep(*drainDelay)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Error("shutdown", "err", err)
	}
	if err := <-done; err != nil {
		logger.Error("serve", "err", err)
	}
	close(stopCkpt)
	switch {
	case dur != nil:
		// Checkpoint every API-created collection before the registry
		// closes them, so their next boot replays an empty WAL too.
		if eng != nil {
			for _, c := range eng.Loaded() {
				cd := c.Durable()
				if cd == nil || c.Adopted() {
					continue
				}
				cd.WaitRebuild()
				if err := checkpoint(cd, "drain "+c.Name()); err != nil {
					logger.Error("drain checkpoint", "collection", c.Name(), "err", err)
				}
			}
			if err := eng.Close(); err != nil {
				logger.Error("closing collections", "err", err)
			}
		}
		dur.WaitRebuild()
		if err := checkpoint(dur, "drain"); err != nil {
			fatal(fmt.Errorf("drain checkpoint: %w", err))
		}
		if err := dur.Close(); err != nil {
			fatal(fmt.Errorf("close: %w", err))
		}
	case dyn != nil:
		dyn.WaitRebuild()
		if *snapPath != "" {
			if err := snapshot(dyn, ds, *snapPath, *snapDataPth); err != nil {
				fatal(fmt.Errorf("snapshot: %w", err))
			}
		}
	}
	logger.Info("bye")
}

// buildLogger assembles the process logger from the -log-level and
// -log-format flags.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: want debug | info | warn | error", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	switch format {
	case "text":
		h = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	default:
		return nil, fmt.Errorf("bad -log-format %q: want text | json", format)
	}
	return slog.New(h), nil
}

// openDurable opens the durable data directory (recovery details are
// logged by the library through the injected logger) and seeds a fresh
// directory from -bootstrap when given.
func openDurable(dir string, cfg lccs.Config, policy string, syncEvery time.Duration, segMB int64, rebuildAt int, bootstrap string) (*lccs.DurableIndex, error) {
	sp, err := lccs.ParseSyncPolicy(policy)
	if err != nil {
		return nil, err
	}
	dur, err := lccs.OpenDurable(dir, lccs.DurableConfig{
		Config:       cfg,
		Sync:         sp,
		SyncInterval: syncEvery,
		SegmentBytes: segMB << 20,
		RebuildAt:    rebuildAt,
		Logger:       logger,
	})
	if err != nil {
		return nil, err
	}
	if bootstrap != "" {
		rec := dur.Recovery()
		if dur.Len() > 0 || rec.Records > 0 || rec.SnapshotVectors > 0 {
			logger.Warn("-bootstrap ignored: data dir already holds data", "dir", dir)
			return dur, nil
		}
		if err := seed(dur, bootstrap, cfg.Metric); err != nil {
			dur.Close()
			return nil, fmt.Errorf("bootstrap: %w", err)
		}
	}
	return dur, nil
}

// seed ingests a dataset file through the durable write path and
// checkpoints, so a fresh data directory starts with an indexed,
// snapshotted corpus and an empty WAL.
func seed(dur *lccs.DurableIndex, path string, kind lccs.MetricKind) error {
	ds, err := dataset.Load(path)
	if err != nil {
		return err
	}
	if kind == lccs.Angular {
		ds = ds.NormalizedCopy()
	}
	start := time.Now()
	const chunk = 4096
	for lo := 0; lo < len(ds.Data); lo += chunk {
		hi := min(lo+chunk, len(ds.Data))
		if _, err := dur.AddBatch(ds.Data[lo:hi]); err != nil {
			return err
		}
	}
	dur.WaitRebuild()
	if err := checkpoint(dur, "bootstrap"); err != nil {
		return err
	}
	logger.Info("bootstrapped", "vectors", len(ds.Data), "path", path,
		"took", time.Since(start).Round(time.Millisecond))
	return nil
}

// checkpointLoop runs periodic and WAL-size-triggered checkpoints over
// the root durable index and every loaded durable collection until stop
// closes. Collections opened mid-flight (lazily or via the create API)
// join the sweep on the next tick.
func checkpointLoop(dur *lccs.DurableIndex, eng *engine.Engine, every time.Duration, walBytes int64, stop <-chan struct{}) {
	poll := 10 * time.Second
	if every > 0 && every < poll {
		poll = every
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	last := time.Now()
	for {
		select {
		case <-t.C:
			due := every > 0 && time.Since(last) >= every
			type target struct {
				d    *lccs.DurableIndex
				name string
			}
			targets := []target{{dur, "default"}}
			if eng != nil {
				for _, c := range eng.Loaded() {
					if cd := c.Durable(); cd != nil && !c.Adopted() {
						targets = append(targets, target{cd, c.Name()})
					}
				}
			}
			ran := false
			for _, tg := range targets {
				st := tg.d.WALStats()
				oversize := walBytes > 0 && st.Bytes >= walBytes
				if st.Depth == 0 || (!due && !oversize) {
					continue
				}
				reason := "interval " + tg.name
				if oversize {
					reason = fmt.Sprintf("wal size %dMB %s", st.Bytes>>20, tg.name)
				}
				if err := checkpoint(tg.d, reason); err != nil {
					logger.Error("checkpoint failed", "collection", tg.name, "err", err)
				}
				ran = true
			}
			if ran {
				last = time.Now()
			}
		case <-stop:
			return
		}
	}
}

// checkpoint runs one checkpoint and logs its outcome (phase timings
// are logged by the library through the injected logger).
func checkpoint(dur *lccs.DurableIndex, reason string) error {
	info, err := dur.Checkpoint()
	if err != nil {
		return err
	}
	switch {
	case info.Skipped:
		logger.Info("checkpoint skipped: nothing new to capture", "reason", reason)
	case info.Container == "":
		logger.Info("checkpoint: index empty, id watermark persisted", "reason", reason,
			"generation", info.Generation, "lsn", info.LSN, "took", info.Took.Round(time.Millisecond))
	default:
		logger.Info("checkpoint", "reason", reason, "generation", info.Generation,
			"live", info.Live, "tombstones", info.Tombstones, "container", info.Container,
			"lsn", info.LSN, "took", info.Took.Round(time.Millisecond))
	}
	return nil
}

// buildBackend selects and constructs the index facade behind the
// server in file mode. It returns the backend and, when dynamic, the
// concrete DynamicIndex for lifecycle calls (WaitRebuild, Snapshot).
func buildBackend(ds *dataset.Dataset, cfg lccs.Config, indexPath string, dynamic bool, shards, rebuildAt int) (lccs.Searcher, *lccs.DynamicIndex, error) {
	switch {
	case indexPath != "":
		start := time.Now()
		// Warm start stays flat: the dataset's contiguous block feeds the
		// container decode directly, no per-row re-packing.
		flat, err := ds.FlatData()
		if err != nil {
			return nil, nil, err
		}
		sx, err := lccs.LoadShardedStore(indexPath, flat)
		if err != nil {
			return nil, nil, err
		}
		logger.Info("loaded index", "path", indexPath, "shards", sx.Shards(), "vectors", sx.Len(),
			"took", time.Since(start).Round(time.Millisecond))
		if dynamic {
			// Keep a warm restart writable: the loaded shards become the
			// dynamic main, so snapshot → restart → insert keeps working
			// across any number of cycles.
			dyn, err := lccs.NewDynamicIndexFromShardedStore(sx, rebuildAt)
			if err != nil {
				return nil, nil, err
			}
			return dyn, dyn, nil
		}
		return sx, nil, nil
	case dynamic:
		start := time.Now()
		dyn, err := lccs.NewDynamicIndex(ds.Data, cfg, rebuildAt)
		if err != nil {
			return nil, nil, err
		}
		logger.Info("built dynamic index", "vectors", dyn.Len(),
			"took", time.Since(start).Round(time.Millisecond))
		return dyn, dyn, nil
	default:
		start := time.Now()
		sx, err := lccs.NewShardedIndex(ds.Data, cfg, shards)
		if err != nil {
			return nil, nil, err
		}
		logger.Info("built sharded index", "shards", sx.Shards(), "vectors", sx.Len(),
			"took", time.Since(start).Round(time.Millisecond))
		return sx, nil, nil
	}
}

// snapshot persists the dynamic index (existing shards plus a shard
// built over the buffer) and all its vectors, so a warm restart via
// -data <snapDataPath> -index <snapPath> preserves every insert — and
// every delete: Snapshot compacts buffered tombstones away, and Save
// writes the id map plus remaining tombstones into the container's
// lifecycle section whenever deletion state exists.
func snapshot(dyn *lccs.DynamicIndex, ds *dataset.Dataset, snapPath, snapDataPath string) error {
	if snapDataPath == "" {
		snapDataPath = snapPath + ".ds"
	}
	vectors, sx, err := dyn.Snapshot()
	if err != nil {
		return err
	}
	if err := sx.Save(snapPath); err != nil {
		return err
	}
	out := &dataset.Dataset{
		Name:    ds.Name,
		Kind:    ds.Kind,
		Dim:     ds.Dim,
		Data:    vectors,
		Queries: ds.Queries,
	}
	if err := out.Save(snapDataPath); err != nil {
		return err
	}
	logger.Info("snapshot saved", "live", sx.Len(), "tombstones", sx.Deleted(),
		"shards", sx.Shards(), "index", snapPath, "data", snapDataPath)
	return nil
}

func fatal(err error) {
	if logger != nil {
		logger.Error("exiting", "err", err)
	} else {
		fmt.Fprintln(os.Stderr, "lccs-serve:", err)
	}
	os.Exit(1)
}
