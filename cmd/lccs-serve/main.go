// Command lccs-serve puts an LCCS-LSH index behind a network endpoint: a
// long-lived daemon that serves the HTTP/JSON API of internal/server —
// /v1/search, /v1/search/batch, /v1/insert, /v1/delete, /v1/collections,
// the two stats documents /v1/stats (the process) and
// /v1/collections/{name}/usage (one collection), /v1/debug/slow,
// /healthz, /metrics — with bounded concurrency, an LRU result cache, and
// graceful shutdown.
//
// Usage:
//
//	mkdir -p /var/lib/lccs && \
//	lccs-serve -data /var/lib/lccs -sync always          # writable data dir
//	lccs-serve -data /var/lib/lccs -bootstrap sift.ds    # seed a fresh dir
//	lccs-serve -data sift.ds -metric euclidean -m 64 -addr :8080
//	lccs-serve -data snap.ds -index snap.lccs            # prebuilt, read-only
//
// When -data names a DIRECTORY, every write is durable. The directory is
// the collection registry's root (internal/engine): it holds the default
// collection — a manifest, snapshot container and write-ahead log, see
// lccs.OpenDurable — and each created collection under collections/.
// Boot recovers the previous state (the recovery summary is logged),
// /v1/insert and /v1/delete acknowledge only after the write is durable
// per -sync, and every loaded collection is checkpointed on a timer, when
// its WAL outgrows -checkpoint-wal-mb, and on graceful shutdown. A
// SIGKILLed daemon restarts with every acknowledged write intact.
// -bootstrap seeds a fresh directory's default collection from a dataset
// file, as one index shard.
//
// When -data names a dataset FILE, the daemon serves it read-only with no
// disk footprint: one index built over the file's vectors, or with -index,
// a prebuilt index container over them, under the configuration the
// container carries (-m, -lambda and -seed are refused beside -index).
// Writes and collection creates answer 501.
//
// Observability: the daemon logs structured key=value (or JSON with
// -log-format json) records through log/slog; -trace-sample traces a
// fraction of searches into the per-stage span histograms and the
// /v1/debug/slow reservoir; -slow-threshold captures slow queries
// there too; -debug-addr serves net/http/pprof on a separate listener
// so profiling endpoints are never exposed on the public port.
//
// Memory: once loaded, the daemon runs the collector at GOGC=25 unless
// GOGC is set in its environment, and returns what the load left over to
// the OS, so its resident set stays close to 1.25 times its live heap.
//
// On SIGINT or SIGTERM the daemon flips /healthz to 503, drains
// in-flight requests, stops the checkpoint timer, and checkpoints and
// closes every loaded collection. A second signal forces immediate exit.
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
	"runtime/debug"
	"syscall"
	"time"

	"lccs"
	"lccs/internal/dataset"
	"lccs/internal/engine"
	"lccs/internal/server"
)

// version is stamped at build time via -ldflags "-X main.version=...".
var version = "dev"

// serveGCPercent is the daemon's GOGC once its collections are loaded.
const serveGCPercent = 25

// logger is the process-wide structured logger, configured from
// -log-level and -log-format right after flag parsing.
var logger *slog.Logger

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		dataPath  = flag.String("data", "", "data directory (writable, durable), or a dataset file (read-only) (required)")
		indexPath = flag.String("index", "", "file mode: load a prebuilt index container, under its own m, λ and seed, instead of building")
		metric    = flag.String("metric", "euclidean", "euclidean | angular | hamming | jaccard")
		m         = flag.Int("m", 64, "hash-string length (larger m: higher recall per candidate, more memory)")
		lambda    = flag.Int("lambda", 100, "default candidate budget per query (larger λ: higher recall, more time)")
		seed      = flag.Uint64("seed", 1, "random seed")
		rebuildAt = flag.Int("rebuild-at", 0, "delta size that triggers a background shard build (0 = default)")

		maxInFlight  = flag.Int("max-inflight", 0, "concurrent searches (0 = GOMAXPROCS)")
		collInFlight = flag.Int("coll-max-inflight", 0, "per-collection concurrent requests before 503 (0 = no per-collection cap)")
		maxQueue     = flag.Int("max-queue", 0, "requests waiting for a slot before 503 (0 = 4x max-inflight, negative = no waiting)")
		timeout      = flag.Duration("timeout", 2*time.Second, "per-request admission deadline")
		cacheSize    = flag.Int("cache", 4096, "result cache entries, keyed on the exact request and the index's write generation, which moves whenever an answer can change (0 disables)")
		maxBody      = flag.Int64("max-body", 0, "request body cap in bytes (0 = 32 MiB)")

		syncPolicy = flag.String("sync", "always", "WAL sync policy: always | interval | none (none: acks survive a process kill but NOT an OS crash)")
		syncEvery  = flag.Duration("sync-interval", 50*time.Millisecond, "fsync period for -sync interval")
		walSegMB   = flag.Int64("wal-segment-mb", 64, "WAL segment size before rotation")
		ckptEvery  = flag.Duration("checkpoint-interval", 5*time.Minute, "checkpoint every collection at least this often (0 disables the timer)")
		ckptWALMB  = flag.Int64("checkpoint-wal-mb", 256, "checkpoint a collection when its WAL exceeds this size (0 disables the size trigger)")
		bootstrap  = flag.String("bootstrap", "", "seed a fresh data dir's default collection from this dataset file (ignored once data exists)")
		drainWait  = flag.Duration("drain", 10*time.Second, "graceful shutdown deadline")
		drainDelay = flag.Duration("drain-delay", 0, "window between /healthz going 503 and the listener closing; set to ≥ your load balancer's probe interval")

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

	var (
		backend lccs.Searcher  // file mode: the read-only index
		eng     *engine.Engine // data-dir mode: the registry, default collection included
		vectors int
	)
	if fi, err := os.Stat(*dataPath); err == nil && fi.IsDir() {
		// The data dir is the default collection; collections created over
		// the API live under <data>/collections/<name>/. Both take the
		// daemon's flags as their spec, unless a create request overrides
		// them.
		eng, err = engine.New(*dataPath, engine.Spec{
			Metric: *metric, M: *m, Budget: *lambda, Seed: *seed, RebuildAt: *rebuildAt,
			Sync: *syncPolicy, SyncIntervalMS: int(syncEvery.Milliseconds()),
			SegmentBytes: *walSegMB << 20,
		}, logger)
		if err != nil {
			fatal(err)
		}
		def, err := eng.Get(engine.DefaultCollection)
		if err != nil {
			fatal(err)
		}
		if *bootstrap != "" {
			if err := bootstrapFrom(def.Dynamic(), *bootstrap, kind); err != nil {
				fatal(fmt.Errorf("bootstrap: %w", err))
			}
			def.Serving().ClaimWAL(def.Dynamic().WALStats().AppendedBytes) // the seed's journal bytes are no request's
		}
		if *indexPath != "" {
			logger.Warn("-index ignored with a data dir")
		}
		vectors = def.Backend().Len()
	} else {
		if *indexPath != "" {
			// The container carries its own resolved configuration, so a
			// flag that would set it cannot apply: refuse it rather than
			// serve a configuration the operator did not ask for.
			flag.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "m", "lambda", "seed":
					fmt.Fprintf(os.Stderr, "lccs-serve: -%s cannot be set with -index: the container carries its own configuration\n", f.Name)
					os.Exit(2)
				}
			})
		}
		ds, err := dataset.Load(*dataPath)
		if err != nil {
			fatal(err)
		}
		if kind == lccs.Angular {
			ds = ds.NormalizedCopy()
		}
		cfg := lccs.Config{Metric: kind, M: *m, Budget: *lambda, Seed: *seed}
		if backend, err = buildBackend(ds, cfg, *indexPath); err != nil {
			fatal(err)
		}
		vectors = backend.Len()
	}
	// The load is done. Besides the index it left garbage the collector may
	// or may not have reached, and at the default GOGC the heap grows to
	// twice the index before the next collection: a resident set that
	// depends on where the collector stands. Collect at 25 % growth
	// instead (a GOGC in the environment still wins) and hand the load's
	// scratch back to the OS. The index is flat blocks without pointers,
	// which a collection does not scan, so collecting more often costs
	// little.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(serveGCPercent)
	}
	debug.FreeOSMemory()

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
		logger.Info("listening", "addr", *addr, "vectors", vectors, "metric", string(kind),
			"version", version, "trace_sample", *traceSample, "slow_threshold", *slowThresh)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			done <- err
			return
		}
		done <- nil
	}()

	// Collections checkpoint in the background: on a timer and when a WAL
	// outgrows its budget, so neither recovery-replay time nor the data
	// directory grows unboundedly under steady churn.
	stopCheckpoints := func() {}
	if eng != nil {
		stopCheckpoints = startCheckpoints(eng, *ckptEvery, *ckptWALMB<<20)
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
	// listener closes — then connections drain, then the checkpoint timer
	// stops and every collection is checkpointed and closed.
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
	stopCheckpoints()
	if eng != nil {
		if err := drain(eng); err != nil {
			fatal(err)
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

// bootstrapFrom ingests a dataset file into a fresh default collection
// through the durable write path, compacts it into one shard and
// checkpoints, so the directory starts with an indexed, snapshotted
// corpus, an empty WAL and a shard layout that does not depend on
// background-build timing. A directory that already holds data is left
// alone.
func bootstrapFrom(dur *lccs.DynamicIndex, path string, kind lccs.MetricKind) error {
	if rec := dur.Recovery(); dur.Len() > 0 || rec.Records > 0 || rec.SnapshotVectors > 0 {
		logger.Warn("-bootstrap ignored: data dir already holds data", "dir", dur.Dir())
		return nil
	}
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
	if err := dur.Rebuild(); err != nil {
		return err
	}
	if err := checkpoint(dur, "bootstrap"); err != nil {
		return err
	}
	logger.Info("bootstrapped", "vectors", len(ds.Data), "path", path,
		"took", time.Since(start).Round(time.Millisecond))
	return nil
}

// startCheckpoints runs checkpointLoop in the background and returns its
// stop: once stop returns, no checkpoint is in flight and none starts.
func startCheckpoints(eng *engine.Engine, every time.Duration, walBytes int64) (stop func()) {
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		checkpointLoop(eng, every, walBytes, quit)
	}()
	return func() {
		close(quit)
		<-exited
	}
}

// checkpointLoop runs periodic and WAL-size-triggered checkpoints over
// every loaded durable collection until stop closes. Collections opened
// mid-flight (lazily or via the create API) join the sweep on the next
// tick.
func checkpointLoop(eng *engine.Engine, every time.Duration, walBytes int64, stop <-chan struct{}) {
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
			ran := false
			for _, c := range eng.Loaded() {
				d := c.Dynamic()
				if d == nil {
					continue
				}
				st := d.WALStats()
				oversize := walBytes > 0 && st.Bytes >= walBytes
				if st.Depth == 0 || (!due && !oversize) {
					continue
				}
				reason := "interval " + c.Name()
				if oversize {
					reason = fmt.Sprintf("wal size %dMB %s", st.Bytes>>20, c.Name())
				}
				if err := checkpoint(d, reason); err != nil {
					logger.Error("checkpoint failed", "collection", c.Name(), "err", err)
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

// drain checkpoints every loaded durable collection, so the next boot
// replays empty logs, and closes the registry.
func drain(eng *engine.Engine) error {
	var errs []error
	for _, c := range eng.Loaded() {
		if d := c.Dynamic(); d != nil {
			d.WaitRebuild()
			if err := checkpoint(d, "drain "+c.Name()); err != nil {
				errs = append(errs, fmt.Errorf("drain checkpoint %s: %w", c.Name(), err))
			}
		}
	}
	return errors.Join(append(errs, eng.Close())...)
}

// checkpoint runs one checkpoint and logs its outcome (phase timings
// are logged by the library through the injected logger).
func checkpoint(dur *lccs.DynamicIndex, reason string) error {
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

// buildBackend builds or loads the read-only index a dataset file is
// served through: one index built over the file's vectors, or the
// prebuilt container at indexPath over them.
func buildBackend(ds *dataset.Dataset, cfg lccs.Config, indexPath string) (lccs.Searcher, error) {
	start := time.Now()
	if indexPath != "" {
		// Warm start stays flat: the dataset's contiguous block feeds the
		// container decode directly, no per-row re-packing.
		flat, err := ds.FlatData()
		if err != nil {
			return nil, err
		}
		ix, err := lccs.LoadStore(indexPath, flat)
		if err != nil {
			return nil, err
		}
		logger.Info("loaded index", "path", indexPath, "shards", ix.Shards(), "vectors", ix.Len(),
			"took", time.Since(start).Round(time.Millisecond))
		return ix, nil
	}
	ix, err := lccs.NewIndex(ds.Data, cfg)
	if err != nil {
		return nil, err
	}
	logger.Info("built index", "vectors", ix.Len(),
		"took", time.Since(start).Round(time.Millisecond))
	return ix, nil
}

func fatal(err error) {
	if logger != nil {
		logger.Error("exiting", "err", err)
	} else {
		fmt.Fprintln(os.Stderr, "lccs-serve:", err)
	}
	os.Exit(1)
}
