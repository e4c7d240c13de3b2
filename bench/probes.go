package main

import (
	"bytes"
	"net/http"
	"os"
	"runtime"
	"time"

	"lccs"
	"lccs/internal/server"
	"lccs/internal/wal"
)

// probeLayers is the traced run. It measures every layer of the
// repository from outside, on the workload's own inputs: the static query
// path stage by stage, the server in process, the log, the dynamic index
// and the daemon. A layer the workload's end-to-end run does not drive is
// probed on the first rows of its data, so every workload reports every
// layer at its own vector shape.
func (r *run) probeLayers() error {
	ix, err := r.ledger()
	if err != nil {
		return err
	}
	t0 := time.Now()
	nq := min(r.spec.truthQ, len(r.queries))
	truth := bruteForce(r.data, nil, r.queries[:nq], r.spec.k)
	r.set("bench.truth_s", Metric{Value: time.Since(t0).Seconds()})
	r.recall(ix, truth, func(id int) []float32 { return r.data[id] })
	if err := r.checkExhaustive(); err != nil {
		return err
	}

	sv, err := r.probeServer(ix, r.windowDur()/8)
	if err != nil {
		return err
	}
	r.set("server.handler_us", sv.handler)
	r.set("server.overhead_us", Metric{Value: sv.handler.Value - sv.search.Value, N: sv.handler.N})
	// Allocation counts include the probe's own http.Request per call.
	r.set("server.allocs_per_req", Metric{Value: sv.allocs, N: serverAllocOps})
	r.set("server.bytes_per_req", Metric{Value: sv.bytes, N: serverAllocOps})
	r.set("server.req_bytes", Metric{Value: sv.reqBytes})
	r.set("server.resp_bytes", Metric{Value: sv.respBytes})
	if err := r.probeWAL(); err != nil {
		return err
	}
	if err := r.probeDynamic(); err != nil {
		return err
	}
	rows := r.data
	if r.spec.kind != "serve" {
		// The mini daemon serves fewer rows than ix holds, so the handler
		// time its transport share is taken against is measured again,
		// over the same rows.
		rows = r.data[:r.spec.probeN]
		mini, err := lccs.NewIndex(rows, r.daemonConfig())
		if err != nil {
			return err
		}
		if sv, err = r.probeServer(mini, r.windowDur()/16); err != nil {
			return err
		}
	}
	if err := r.probeServe(rows, sv.handler.Value); err != nil {
		return err
	}
	return nil
}

// sink is the ResponseWriter of the in-process server probe: it counts
// what the handler writes and keeps nothing.
type sink struct {
	header http.Header
	status int
	bytes  int
}

func (s *sink) Header() http.Header         { return s.header }
func (s *sink) WriteHeader(code int)        { s.status = code }
func (s *sink) Write(b []byte) (int, error) { s.bytes += len(b); return len(b), nil }

// serverStats is what probeServer measured: µs per /v1/search in the
// handler and per SearchInto on the same backend, allocations and bytes
// allocated per request, and the mean request and reply sizes.
type serverStats struct {
	handler, search     Metric
	allocs, bytes       float64
	reqBytes, respBytes float64
}

const serverAllocOps = 500

// probeServer calls the server's handler in process — no socket, no
// client — over backend. What the handler adds to the backend's own
// SearchInto, which takes turns with it on the same queries, is the server
// layer's overhead: JSON decode and encode, admission, accounting.
func (r *run) probeServer(backend lccs.Searcher, atLeast time.Duration) (serverStats, error) {
	srv, err := server.New(server.Config{Backend: backend})
	if err != nil {
		return serverStats{}, err
	}
	h := srv.Handler()
	queries := r.queries[:max(1, len(r.queries)/4)]
	bodies := make(map[*float32][]byte, len(queries))
	reqBytes := 0
	for _, q := range queries {
		bodies[&q[0]] = queryBody(q, r.spec.k)
		reqBytes += len(bodies[&q[0]])
	}
	w := &sink{header: http.Header{}}
	var calls, bad int64
	serve := func(q []float32) {
		req, _ := http.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(bodies[&q[0]]))
		w.status = http.StatusOK
		h.ServeHTTP(w, req)
		calls++
		if w.status != http.StatusOK {
			bad++
		}
	}
	var dst []lccs.Neighbor
	took := interleave(queries, atLeast, serve, func(q []float32) { dst, _ = backend.SearchInto(q, r.spec.k, dst) })
	st := serverStats{handler: blockMean(took[0]), search: blockMean(took[1]),
		reqBytes: float64(reqBytes) / float64(len(queries)), respBytes: float64(w.bytes) / float64(calls)}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < serverAllocOps; i++ {
		serve(queries[i%len(queries)])
	}
	runtime.ReadMemStats(&after)
	st.allocs = float64(after.Mallocs-before.Mallocs) / serverAllocOps
	st.bytes = float64(after.TotalAlloc-before.TotalAlloc) / serverAllocOps
	r.res.Attempted += calls
	r.failN(bad, "in-process server: %d searches did not answer 200", bad)
	return st, nil
}

// probeWAL times acknowledged appends of one insert record of the
// workload's dimension, with an fsync per acknowledgement and with none.
func (r *run) probeWAL() error {
	appendUs := func(policy wal.SyncPolicy, n int) (Metric, error) {
		dir, err := r.env.tempDir("wal")
		if err != nil {
			return Metric{}, err
		}
		log, err := wal.Open(dir, wal.Options{Policy: policy})
		if err != nil {
			return Metric{}, err
		}
		var took []float64
		for i := 0; i < n; i++ {
			t := time.Now()
			lsn, err := log.Append(wal.Record{Op: wal.OpInsert, ID: int64(i), Vec: r.inserts[i%len(r.inserts)]})
			if err == nil {
				err = log.WaitDurable(lsn)
			}
			if err != nil {
				log.Close()
				return Metric{}, err
			}
			took = append(took, us(time.Since(t)))
		}
		return medianMetric(took, ""), log.Close()
	}
	sync, err := appendUs(wal.SyncAlways, 200)
	if err != nil {
		return err
	}
	nosync, err := appendUs(wal.SyncNone, 5000)
	if err != nil {
		return err
	}
	r.set("wal.append_sync_us", sync)
	r.set("wal.append_nosync_us", nosync)
	return nil
}

// probeServe is the traced view of the daemon: what a request costs
// beyond the handler (one connection, so nothing queues), what the engine
// counts per query, what a write costs and journals, how long a crashed
// daemon takes to come back, and what recovery replays.
func (r *run) probeServe(rows [][]float32, handlerUs float64) error {
	sp := r.spec
	const syncPolicy = "always"
	d, dir, prep, boot, err := r.setupServe(rows, syncPolicy)
	if err != nil {
		return err
	}
	defer func() {
		d.kill()
		os.RemoveAll(dir)
	}()
	r.set("lccs.durable_prepare_s", Metric{Value: prep, N: len(rows)})
	r.set("lccs-serve.boot_s", Metric{Value: boot})
	c := newConn(d.base)
	defer c.close()
	if err := r.checkPrepared(c, len(rows)); err != nil {
		return err
	}

	var u0, uAlone, u1 usageReply
	var s0, s1 statsReply
	const usagePath = "/v1/collections/default/usage"
	if err := c.getJSON(usagePath, &u0); err != nil {
		return err
	}
	alone := r.drive(d, rows, 1, 0, r.windowDur()/8, "alone")
	st := summarize(alone.all, alone.searches, r.windowDur()/8)
	transport := st.p50
	r.set("server.transport_us", Metric{Value: transport.Value - handlerUs, N: transport.N})
	if sp.kind == "serve" {
		r.set("search_p99_us", st.p99)
	}

	// The workload's own mix where it writes; elsewhere a burst of writes
	// after the searches, so that every workload reports a write's cost.
	if err := c.getJSON(usagePath, &uAlone); err != nil {
		return err
	}
	if err := c.getJSON("/v1/stats", &s0); err != nil {
		return err
	}
	conns, frac, mixWrites := 1, 1.0, 0
	if sp.writeFrac > 0 {
		conns, frac = sp.conns, sp.writeFrac
	}
	mix := r.drive(d, rows, conns, frac, r.windowDur()/4, "mix")
	if sp.writeFrac > 0 {
		for _, w := range mix.writes {
			mixWrites += len(w.latNs)
		}
	}
	if err := c.getJSON(usagePath, &u1); err != nil {
		return err
	}
	if err := c.getJSON("/v1/stats", &s1); err != nil {
		return err
	}
	if s0.WAL == nil || s1.WAL == nil {
		r.fail("/v1/stats of a durable daemon has no wal section")
		s0.WAL, s1.WAL = new(walStats), new(walStats)
	}
	// Per query: over the searches of the mix where the workload writes,
	// over the searches alone elsewhere.
	from, to := u0.Cumulative, uAlone.Cumulative
	if sp.writeFrac > 0 {
		from, to = uAlone.Cumulative, u1.Cumulative
	}
	searches := float64(to.Searches - from.Searches)
	writes := float64(u1.Cumulative.Inserts - u0.Cumulative.Inserts + u1.Cumulative.Deletes - u0.Cumulative.Deletes)
	r.set("engine.comparisons_per_query", Metric{Value: float64(to.Comparisons-from.Comparisons) / searches, N: int(searches)})
	r.set("engine.candidates_per_query", Metric{Value: float64(to.Candidates-from.Candidates) / searches, N: int(searches)})
	r.set("engine.scan_bytes_per_query", Metric{Value: float64(to.BytesScanned-from.BytesScanned) / searches, N: int(searches)})
	r.set("engine.wal_bytes_per_write", Metric{Value: float64(u1.Cumulative.WALBytes-u0.Cumulative.WALBytes) / writes, N: int(writes)})
	fsyncs := float64(s1.WAL.Fsyncs - s0.WAL.Fsyncs)
	r.set("wal.fsyncs_per_write", Metric{Value: fsyncs / writes, N: int(writes)})
	r.set("wal.fsync_mean_us", Metric{Value: (s1.WAL.MeanFsync*float64(s1.WAL.Fsyncs) - s0.WAL.MeanFsync*float64(s0.WAL.Fsyncs)) / fsyncs, N: int(fsyncs)})
	r.set("server.rejected", Metric{Value: float64(s1.Rejected)})
	r.set("serve.mix_writes", Metric{Value: float64(mixWrites)})
	wr := summarize(mix.writes, mix.writes, r.windowDur()/4)
	r.set("write_p50_us", wr.p50)
	r.set("write_p99_us", Metric{Value: wr.p99.Value, N: wr.p50.N})

	last, recovery, err := r.crashCycles(d, dir, syncPolicy, max(1, sp.crashes), conns, mix.inserted, mix.deleted)
	if err != nil {
		return err
	}
	d = last
	r.set("recovery_s", medianMetric(recovery, ""))

	// What recovery does, seen from inside: the crashed directory opened
	// through the library, then a few journaled adds.
	d.kill()
	t0 := time.Now()
	dur, err := lccs.OpenDurable(dir, lccs.DurableConfig{Config: r.daemonConfig()})
	if err != nil {
		return err
	}
	r.set("lccs.durable_recover_s", Metric{Value: time.Since(t0).Seconds()})
	r.set("lccs.durable_replay_records", Metric{Value: float64(dur.Recovery().Records)})
	r.res.Attempted++
	if got := int(dur.Recovery().Records); got != len(mix.inserted)+len(mix.deleted) {
		r.fail("recovery replayed %d records, %d writes were acknowledged", got, len(mix.inserted)+len(mix.deleted))
	}
	var addUs []float64
	for i := 0; i < 100; i++ {
		t := time.Now()
		if _, err := dur.Add(r.inserts[len(r.inserts)-1-i]); err != nil {
			dur.Close()
			return err
		}
		addUs = append(addUs, us(time.Since(t)))
	}
	r.set("lccs.durable_add_us", medianMetric(addUs, ""))
	return dur.Close()
}
