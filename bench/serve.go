package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"lccs"
)

// env is where a run may write and which daemon binary it drives.
type env struct {
	serveBin string
	workDir  string

	mu      sync.Mutex
	daemons []*daemon
	dirs    int
}

// tempDir makes a fresh directory under the run's work directory.
func (e *env) tempDir(prefix string) (string, error) {
	e.mu.Lock()
	e.dirs++
	dir := filepath.Join(e.workDir, fmt.Sprintf("%s-%d", prefix, e.dirs))
	e.mu.Unlock()
	return dir, os.MkdirAll(dir, 0o755)
}

// cleanup kills every daemon still running, waits for it, and removes the
// work directory.
func (e *env) cleanup() {
	e.mu.Lock()
	ds := e.daemons
	e.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
	os.RemoveAll(e.workDir)
}

// daemon is one lccs-serve child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	once   sync.Once
}

// kill is kill -9 and a wait: no drain, no shutdown checkpoint.
func (d *daemon) kill() {
	d.once.Do(func() { d.cmd.Process.Signal(syscall.SIGKILL) })
	<-d.exited
}

// rssMB reads the child's resident set size.
func (d *daemon) rssMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// boot starts lccs-serve over a durable directory with the daemon's
// default index flags, the result cache and the checkpoint timer off, and
// returns once /healthz answers 200, with the time that took.
func (e *env) boot(dir, syncPolicy string) (*daemon, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	logFile, err := os.OpenFile(filepath.Join(dir, "..", filepath.Base(dir)+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logFile.Close()
	start := time.Now()
	cmd := exec.Command(e.serveBin, "-addr", addr, "-data", dir, "-m", "64", "-lambda", "100",
		"-cache", "0", "-checkpoint-interval", "0", "-sync", syncPolicy, "-log-level", "warn")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	e.mu.Lock()
	e.daemons = append(e.daemons, d)
	e.mu.Unlock()
	hc := &http.Client{Timeout: time.Second}
	for time.Since(start) < 60*time.Second {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("lccs-serve exited during boot, see %s", logFile.Name())
		default:
		}
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.kill()
	return nil, 0, errors.New("lccs-serve not healthy after 60 s")
}

// prepare fills a durable directory through the library so that the
// daemon boots into a known state: every row in exactly one shard, nothing
// buffered, an empty log. (Letting the daemon bootstrap itself leaves a
// shard layout that depends on background-build timing.)
func (r *run) prepare(dir string, rows [][]float32) error {
	dur, err := lccs.OpenDurable(dir, lccs.DurableConfig{Config: r.daemonConfig(), RebuildAt: len(rows) + 1})
	if err != nil {
		return err
	}
	const chunk = 4096
	for lo := 0; lo < len(rows); lo += chunk {
		if _, err := dur.AddBatch(rows[lo:min(lo+chunk, len(rows))]); err != nil {
			dur.Close()
			return err
		}
	}
	if err := dur.Rebuild(); err != nil {
		dur.Close()
		return err
	}
	if _, err := dur.Checkpoint(); err != nil {
		dur.Close()
		return err
	}
	return dur.Close()
}

// daemonConfig is config with the daemon's flag defaults for the
// hash-string length and the budget.
func (r *run) daemonConfig() lccs.Config {
	cfg := r.config()
	cfg.M, cfg.Budget = 64, 100
	return cfg
}

// conn is one keep-alive connection to the daemon.
type conn struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply into c.buf. The returned
// duration runs from just before the send to the last byte of the reply.
func (c *conn) do(method, path string, body []byte) (int, time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(t0), err
}

func (c *conn) getJSON(path string, out any) error {
	status, _, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, status)
	}
	return json.Unmarshal(c.buf.Bytes(), out)
}

type searchReply struct {
	Neighbors []struct {
		ID   int     `json:"id"`
		Dist float64 `json:"dist"`
	} `json:"neighbors"`
}

// search posts one pre-marshalled query and decodes the reply into dst.
func (c *conn) search(body []byte, dst []lccs.Neighbor) ([]lccs.Neighbor, time.Duration, error) {
	status, took, err := c.do(http.MethodPost, "/v1/search", body)
	if err != nil {
		return dst[:0], took, err
	}
	if status != http.StatusOK {
		return dst[:0], took, fmt.Errorf("search: status %d: %s", status, c.buf.Bytes())
	}
	var rep searchReply
	if err := json.Unmarshal(c.buf.Bytes(), &rep); err != nil {
		return dst[:0], took, err
	}
	dst = dst[:0]
	for _, nb := range rep.Neighbors {
		dst = append(dst, lccs.Neighbor{ID: nb.ID, Dist: nb.Dist})
	}
	return dst, took, nil
}

// insert posts one vector and returns the id the daemon acknowledged.
func (c *conn) insert(v []float32) (int, time.Duration, error) {
	body, _ := json.Marshal(map[string]any{"vectors": [][]float32{v}})
	status, took, err := c.do(http.MethodPost, "/v1/insert", body)
	if err != nil {
		return 0, took, err
	}
	var rep struct {
		IDs []int `json:"ids"`
	}
	if err := json.Unmarshal(c.buf.Bytes(), &rep); err != nil || status != http.StatusOK || len(rep.IDs) != 1 {
		return 0, took, fmt.Errorf("insert: status %d: %s", status, c.buf.Bytes())
	}
	return rep.IDs[0], took, nil
}

// remove posts one delete and fails unless exactly that id was deleted.
func (c *conn) remove(id int) (time.Duration, error) {
	body, _ := json.Marshal(map[string]any{"id": id})
	status, took, err := c.do(http.MethodPost, "/v1/delete", body)
	if err != nil {
		return took, err
	}
	var rep struct {
		Deleted int `json:"deleted"`
	}
	if err := json.Unmarshal(c.buf.Bytes(), &rep); err != nil || status != http.StatusOK || rep.Deleted != 1 {
		return took, fmt.Errorf("delete %d: status %d: %s", id, status, c.buf.Bytes())
	}
	return took, nil
}

// SearchInto lets the recall check drive the daemon like a library index.
func (c *conn) SearchInto(q []float32, k int, dst []lccs.Neighbor) ([]lccs.Neighbor, error) {
	dst, _, err := c.search(queryBody(q, k), dst)
	return dst, err
}

func queryBody(q []float32, k int) []byte {
	b, _ := json.Marshal(map[string]any{"query": q, "k": k})
	return b
}

// statsReply is the part of /v1/stats the benchmark reads.
type statsReply struct {
	Rejected uint64 `json:"admission_rejected"`
	Backend  struct {
		Vectors, Shards, Buffered, Tombstones int
	} `json:"backend"`
	WAL *walStats `json:"wal"`
}

type walStats struct {
	Fsyncs    uint64  `json:"fsyncs"`
	MeanFsync float64 `json:"mean_fsync_us"`
}

// usageReply is the part of /v1/collections/default/usage it reads.
type usageReply struct {
	Cumulative struct {
		Searches     int64 `json:"searches"`
		Inserts      int64 `json:"inserts"`
		Deletes      int64 `json:"deletes"`
		Comparisons  int64 `json:"comparisons"`
		Candidates   int64 `json:"candidates"`
		BytesScanned int64 `json:"bytes_scanned"`
		WALBytes     int64 `json:"wal_bytes"`
	} `json:"cumulative"`
}

// ack is one write the daemon acknowledged.
type ack struct {
	id  int
	vec []float32 // the inserted vector, or the deleted row
	src int       // which of the run's inserts, or of its victims, this was
}

// traffic is what the clients of one timed phase saw.
type traffic struct {
	all, searches, writes []*samples
	inserted, deleted     []ack
	failed                int64
}

// drive runs the workload's closed loop: one goroutine per connection,
// each following its own seeded schedule of searches, single-vector
// inserts and deletes, for the window after a warm-up of searches. Inserts
// come from rows held back for them and deletes hit indexed rows, each
// connection its own share, so the final state does not depend on how the
// connections interleave.
func (r *run) drive(d *daemon, rows [][]float32, conns int, writeFrac float64, window time.Duration, phase string) *traffic {
	sp := r.spec
	bodies := make([][]byte, len(r.queries))
	for i, q := range r.queries {
		bodies[i] = queryBody(q, sp.k)
	}
	victims := newRand(r.seed, sp.name, phase+"/victims").Perm(len(rows))
	tf := &traffic{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := newConn(d.base)
			defer c.close()
			rd := newRand(r.seed, sp.name, fmt.Sprintf("%s/conn%d", phase, g))
			all, searches, writes := &samples{}, &samples{}, &samples{}
			var inserted, deleted []ack
			var failed int64
			var dst []lccs.Neighbor
			search := func(i int) (time.Duration, bool) {
				var err error
				var took time.Duration
				dst, took, err = c.search(bodies[i%len(bodies)], dst)
				return took, err == nil && wellFormed(dst, sp.k)
			}
			i := g * len(bodies) / conns
			for start := time.Now(); time.Since(start) < window/10; i++ {
				search(i)
			}
			nextIns, nextDel := g, g
			start := time.Now()
			for time.Since(start) < window {
				if writeFrac >= 1 && nextIns >= sp.quota && nextDel >= sp.quota {
					break // a pure write burst ends with its quota
				}
				var took time.Duration
				var ok bool
				kind := searches
				x := rd.Float64()
				switch {
				case x < writeFrac/2 && nextIns < sp.quota:
					v := r.inserts[nextIns]
					id, t, err := c.insert(v)
					if took, ok, kind = t, err == nil, writes; ok {
						inserted = append(inserted, ack{id, v, nextIns})
					}
					nextIns += conns
				case x < writeFrac && nextDel < sp.quota:
					id := victims[nextDel]
					t, err := c.remove(id)
					if took, ok, kind = t, err == nil, writes; ok {
						deleted = append(deleted, ack{id, rows[id], nextDel})
					}
					nextDel += conns
				default:
					took, ok = search(i)
					i++
				}
				end := time.Since(start)
				kind.add(end, took)
				all.add(end, took)
				if !ok {
					failed++
				}
			}
			mu.Lock()
			tf.all, tf.searches, tf.writes = append(tf.all, all), append(tf.searches, searches), append(tf.writes, writes)
			tf.inserted, tf.deleted = append(tf.inserted, inserted...), append(tf.deleted, deleted...)
			tf.failed += failed
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	for _, s := range tf.all {
		r.res.Attempted += int64(len(s.latNs))
	}
	r.failN(tf.failed, "%s: %d requests failed or returned a malformed result", phase, tf.failed)
	return tf
}

// topUp sends, untimed, the writes the timed mix did not get to: the
// inserts and deletes of every connection's share up to the quota.
func (r *run) topUp(d *daemon, rows [][]float32, tf *traffic) {
	victims := newRand(r.seed, r.spec.name, "timed/victims").Perm(len(rows))
	inserted, deleted := make([]bool, r.spec.quota), make([]bool, r.spec.quota)
	for _, a := range tf.inserted {
		inserted[a.src] = true
	}
	for _, a := range tf.deleted {
		deleted[a.src] = true
	}
	c := newConn(d.base)
	defer c.close()
	for i := 0; i < r.spec.quota; i++ {
		if !inserted[i] {
			r.res.Attempted++
			if id, _, err := c.insert(r.inserts[i]); err != nil {
				r.fail("top-up: %v", err)
			} else {
				tf.inserted = append(tf.inserted, ack{id, r.inserts[i], i})
			}
		}
		if !deleted[i] {
			r.res.Attempted++
			if _, err := c.remove(victims[i]); err != nil {
				r.fail("top-up: %v", err)
			} else {
				tf.deleted = append(tf.deleted, ack{victims[i], rows[victims[i]], i})
			}
		}
	}
}

// readBack checks durability after a crash: every acknowledged insert is
// found at distance 0 under its id, and no acknowledged delete is found.
func (r *run) readBack(d *daemon, conns int, inserted, deleted []ack) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := newConn(d.base)
			defer c.close()
			var dst []lccs.Neighbor
			check := func(a ack, wantFound bool) {
				var err error
				dst, err = c.SearchInto(a.vec, 1, dst)
				found := err == nil && len(dst) == 1 && dst[0].ID == a.id && dst[0].Dist <= 1e-6
				mu.Lock()
				defer mu.Unlock()
				r.res.Attempted++
				switch {
				case err != nil:
					r.fail("read-back of id %d: %v", a.id, err)
				case wantFound && !found:
					r.fail("acknowledged insert %d lost after a crash", a.id)
				case !wantFound && len(dst) == 1 && dst[0].ID == a.id:
					r.fail("acknowledged delete %d came back after a crash", a.id)
				}
			}
			for i := g; i < len(inserted); i += conns {
				check(inserted[i], true)
			}
			for i := g; i < len(deleted); i += conns {
				check(deleted[i], false)
			}
		}(g)
	}
	wg.Wait()
}

// crashCycles kills the daemon with kill -9, restarts it over the same
// directory — whose log no checkpoint has trimmed — and reads every
// acknowledged write back, n times. It returns the last daemon and the
// times from process start to healthy.
func (r *run) crashCycles(d *daemon, dir, syncPolicy string, n, conns int, inserted, deleted []ack) (*daemon, []float64, error) {
	var recovery []float64
	for i := 0; i < n; i++ {
		d.kill()
		var took time.Duration
		var err error
		if d, took, err = r.env.boot(dir, syncPolicy); err != nil {
			return nil, nil, fmt.Errorf("restart after kill -9: %w", err)
		}
		recovery = append(recovery, took.Seconds())
		r.readBack(d, conns, inserted, deleted)
	}
	return d, recovery, nil
}

// setupServe prepares a fresh durable directory and boots the daemon over
// it, and reports how long each step took.
func (r *run) setupServe(rows [][]float32, syncPolicy string) (d *daemon, dir string, prep, boot float64, err error) {
	if dir, err = r.env.tempDir("data"); err != nil {
		return nil, "", 0, 0, err
	}
	t0 := time.Now()
	if err = r.prepare(dir, rows); err != nil {
		return nil, "", 0, 0, fmt.Errorf("preparing the durable directory: %w", err)
	}
	prep = time.Since(t0).Seconds()
	d, took, err := r.env.boot(dir, syncPolicy)
	return d, dir, prep, took.Seconds(), err
}

// liveTruth scores the daemon's state after the traffic against brute
// force over what must be live: the prepared rows minus acknowledged
// deletes plus acknowledged inserts.
func (r *run) liveTruth(c *conn, rows [][]float32, tf *traffic) (float64, int) {
	all := append([][]float32(nil), rows...)
	byID := map[int][]float32{}
	mask := make([]bool, len(rows), len(rows)+len(tf.inserted))
	for i := range mask {
		mask[i] = true
	}
	for _, a := range tf.deleted {
		mask[a.id] = false
	}
	for _, a := range tf.inserted {
		all, mask = append(all, a.vec), append(mask, true)
		byID[a.id] = a.vec
	}
	nq := min(r.spec.truthQ, len(r.queries))
	t0 := time.Now()
	truth := bruteForce(all, mask, r.queries[:nq], r.spec.k)
	r.set("bench.truth_s", Metric{Value: time.Since(t0).Seconds()})
	rec := r.recall(c, truth, func(id int) []float32 {
		if id >= 0 && id < len(rows) && mask[id] {
			return rows[id]
		}
		return byID[id]
	})
	return rec, nq
}

// checkPrepared asserts the state the daemon booted into.
func (r *run) checkPrepared(c *conn, rows int) error {
	var st statsReply
	if err := c.getJSON("/v1/stats", &st); err != nil {
		return err
	}
	r.res.Attempted++
	if st.Backend.Vectors != rows || st.Backend.Shards != 1 || st.Backend.Buffered != 0 || st.Backend.Tombstones != 0 {
		r.fail("prepared daemon booted with %+v, want %d vectors in 1 shard, nothing buffered or deleted", st.Backend, rows)
	}
	return nil
}

// runServe is the end-to-end run of a serve workload: prepare, boot and
// drive the daemon once per set-up; check and crash the last one.
func (r *run) runServe() error {
	sp := r.spec
	if err := r.checkExhaustive(); err != nil {
		return err
	}
	const syncPolicy = "always"
	var (
		d                     *daemon
		dir                   string
		tf                    *traffic
		setups, rss           []float64
		all, searches, writes []*samples
	)
	// No set-up outlives its share of the run: an idle daemon left resident
	// would be memory pressure the earlier set-ups did not have.
	discard := func() {
		if d != nil {
			d.kill()
			os.RemoveAll(dir)
		}
	}
	defer func() { discard() }()
	share := r.windowDur() / serveSetups
	for rep := 0; rep < serveSetups; rep++ {
		discard()
		var prep, boot float64
		var err error
		if d, dir, prep, boot, err = r.setupServe(r.data, syncPolicy); err != nil {
			return err
		}
		setups = append(setups, prep+boot)
		c := newConn(d.base)
		err = r.checkPrepared(c, len(r.data))
		c.close()
		if err != nil {
			return err
		}
		tf = r.drive(d, r.data, sp.conns, sp.writeFrac, share, "timed")
		for i := range tf.all {
			all = append(all, tf.all[i].shift(time.Duration(rep)*share))
			searches = append(searches, tf.searches[i].shift(time.Duration(rep)*share))
			writes = append(writes, tf.writes[i].shift(time.Duration(rep)*share))
		}
		// Resident memory follows where the daemon's collector stands, so it
		// is read after every share and reported as the median.
		mb, err := d.rssMB()
		if err != nil {
			return err
		}
		rss = append(rss, mb)
	}
	st := summarize(all, searches, share*serveSetups)
	if sp.writeFrac > 0 {
		r.set("write_p50_us", summarize(writes, writes, share*serveSetups).p50)
		r.topUp(d, r.data, tf)
	}
	c := newConn(d.base)
	rec, nq := r.liveTruth(c, r.data, tf)
	c.close()
	if sp.crashes > 0 {
		last, recovery, err := r.crashCycles(d, dir, syncPolicy, sp.crashes, sp.conns, tf.inserted, tf.deleted)
		if err != nil {
			return err
		}
		d = last
		r.set("recovery_s", medianMetric(recovery, ""))
	}
	r.set("setup_s", medianMetric(setups, ""))
	r.set("qps", st.rate)
	r.set("search_p50_us", st.p50)
	r.set("search_p99_us", st.p99)
	r.set("recall_at_10", Metric{Value: rec, N: nq})
	r.set("mem_mb", medianMetric(rss, ""))
	return nil
}
