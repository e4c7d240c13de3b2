// Package conformance is a deterministic crash-recovery conformance
// harness for the durable index. A Scenario describes a seeded schedule
// of inserts, deletes, searches, checkpoints, restarts, and crashes,
// plus a plan of filesystem faults (torn writes, failed fsyncs, ENOSPC,
// crash-at-step) injected through internal/faultfs. The runner executes
// the schedule against a real index opened by lccs.OpenDurable over a
// temp directory and, after every reopen, checks the recovered state
// against a model of the acknowledged history:
//
//   - every acknowledged insert is searchable with its exact vector;
//   - every acknowledged delete stays dead — ids never resurrect;
//   - an id that was ever acknowledged (live or deleted) is never
//     issued again;
//   - unacknowledged writes may vanish or survive, but never corrupt:
//     a surviving unacked insert carries exactly the vector that was
//     submitted, and recovery itself never fails or panics.
//
// The runner is single-threaded and, under the always and none sync
// policies, fully deterministic for a given scenario: the same seed
// yields the same schedule, the same fault firings, and the same
// verdict. The interval policy fsyncs on a timer, so step-indexed
// faults are not used with it (scenarios exercise it with scheduled
// crashes instead).
//
// Crashes are process-kill semantics: everything that reached the
// (inner) filesystem before the kill survives, nothing after it does.
// OS-crash page loss is modeled separately by DropDirty fsync faults,
// which are sound only under the always policy (an acked write there is
// fsynced, so only unacked data can be dropped).
package conformance

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"lccs"
	"lccs/internal/faultfs"
	"lccs/internal/rng"
)

// Weights selects the op mix of a generated schedule; zero values drop
// the op from the schedule entirely.
type Weights struct {
	Insert     int `json:"insert"`
	Delete     int `json:"delete"`
	Search     int `json:"search"`
	Checkpoint int `json:"checkpoint"`
	// Paginate advances a cursor scan one page at a time, holding the
	// continuation token across steps — so a crash or restart lands
	// mid-pagination, and the recovery check asserts the surviving
	// token is rejected by the reopened index.
	Paginate int `json:"paginate"`
	// Crash kills the filesystem mid-run and reopens; Restart closes
	// cleanly and reopens. Both run the full recovery check.
	Crash   int `json:"crash"`
	Restart int `json:"restart"`
}

// FaultSpec is one filesystem fault in a scenario, a JSON-friendly
// mirror of faultfs.Fault. Ops: any, create, write, sync, rename,
// remove, truncate, syncdir. Errs: "" or "injected" (generic I/O
// error), "enospc".
type FaultSpec struct {
	// Open arms the fault after the N-th open of the index (0 = the
	// first). Faults do not survive a reopen — each open starts a fresh
	// injector — so a fault that should fire after a crash names the
	// open it belongs to.
	Open      int    `json:"open"`
	Op        string `json:"op"`
	Path      string `json:"path"`
	AtStep    uint64 `json:"at_step"`
	Nth       int    `json:"nth"`
	Err       string `json:"err"`
	TornBytes int    `json:"torn_bytes"`
	DropDirty bool   `json:"drop_dirty"`
	Crash     bool   `json:"crash"`
	Once      bool   `json:"once"`
}

// Scenario is one conformance run: an index configuration, a seeded
// schedule, and a fault plan.
type Scenario struct {
	Name string `json:"name"`
	Seed uint64 `json:"seed"`
	// Policy is the sync policy: always, interval, or none.
	Policy string `json:"policy"`
	// IntervalMS is the fsync period for the interval policy.
	IntervalMS int `json:"interval_ms"`
	// SegmentBytes rotates WAL segments at this size; small values
	// exercise rotation boundaries.
	SegmentBytes int64 `json:"segment_bytes"`
	// RebuildAt is the delta-build threshold; small values exercise
	// background shard builds during recovery replay.
	RebuildAt int `json:"rebuild_at"`
	// Dim is the vector dimensionality.
	Dim int `json:"dim"`
	// Steps is the schedule length.
	Steps   int         `json:"steps"`
	Weights Weights     `json:"weights"`
	Faults  []FaultSpec `json:"faults"`
}

// Load parses a scenario file.
func Load(path string) (Scenario, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, err
	}
	var sc Scenario
	if err := json.Unmarshal(blob, &sc); err != nil {
		return Scenario{}, fmt.Errorf("%s: %w", path, err)
	}
	return sc.withDefaults(), nil
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Policy == "" {
		sc.Policy = "always"
	}
	if sc.Dim == 0 {
		sc.Dim = 8
	}
	if sc.Steps == 0 {
		sc.Steps = 100
	}
	if sc.RebuildAt == 0 {
		sc.RebuildAt = 24
	}
	if sc.SegmentBytes == 0 {
		sc.SegmentBytes = 4096
	}
	if sc.IntervalMS == 0 {
		sc.IntervalMS = 2
	}
	w := &sc.Weights
	if w.Insert+w.Delete+w.Search+w.Checkpoint+w.Paginate+w.Crash+w.Restart == 0 {
		*w = Weights{Insert: 50, Delete: 15, Search: 15, Checkpoint: 8, Crash: 8, Restart: 4}
	}
	return sc
}

// Stats summarizes one run for test logs.
type Stats struct {
	Ops, Reopens, Crashes, Checkpoints int
	AckedInserts, AckedDeletes         int
	// FaultBreaks counts write failures that broke the log mid-epoch;
	// FaultsFired counts armed faults that fired at all (a torn write
	// that self-heals fires without breaking anything).
	FaultBreaks, FaultsFired int
}

func (s Stats) String() string {
	return fmt.Sprintf("ops=%d reopens=%d crashes=%d checkpoints=%d acked=%d+%d breaks=%d faults=%d",
		s.Ops, s.Reopens, s.Crashes, s.Checkpoints, s.AckedInserts, s.AckedDeletes, s.FaultBreaks, s.FaultsFired)
}

const searchBudget = 1 << 20

// runner holds the live index and the model of acknowledged history.
type runner struct {
	dir   string
	sc    Scenario
	rng   *rng.RNG
	di    *lccs.DynamicIndex
	fs    *faultfs.Injected
	opens int
	stats Stats

	// live maps acked-inserted, not-acked-deleted ids to their vectors;
	// deleted holds acked-deleted ids. Both are durable obligations.
	live    map[int][]float32
	deleted map[int]bool
	// limbo holds unacked inserts (the write failed after the in-memory
	// apply): after a reopen each either survives with its exact vector
	// or vanishes. limboDel holds unacked deletes the same way.
	limbo    map[int][]float32
	limboDel map[int][]float32
	// order lists acked ids in issue order — the delete-target pool
	// (maps would make target choice depend on iteration order).
	order []int
	// broken is set when a write fails: the WAL is sticky-broken, so
	// mutating ops are skipped until the next crash or restart.
	broken bool
	// scan is the live pagination state: the query the scan was minted
	// for and the continuation token of the last page. A reopen while
	// scan.token != "" means the crash landed mid-pagination; the
	// recovery check then asserts the old token is rejected.
	scan struct {
		query []float32
		token string
	}
}

// Run executes a scenario against a journaled index in dir (which must be
// empty) and returns the first invariant violation, or nil. A failed
// recovery (OpenDurable error) is itself a violation: whatever a fault
// or crash left behind, reopen must always succeed.
func Run(dir string, sc Scenario) (Stats, error) {
	sc = sc.withDefaults()
	r := &runner{
		dir:      dir,
		sc:       sc,
		rng:      rng.New(sc.Seed),
		live:     map[int][]float32{},
		deleted:  map[int]bool{},
		limbo:    map[int][]float32{},
		limboDel: map[int][]float32{},
	}
	if err := r.open(); err != nil {
		return r.stats, err
	}
	if err := r.schedule(); err != nil {
		return r.stats, err
	}
	// Final crash, reopen, and check: the harness always ends on a
	// verified recovery.
	if err := r.crash(); err != nil {
		return r.stats, err
	}
	r.di.Close()
	return r.stats, nil
}

func (r *runner) policy() lccs.SyncPolicy {
	p, err := lccs.ParseSyncPolicy(r.sc.Policy)
	if err != nil {
		panic(err) // validated by callers via withDefaults/tests
	}
	return p
}

// open opens the index over a fresh injector and arms this open's
// faults.
func (r *runner) open() error {
	fs := faultfs.NewInjected(faultfs.OS{})
	cfg := lccs.DurableConfig{
		Config:       lccs.Config{Metric: lccs.Euclidean, M: 8, Seed: 1, BucketWidth: 4},
		Sync:         r.policy(),
		SyncInterval: time.Duration(r.sc.IntervalMS) * time.Millisecond,
		SegmentBytes: r.sc.SegmentBytes,
		RebuildAt:    r.sc.RebuildAt,
		FS:           fs,
	}
	di, err := lccs.OpenDurable(r.dir, cfg)
	if err != nil {
		return r.violation("recovery failed on open %d: %v", r.opens, err)
	}
	r.di, r.fs = di, fs
	for _, fspec := range r.sc.Faults {
		if fspec.Open == r.opens {
			f, err := fspec.fault()
			if err != nil {
				return err
			}
			fs.Inject(f)
		}
	}
	r.opens++
	r.stats.Reopens = r.opens - 1
	return nil
}

func (fs FaultSpec) fault() (*faultfs.Fault, error) {
	var op faultfs.Op
	switch fs.Op {
	case "", "any":
		op = faultfs.OpAny
	case "create":
		op = faultfs.OpCreate
	case "write":
		op = faultfs.OpWrite
	case "sync":
		op = faultfs.OpSync
	case "rename":
		op = faultfs.OpRename
	case "remove":
		op = faultfs.OpRemove
	case "truncate":
		op = faultfs.OpTruncate
	case "syncdir":
		op = faultfs.OpSyncDir
	default:
		return nil, fmt.Errorf("conformance: unknown fault op %q", fs.Op)
	}
	var ferr error
	switch fs.Err {
	case "", "injected":
	case "enospc":
		ferr = faultfs.ErrNoSpace
	default:
		return nil, fmt.Errorf("conformance: unknown fault err %q", fs.Err)
	}
	return &faultfs.Fault{
		Op: op, Path: fs.Path, AtStep: fs.AtStep, Nth: fs.Nth, Err: ferr,
		TornBytes: fs.TornBytes, DropDirty: fs.DropDirty, Crash: fs.Crash, Once: fs.Once,
	}, nil
}

func (r *runner) violation(format string, args ...any) error {
	return fmt.Errorf("scenario %q (seed %d, policy %s): op %d: %s",
		r.sc.Name, r.sc.Seed, r.sc.Policy, r.stats.Ops, fmt.Sprintf(format, args...))
}

// schedule draws and executes sc.Steps ops.
func (r *runner) schedule() error {
	w := r.sc.Weights
	total := w.Insert + w.Delete + w.Search + w.Checkpoint + w.Paginate + w.Crash + w.Restart
	for i := 0; i < r.sc.Steps; i++ {
		r.stats.Ops++
		roll := r.rng.IntN(total)
		var err error
		switch {
		case roll < w.Insert:
			err = r.insert()
		case roll < w.Insert+w.Delete:
			err = r.delete()
		case roll < w.Insert+w.Delete+w.Search:
			err = r.search()
		case roll < w.Insert+w.Delete+w.Search+w.Checkpoint:
			err = r.checkpoint()
		case roll < w.Insert+w.Delete+w.Search+w.Checkpoint+w.Paginate:
			err = r.paginate()
		case roll < w.Insert+w.Delete+w.Search+w.Checkpoint+w.Paginate+w.Crash:
			err = r.crash()
		default:
			err = r.restart()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) insert() error {
	// Draw the vector even when skipping, so the schedule's rng stream
	// does not depend on fault timing.
	vec := r.rng.UniformVector(r.sc.Dim, -1, 1)
	if r.broken {
		return nil
	}
	id, err := r.di.Add(vec)
	if errors.Is(err, lccs.ErrNotDurable) {
		// Applied in memory, not acked: may vanish at the next crash,
		// may survive — but only ever with exactly this vector.
		r.limbo[id] = vec
		r.broken = true
		r.stats.FaultBreaks++
		return nil
	}
	// Any other error means the write failed, which an admissible
	// vector's insert must not.
	if err != nil {
		return r.violation("insert: unexpected error: %v", err)
	}
	if r.live[id] != nil || r.deleted[id] {
		return r.violation("insert issued id %d, which is already %s", id, r.idState(id))
	}
	r.live[id] = vec
	r.order = append(r.order, id)
	r.stats.AckedInserts++
	return nil
}

func (r *runner) idState(id int) string {
	switch {
	case r.live[id] != nil:
		return "live"
	case r.deleted[id]:
		return "acked-deleted"
	default:
		return "unknown"
	}
}

func (r *runner) delete() error {
	if len(r.order) == 0 {
		return nil
	}
	id := r.order[r.rng.IntN(len(r.order))]
	if r.broken {
		return nil
	}
	n, _, err := r.di.DeleteBatch([]int{id})
	if n != 1 {
		if r.live[id] != nil {
			return r.violation("delete of acked-live id %d reported not-live", id)
		}
		return nil
	}
	if err != nil && errors.Is(err, lccs.ErrNotDurable) {
		// Tombstoned in memory, not acked: after a crash the id is
		// either still live (record lost) or dead (record survived).
		if vec := r.live[id]; vec != nil {
			r.limboDel[id] = vec
			delete(r.live, id)
		}
		r.broken = true
		r.stats.FaultBreaks++
		return nil
	}
	if err != nil {
		return r.violation("delete of id %d: unexpected error: %v", id, err)
	}
	vec := r.live[id]
	if vec == nil {
		return r.violation("index deleted id %d, which the model holds %s", id, r.idState(id))
	}
	delete(r.live, id)
	r.deleted[id] = true
	r.stats.AckedDeletes++
	return nil
}

func (r *runner) search() error {
	q := r.rng.UniformVector(r.sc.Dim, -1, 1)
	if r.di.Len() == 0 {
		return nil
	}
	res, err := r.di.SearchQuery(q, lccs.Query{K: 8, Budget: searchBudget}, nil)
	if err != nil {
		return r.violation("search failed: %v", err)
	}
	for _, nb := range res {
		if r.deleted[nb.ID] {
			return r.violation("search returned acked-deleted id %d", nb.ID)
		}
	}
	return nil
}

// paginate advances the cursor scan one page, starting a fresh scan
// when no token is held. A token invalidated by an intervening write is
// the documented contract, not a violation — the scan restarts. Pages
// must never surface an acked-deleted id.
func (r *runner) paginate() error {
	// Draw the query whether starting or continuing, so the rng stream
	// does not depend on scan state.
	q := r.rng.UniformVector(r.sc.Dim, -1, 1)
	if r.scan.token == "" {
		r.scan.query = q
	}
	if r.di.Len() == 0 {
		return nil
	}
	page, next, err := r.di.SearchCursor(r.scan.query, lccs.Query{K: 5, Budget: searchBudget}, r.scan.token)
	if errors.Is(err, lccs.ErrCursorInvalid) {
		// A write since the last page bumped the generation.
		r.scan.token = ""
		return nil
	}
	if err != nil {
		return r.violation("cursor page failed: %v", err)
	}
	for _, nb := range page {
		if r.deleted[nb.ID] {
			return r.violation("cursor page returned acked-deleted id %d", nb.ID)
		}
	}
	r.scan.token = next
	return nil
}

func (r *runner) checkpoint() error {
	if r.broken {
		return nil
	}
	if _, err := r.di.Checkpoint(); err != nil {
		// A faulted checkpoint may have broken the WAL (truncation runs
		// through it); recovery must clean up whatever it left.
		r.broken = true
		r.stats.FaultBreaks++
		return nil
	}
	r.stats.Checkpoints++
	return nil
}

// crash kills the filesystem (process-kill semantics: whatever reached
// the inner filesystem stays, nothing after does), drops the index, and
// recovers.
func (r *runner) crash() error {
	r.fs.Kill()
	r.di.Close() // harmless: every mutating op on a killed fs fails
	r.stats.Crashes++
	return r.reopenAndCheck()
}

// restart closes cleanly and recovers — the graceful-shutdown path.
func (r *runner) restart() error {
	err := r.di.Close()
	if err != nil && !r.broken {
		return r.violation("clean close failed: %v", err)
	}
	return r.reopenAndCheck()
}

func (r *runner) reopenAndCheck() error {
	r.stats.FaultsFired += r.fs.Fired()
	if err := r.open(); err != nil {
		return err
	}
	r.broken = false
	// A reopen while a scan is open means the crash (or restart) landed
	// mid-pagination. The recovered index carries a fresh cursor epoch,
	// so the surviving token must be rejected — resuming it could skip
	// or repeat results over the replayed, possibly renumbered stream.
	if r.scan.token != "" {
		_, _, err := r.di.SearchCursor(r.scan.query, lccs.Query{K: 5, Budget: searchBudget}, r.scan.token)
		if !errors.Is(err, lccs.ErrCursorInvalid) {
			return r.violation("pre-reopen cursor token accepted after recovery (err=%v)", err)
		}
		r.scan.token = ""
	}
	return r.check()
}

// check sweeps the recovered index by searching every vector the model
// knows, resolves the limbo sets against what survived, and asserts the
// acked obligations.
func (r *runner) check() error {
	found := map[int]bool{}
	k := len(r.live) + len(r.limbo) + len(r.limboDel) + 4
	sweep := func(vecs map[int][]float32) error {
		for _, vec := range vecs {
			res, err := r.di.SearchQuery(vec, lccs.Query{K: k, Budget: searchBudget}, nil)
			if err != nil {
				return r.violation("recovery sweep search failed: %v", err)
			}
			for _, nb := range res {
				found[nb.ID] = true
			}
		}
		return nil
	}
	for _, vecs := range []map[int][]float32{r.live, r.limbo, r.limboDel} {
		if err := sweep(vecs); err != nil {
			return err
		}
	}

	// Resolve unacked inserts: a survivor was journaled and replayed —
	// it is durable now and must carry exactly the submitted vector. A
	// vanished one is forgotten (its id may legitimately be reissued:
	// it never existed durably).
	for id, vec := range r.limbo {
		if !found[id] {
			delete(r.limbo, id)
			continue
		}
		if err := r.checkVector(id, vec, "surviving unacked insert"); err != nil {
			return err
		}
		r.live[id] = vec
		r.order = append(r.order, id)
		delete(r.limbo, id)
	}
	// Resolve unacked deletes: if the id is gone the tombstone was
	// journaled (durable — promote to acked-deleted); if it answers,
	// the delete was lost and the id is live again.
	for id, vec := range r.limboDel {
		if found[id] {
			r.live[id] = vec
		} else {
			r.deleted[id] = true
		}
		delete(r.limboDel, id)
	}

	for id, vec := range r.live {
		if !found[id] {
			return r.violation("acked insert %d lost after recovery", id)
		}
		if err := r.checkVector(id, vec, "acked insert"); err != nil {
			return err
		}
	}
	for id := range r.deleted {
		if found[id] {
			return r.violation("acked-deleted id %d resurrected after recovery", id)
		}
	}
	return nil
}

func (r *runner) checkVector(id int, want []float32, what string) error {
	got := r.di.Vector(id)
	if len(got) != len(want) {
		return r.violation("%s %d: stored vector %v, want %v", what, id, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			return r.violation("%s %d: stored vector %v, want %v (corrupted)", what, id, got, want)
		}
	}
	return nil
}
