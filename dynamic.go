package lccs

import (
	"errors"
	"fmt"
	"sync"

	"lccs/internal/core"
	"lccs/internal/idmap"
	"lccs/internal/vec"
	"lccs/internal/wal"
)

// DynamicIndex supports online inserts and deletes on top of the static
// CSA structure with a delta-main architecture: new vectors accumulate in
// an unindexed buffer that queries scan exactly, and when the buffer
// exceeds a threshold it is frozen and built into a new index shard **in
// the background** — writers keep appending to a fresh buffer while the
// shard builds, and the finished shard is swapped in under the write lock
// in O(1). The main index is therefore a growing sequence of immutable
// shards covering disjoint, contiguous id ranges — a segment set
// (segset.go) whose tail is the buffer, behind a lock — and queries visit
// the shards and the buffer as that set's one query does.
//
// Deletes are a first-class part of the lifecycle. A Delete tombstones
// the vector immediately: one bit in a slot bitset (n/8 bytes) that every
// scan probes as candidates leave the stream, so a dead row costs a query
// its CSA step and nothing else. The physical row is reclaimed by
// compaction: the background delta build drops tombstoned rows from the
// buffer before indexing it, and an explicit Rebuild compacts every shard
// and the buffer into one index over only the live rows — clearing the
// tombstone set and releasing the memory.
// Because compaction moves rows, vectors are addressed by stable
// external ids maintained in an idmap.Map: the id Add returns is valid
// forever, deleted ids are never reissued, and until the first
// compaction the mapping is a zero-cost identity.
//
// Every row is held once, in the block of the source that holds it: a
// shard verifies against the rows it was built over (a view of the
// loaded or initial block, or the frozen buffer it was built from), and
// Add copies the vector to the end of the buffer's own flat block
// (vec.Store), which the bulk distance kernel scans in one forward pass
// over contiguous memory. Only the buffer's block grows, and only it is
// rewritten when its tombstoned rows are dropped; at swap-in the rows
// appended during the build start the next buffer.
//
// Vector ids are assignment-ordered and stable across rebuilds and
// compactions: the i-th vector ever added (counting the initial
// dataset) has id i, forever. DynamicIndex is safe for concurrent use;
// neither readers nor writers are blocked by a background shard build
// beyond the O(1) swap.
//
// A DynamicIndex from NewDynamicIndex or NewDynamicIndexFrom is
// memory-only: it holds every write since the last Snapshot only in
// memory. One from OpenDurable is journaled: every write is appended to a
// write-ahead log in the same critical section that applies it, and is
// acknowledged only once the log made it durable, so a reopen replays it.
// The write methods are the same either way; Checkpoint, Close, Recovery,
// Dir and WALStats act on the journal, and Dir is "" exactly when there
// is none.
type DynamicIndex struct {
	mu   sync.RWMutex
	cond *sync.Cond // signaled when a background build finishes; L = &mu
	// The set: segs the immutable shards over slots [0, indexed), each
	// with its rows, tail the buffer's rows after them, ids the stable
	// external ids ⇔ dense slots (compaction shifts slots, never ids), dead
	// the tombstones compaction has not reclaimed yet.
	// Its cfg has its derived fields (bucket width) filled in, under mu,
	// the moment the first build is scheduled, from the rows that build
	// covers; every build runs with that one configuration, so every
	// segment hashes with the same functions.
	segSet
	// rebuildAt triggers a background shard build when the buffer
	// reaches this size.
	rebuildAt int
	// building marks an in-flight background shard build (at most one).
	building bool
	// gen invalidates in-flight builds: Rebuild bumps it and a completing
	// background build from an older generation is discarded.
	gen uint64
	// writes is the write generation guarding open cursors: any change
	// that could reorder or renumber the result stream — insert, delete,
	// compaction, shard swap-in, rebuild — bumps it, and a cursor token
	// minted under an older generation is rejected.
	writes uint64
	// j is the write-ahead journal; nil on a memory-only index. It is set
	// once, before OpenDurable returns, and never changes.
	j *journal
}

// DefaultRebuildThreshold is the buffer size that triggers a background
// shard build.
const DefaultRebuildThreshold = 4096

// newDynamic wraps a set — empty, or frozen from an Index — as a
// DynamicIndex. rebuildAt ≤ 0 selects DefaultRebuildThreshold.
func newDynamic(set segSet, rebuildAt int) *DynamicIndex {
	if rebuildAt <= 0 {
		rebuildAt = DefaultRebuildThreshold
	}
	if set.cfg.Budget == 0 {
		set.cfg.Budget = defaultBudget // what the first build would resolve it to
	}
	d := &DynamicIndex{segSet: set, rebuildAt: rebuildAt, writes: nextCursorEpoch()}
	d.adopt(true)
	d.cond = sync.NewCond(&d.mu)
	return d
}

// NewDynamicIndex builds a dynamic index over an initial dataset (which
// may be empty — pass nil — if all data arrives via Add). rebuildAt ≤ 0
// selects DefaultRebuildThreshold. The initial rows are copied into one
// flat block the first shard indexes; data itself is not retained.
func NewDynamicIndex(data [][]float32, cfg Config, rebuildAt int) (*DynamicIndex, error) {
	store, err := storeFromRows(data, cfg.Metric)
	if err != nil {
		return nil, err
	}
	// No build runs yet on an empty start, so reject here a config the
	// first build would otherwise fail on — turning a construction-time
	// error into a runtime surprise.
	metric, err := validateConfig(cfg)
	if err != nil {
		return nil, err
	}
	d := newDynamic(segSet{cfg: cfg, metric: metric, tail: store}, rebuildAt)
	if n := store.Len(); n > 0 {
		d.cfg = deriveConfig(store, d.cfg)
		d.swapInLocked(buildCore(store, d.cfg), 0, n)
	}
	return d, nil
}

// NewDynamicIndexFrom wraps an existing Index — typically a snapshot
// saved at a checkpoint and reopened with Load — as a DynamicIndex, so a
// warm restart stays writable without rebuilding: the index's shards
// become the dynamic main, new inserts buffer on top, and ids keep
// indexing the rows the index was built or loaded over. rebuildAt ≤ 0
// selects DefaultRebuildThreshold.
//
// The set is frozen, not shared: the index's shards keep verifying
// against the rows they were loaded over — nothing is copied — and
// inserts go to a buffer block of their own, so the still-live Index
// (documented safe for concurrent queries) is never mutated; and the
// lifecycle state a snapshot's container carries across a restart — the
// id map and the tombstones — is cloned, so deleted ids stay dead and id
// allocation resumes past the watermark. Container headers hold the
// resolved config.
func NewDynamicIndexFrom(ix *Index, rebuildAt int) *DynamicIndex {
	return newDynamic(ix.freeze(), rebuildAt)
}

// swapInLocked appends a segment built with the set's configuration over
// the tail's first hi−lo rows, slots [lo, hi): the segment keeps them (c
// verifies against a view of the tail's block) and the rows after them
// start the next tail, copied out to a block of their own so the
// segment's block is held once. Deletes that landed in the range while
// the segment was building become its budget allowance.
func (d *DynamicIndex) swapInLocked(c *core.Index, lo, hi int) {
	m, n := hi-lo, d.tail.Len()
	seg := segment{core: c, off: lo, dead: d.dead.CountRange(lo, hi)}
	if a := d.tailAttrs; a != nil {
		seg.attrs, d.tailAttrs = a.Range(0, m), nil
		if a.Len() > m {
			d.tailAttrs = a.Range(m, a.Len())
		}
	}
	d.segs = append(d.segs, seg)
	d.indexed = hi
	d.tail = d.tail.Copy(m, n)
}

// validateVector is the one write validator: a non-empty vector of the
// index's dimensionality (when dim > 0 is known), admissible under metric.
// A write is validated before it is applied or journaled, so a rejected
// vector never reaches the WAL.
func validateVector(v []float32, dim int, metric MetricKind) error {
	if len(v) == 0 {
		return ErrEmptyVector
	}
	if dim != 0 && len(v) != dim {
		return fmt.Errorf("%w: vector has %d dimensions, index has %d", ErrDimensionMismatch, len(v), dim)
	}
	if !admissible(v, metric) {
		return ErrNonFinite
	}
	return nil
}

// Add inserts a vector (copied into the buffer's block) and returns its
// id: AddBatchWithAttrs of one vector. Crossing the rebuild threshold
// starts a background shard build; Add itself never blocks on index
// construction. An error means nothing was inserted, except one wrapping
// ErrNotDurable: the vector is in memory under the returned id, but a
// crash may lose it, so it must not be acknowledged.
func (d *DynamicIndex) Add(v []float32) (int, error) {
	return first(d.AddBatchWithAttrs([][]float32{v}, nil))
}

// AddWithAttrs is Add with optional metadata attached to the vector:
// the attributes become filterable through Query.Filter and travel through
// snapshots and the WAL. A nil attrs is exactly Add.
func (d *DynamicIndex) AddWithAttrs(v []float32, a Attrs) (int, error) {
	return first(d.AddBatchWithAttrs([][]float32{v}, []Attrs{a}))
}

// first is the id of a batch of one, with the batch's error.
func first(ids []int, err error) (int, error) {
	if len(ids) == 0 {
		return 0, err
	}
	return ids[0], err
}

// AddBatch is AddBatchWithAttrs without metadata.
func (d *DynamicIndex) AddBatch(vecs [][]float32) ([]int, error) {
	return d.AddBatchWithAttrs(vecs, nil)
}

// AddBatchWithAttrs inserts many vectors under one hold of the write lock
// and, on a journaled index, with one log append and one durability wait,
// so a bulk ingest pays one (group-committed) fsync per batch instead of
// one per vector. attrs[i] belongs to vecs[i], and attrs may be nil (no
// metadata) or must match vecs in length. The whole batch is validated
// before any of it is applied: on a validation error nothing is inserted
// or journaled, no ids are returned and the error names the first bad
// vector. Otherwise it returns the ids of every vector, and on a
// journaled index only once the batch is durable per the sync policy. An
// error alongside the ids always wraps ErrNotDurable: the batch is
// applied in memory but must not be acknowledged.
func (d *DynamicIndex) AddBatchWithAttrs(vecs [][]float32, attrs []Attrs) ([]int, error) {
	if attrs != nil && len(attrs) != len(vecs) {
		return nil, ErrAttrsMismatch
	}
	if len(vecs) == 0 {
		return nil, nil
	}
	// The journal records are encoded before the lock, so readers never
	// wait on them; only their ids are filled in under the lock.
	var recs []wal.Record
	if d.j != nil {
		recs = make([]wal.Record, len(vecs))
		for i, v := range vecs {
			recs[i] = insertRecord(0, v, attrAt(attrs, i))
		}
	}
	t0 := d.j.clock()
	d.mu.Lock()
	// The first vector of a batch into an empty index sets the
	// dimensionality the rest must match.
	dim := d.tail.Dim()
	for i, v := range vecs {
		if err := validateVector(v, dim, d.cfg.Metric); err != nil {
			d.mu.Unlock()
			return nil, fmt.Errorf("vector %d: %w", i, err)
		}
		dim = len(v)
	}
	ids := make([]int, len(vecs))
	for i, v := range vecs {
		ids[i] = d.appendLocked(v, attrAt(attrs, i))
		if recs != nil {
			recs[i].ID = int64(ids[i])
		}
	}
	return ids, d.commit(t0, recs)
}

// attrAt is attrs[i], or nil when the batch carries no metadata.
func attrAt(attrs []Attrs, i int) Attrs {
	if attrs == nil {
		return nil
	}
	return attrs[i]
}

// appendLocked appends one validated vector and returns its id.
func (d *DynamicIndex) appendLocked(v []float32, a Attrs) int {
	i := d.tail.Append(v)
	if len(a) > 0 {
		if d.tailAttrs == nil {
			d.tailAttrs = vec.NewMetaStore(i + 1)
		}
		d.tailAttrs.PadTo(i)
		d.tailAttrs.Append(a)
	}
	id := d.ids.Alloc()
	d.writes++
	d.maybeStartBuildLocked()
	return id
}

// Attrs returns the metadata of the live vector with the given id, or
// nil.
func (d *DynamicIndex) Attrs(id int) Attrs {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.segSet.Attrs(id)
}

// maybeStartBuildLocked freezes the buffer into a background shard build
// when it crossed the threshold and no build is already in flight. The
// buffer is compacted first — tombstoned rows that never made it into a
// shard are dropped before any index work is spent on them.
func (d *DynamicIndex) maybeStartBuildLocked() {
	if d.building || d.tail.Len() < d.rebuildAt {
		return
	}
	d.compactBufferLocked()
	if d.tail.Len() < d.rebuildAt {
		return // compaction shrank the buffer back under the threshold
	}
	lo, hi := d.indexed, d.slots()
	// Freeze the delta, the tail's rows so far: a Slice view is stable
	// across later appends (growth copies to a new block; in-place growth
	// writes only beyond hi), and vectors themselves are never mutated.
	delta := d.tail.Slice(0, hi-lo)
	d.cfg, d.building = deriveConfig(delta, d.cfg), true
	go d.buildShard(d.gen, lo, hi, delta, d.cfg)
}

// compactBufferLocked physically drops tombstoned rows from the
// unindexed buffer, remapping ids and releasing their slots; it reports
// whether anything was dropped. Rows already covered by an immutable
// shard are left in place (shard-local offsets depend on them); a full
// Rebuild reclaims those. Only the tail is rewritten, by copy, never in
// place, so outstanding views — snapshot rows, a frozen delta being
// indexed in the background — are unaffected; callers that compact while
// a background build may be in flight must invalidate it (bump d.gen),
// because the build's [lo, hi) range names pre-compaction slots.
func (d *DynamicIndex) compactBufferLocked() bool {
	lo, n := d.indexed, d.tail.Len()
	if d.dead.CountRange(lo, lo+n) == 0 {
		return false
	}
	dead := func(i int) bool { return d.dead.Has(lo + i) }
	if d.attrRows() > 0 {
		d.tailAttrs = d.tailAttrs.CompactCopy(n, dead)
	}
	d.tail = d.tail.CompactCopy(dead)
	d.ids.Compact(lo, d.dead.Has)
	d.dead.Truncate(d.indexed)
	d.writes++ // compaction renumbers buffer slots; open cursors die
	return true
}

// buildShard builds one shard over a frozen delta outside the lock and
// swaps it in. A generation mismatch (an explicit Rebuild ran meanwhile)
// discards the result.
func (d *DynamicIndex) buildShard(gen uint64, lo, hi int, delta *vec.Store, cfg Config) {
	c := buildCore(delta, cfg)

	d.mu.Lock()
	defer d.mu.Unlock()
	d.building = false
	if d.gen == gen {
		d.swapInLocked(c, lo, hi)
		d.writes++ // source set changed; open cursors die
	}
	// The buffer may have crossed the threshold again while this shard
	// was building — including the stale-generation case, where writes
	// during an explicit Rebuild are still unindexed.
	d.maybeStartBuildLocked()
	d.cond.Broadcast()
}

// WaitRebuild blocks until no background shard build is in flight. It
// does not prevent a later Add from starting a new one.
func (d *DynamicIndex) WaitRebuild() {
	d.mu.Lock()
	for d.building {
		d.cond.Wait()
	}
	d.mu.Unlock()
}

// Delete tombstones a vector id: it stops appearing in results
// immediately, and its row is physically reclaimed by the next
// compaction (the background delta build for buffered rows, Rebuild for
// everything). It reports whether the id was live and, on a journaled
// index, the delete durable; deleting an unknown or already-deleted id is
// a no-op returning false. It is DeleteBatch of one id: use DeleteBatch
// where a journal failure must be told apart from a dead id.
func (d *DynamicIndex) Delete(id int) bool {
	deleted, _, err := d.DeleteBatch([]int{id})
	return deleted == 1 && err == nil
}

// DeleteBatch tombstones many ids under one hold of the write lock and, on
// a journaled index, with one log append and one group-committed
// durability wait, returning only once the batch is durable per the sync
// policy. It returns how many ids were live (now tombstoned) and which
// were unknown or already deleted; an error wrapping ErrNotDurable means
// the tombstones may not survive a crash and must not be acknowledged.
func (d *DynamicIndex) DeleteBatch(ids []int) (deleted int, missing []int, err error) {
	var recs []wal.Record
	t0 := d.j.clock()
	d.mu.Lock()
	for _, id := range ids {
		if !d.deleteLocked(id) {
			missing = append(missing, id)
			continue
		}
		deleted++
		if d.j != nil {
			recs = append(recs, wal.Record{Op: wal.OpDelete, ID: int64(id)})
		}
	}
	return deleted, missing, d.commit(t0, recs)
}

func (d *DynamicIndex) deleteLocked(id int) bool {
	slot, ok := d.ids.Slot(id)
	if !ok || d.dead.Has(slot) {
		return false
	}
	d.dead.Set(slot)
	if slot < d.indexed {
		d.segAt(slot).dead++
	}
	d.writes++
	return true
}

// Deleted returns the number of pending tombstones — deleted vectors
// whose rows the next compaction will reclaim.
func (d *DynamicIndex) Deleted() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.dead.Count()
}

// restoreWatermark installs a persisted id watermark on a freshly
// constructed, never-written index: the next Add allocates `next`, so
// ids deleted before the previous process emptied out are never
// reissued. It is the durable layer's recovery hook for the
// empty-snapshot manifest.
func (d *DynamicIndex) restoreWatermark(next int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.slots() != 0 || d.ids.Next() != 0 {
		return fmt.Errorf("lccs: watermark restore on a non-fresh index (%d rows, next id %d)", d.slots(), d.ids.Next())
	}
	m, err := idmap.Restore([]int{}, next)
	if err != nil {
		return err
	}
	d.ids = m
	return nil
}

// Rebuild synchronously compacts every shard and the buffer into a
// single index over only the live vectors: tombstoned rows are
// physically dropped, the tombstone set is cleared, and their memory is
// released (ids of surviving vectors are unchanged). It invalidates any
// in-flight background build and blocks readers and writers for the
// duration — the background path is the production path; Rebuild is for
// explicit compaction points. Like a background build it cannot fail: the
// error result is always nil.
func (d *DynamicIndex) Rebuild() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gen++ // discard any in-flight background build
	store, attrs := d.compacted()
	d.ids.Compact(0, d.dead.Has)
	d.tail, d.tailAttrs, d.dead = store, attrs, slotSet{}
	d.segs, d.indexed = nil, 0
	if n := store.Len(); n > 0 { // else everything was deleted (or nothing ever added): no index to build
		d.cfg = deriveConfig(store, d.cfg)
		d.swapInLocked(buildCore(store, d.cfg), 0, n)
	}
	d.writes++
	return nil
}

// Generation returns the index's write generation, the counter its cursor
// tokens are minted under. Every change that can alter an answer moves it
// — insert, delete, buffer compaction, a background shard's swap-in,
// Rebuild — and it starts at an instance-unique epoch, so two instances
// (a dropped collection and its re-created namesake, one index before and
// after recovery) never share a value through ordinary writes. An answer
// computed while Generation returned g stays the index's answer for as
// long as it returns g, which is what a result cache keys on.
func (d *DynamicIndex) Generation() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.writes
}

// Len returns the number of live (non-deleted) vectors.
func (d *DynamicIndex) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.segSet.Len()
}

// Buffered returns the number of vectors not yet covered by an index
// shard (scanned exactly on every query). A background build in flight
// counts as buffered until its swap completes.
func (d *DynamicIndex) Buffered() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.tail.Len()
}

// Dim returns the dimensionality of the stored vectors, or 0 before the
// first vector arrives.
func (d *DynamicIndex) Dim() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.segSet.Dim()
}

// Shards returns the number of index shards currently serving queries.
func (d *DynamicIndex) Shards() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.segs)
}

// Search returns the k nearest live vectors: every shard's candidates
// (at the default budget) and an exact scan of the buffer, collected into
// one top k.
func (d *DynamicIndex) Search(q []float32, k int) ([]Neighbor, error) {
	return d.SearchQuery(q, Query{K: k}, nil)
}

// SearchInto is Search appending into dst (reset to dst[:0] first).
func (d *DynamicIndex) SearchInto(q []float32, k int, dst []Neighbor) ([]Neighbor, error) {
	return d.SearchQuery(q, Query{K: k}, dst)
}

// SearchQuery answers qr, appending into dst (reset to dst[:0] first;
// dst may be nil): the set's one query, under the read lock. The insert
// buffer is always scanned exactly, filtered row by row; a tombstoned row
// is dropped by a bitset probe — in the shards as it leaves the candidate
// stream, in the buffer after the bulk kernel scored it — and counts as
// neither a candidate nor filter-rejected. All scratch is pooled, so a
// steady-state query's only allocations are those of the result row
// growth.
func (d *DynamicIndex) SearchQuery(q []float32, qr Query, dst []Neighbor) ([]Neighbor, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.searchQuery(q, qr, 0, dst)
}

// Snapshot freezes the current contents into a point-in-time view: the
// slot-ordered vector slice (rows are views into the blocks that hold
// them) and an
// Index over it, assembled from the existing immutable shards plus one
// freshly built shard covering the unindexed buffer. The Index can be
// persisted with Save and reopened against the returned vectors with
// Load, so buffered inserts survive a process restart without replaying
// them.
//
// Deletion state travels with the snapshot. The buffer is compacted
// first, so tombstones that never reached a shard are simply gone; the
// rest — tombstoned slots inside immutable shards, and the id map that
// keeps external ids stable across compactions — is carried by the
// Index and persisted by Save in the container's lifecycle section. The
// snapshot therefore never resurrects a deleted id: not in its own
// results, and not after a save/load round trip. (The returned vector
// slice still includes rows tombstoned inside shards — the shard
// structures index them positionally — but no search will return them.)
//
// Snapshot blocks writers while the buffer shard builds; it is meant for
// shutdown and checkpoint paths, not the hot loop.
func (d *DynamicIndex) Snapshot() ([][]float32, *Index, error) {
	d.mu.Lock()
	ix, err := d.snapshotLocked()
	d.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	return ix.rowViews(), ix, nil
}

// snapshotLocked is Snapshot without the row views: Checkpoint streams
// the snapshot's blocks to disk directly.
func (d *DynamicIndex) snapshotLocked() (*Index, error) {
	if d.compactBufferLocked() { // buffered tombstones never reach disk
		// Slots shifted: an in-flight background build over the
		// pre-compaction buffer must not swap in. Its completion handler
		// restarts a build over the corrected state.
		d.gen++
	}
	n := d.slots()
	if n == 0 {
		return nil, errors.New("lccs: nothing to snapshot: empty dynamic index")
	}
	var tail *core.Index
	if m := d.tail.Len(); m > 0 {
		rows := d.tail.Slice(0, m)
		d.cfg = deriveConfig(rows, d.cfg)
		tail = buildCore(rows, d.cfg)
	}
	set := d.freeze()
	if tail != nil { // compacted just now: no tombstones
		set.segs = append(set.segs, segment{core: tail, off: d.indexed, attrs: set.tailAttrs})
		set.indexed = n
		set.tail, set.tailAttrs = vec.NewStore(set.tail.Dim()), nil
	}
	return indexOf(set, 0), nil
}

// Vector returns the vector stored under id as a read-only view into
// the block that holds it. Tombstoned ids keep answering until a
// compaction reclaims their row; afterwards (and for ids never assigned)
// Vector returns nil.
func (d *DynamicIndex) Vector(id int) []float32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	slot, ok := d.ids.Slot(id)
	if !ok {
		return nil
	}
	return d.row(slot)
}
