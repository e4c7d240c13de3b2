// Package engine is the multi-tenant collection registry behind the
// daemon: named collections, each an independently configured index
// (its own metric, hash length, durability directory),
// created, dropped, and listed at runtime. The registry owns collection
// lifecycle — creation writes a COLLECTION.json spec next to the
// collection's durable state, restarts lazily reopen collections from
// those specs on first use — while the HTTP layer (internal/server)
// owns request routing, admission, and caching.
//
// A Collection is the one owner of per-collection state: its backend,
// the writable index behind it, its usage counters and its serving state
// (health ring, admission occupancy, quota rejections). The registry
// creates all of it with the collection, under its lock, and forgets it
// on Drop, so Get and Loaded never disagree about which collections
// exist; the serving layer keeps no map of its own. The one fact that
// changes with every write, the write generation, belongs to the index
// (lccs.DynamicIndex.Generation).
//
// Every collection the registry creates is durable. A rooted engine (New
// with a directory) opens the root itself as the collection named
// "default" — a durable data dir (WAL + snapshot, see lccs.OpenDurable)
// configured by the engine's defaults — and stores each created collection
// under <root>/collections/<name>/ as a durable data dir of its own. Every
// acknowledged write survives a crash.
//
// A rootless engine (New with "") creates nothing: it holds only the
// pre-built backends an embedder registers through Adopt, such as the
// read-only index a daemon serves from a dataset file. The default
// collection and adopted backends cannot be dropped.
package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"lccs"
	"lccs/internal/faultfs"
	"lccs/internal/obs"
)

// Errors of the registry API. The HTTP layer maps NotFound to 404,
// Exists and Pinned to 409, NoRoot to 501, and the validation errors to
// 400.
var (
	ErrNotFound    = errors.New("engine: collection not found")
	ErrExists      = errors.New("engine: collection already exists")
	ErrBadName     = errors.New("engine: invalid collection name")
	ErrPinned      = errors.New("engine: the default collection and adopted backends cannot be dropped")
	ErrNoRoot      = errors.New("engine: collections need a data directory")
	ErrClosed      = errors.New("engine: engine is closed")
	ErrInvalidSpec = errors.New("engine: invalid collection spec")
)

// DefaultCollection is the name of the collection a rooted engine opens
// over its root directory.
const DefaultCollection = "default"

// nameRE bounds collection names to path- and label-safe tokens: they
// appear in directory names, URLs, and Prometheus label values.
var nameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9_-]{0,63}$`)

// ValidateName reports whether name is a legal collection name.
func ValidateName(name string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("%w: %q (want [a-zA-Z0-9][a-zA-Z0-9_-]{0,63})", ErrBadName, name)
	}
	return nil
}

// Spec is a collection's configuration, persisted as COLLECTION.json in
// the collection directory so a restart reopens the collection exactly
// as created. Zero fields inherit the engine's defaults. A key the spec no
// longer has is ignored on read: "probes", the multi-probe count of specs
// written while the facade offered one, so such a collection reopens as
// its single-probe index; and "quantize" with its re-rank depth, the
// quantized scan of specs written while the facade offered one, so such a
// collection reopens as its exact index.
type Spec struct {
	// Metric names the distance metric: euclidean | angular | hamming |
	// jaccard. Empty inherits the engine default.
	Metric string `json:"metric,omitempty"`
	// M is the hash-string length (0 = default).
	M int `json:"m,omitempty"`
	// Budget is the default per-query candidate budget λ.
	Budget int `json:"budget,omitempty"`
	// Seed fixes the hash functions.
	Seed uint64 `json:"seed,omitempty"`
	// BucketWidth is the Euclidean family's w (0 = derive from data).
	BucketWidth float64 `json:"bucket_width,omitempty"`
	// RebuildAt is the dynamic delta threshold triggering a background
	// shard build.
	RebuildAt int `json:"rebuild_at,omitempty"`
	// Sync is the collection's WAL sync policy: always | interval |
	// none. Empty inherits the engine default.
	Sync string `json:"sync,omitempty"`
	// SyncIntervalMS is the fsync period for Sync "interval".
	SyncIntervalMS int `json:"sync_interval_ms,omitempty"`
	// SegmentBytes rotates WAL segments at this size.
	SegmentBytes int64 `json:"segment_bytes,omitempty"`
}

// merged returns s with zero fields filled from def.
func (s Spec) merged(def Spec) Spec {
	if s.Metric == "" {
		s.Metric = def.Metric
	}
	if s.M == 0 {
		s.M = def.M
	}
	if s.Budget == 0 {
		s.Budget = def.Budget
	}
	if s.Seed == 0 {
		s.Seed = def.Seed
	}
	if s.BucketWidth == 0 {
		s.BucketWidth = def.BucketWidth
	}
	if s.RebuildAt == 0 {
		s.RebuildAt = def.RebuildAt
	}
	if s.Sync == "" {
		s.Sync = def.Sync
	}
	if s.SyncIntervalMS == 0 {
		s.SyncIntervalMS = def.SyncIntervalMS
	}
	if s.SegmentBytes == 0 {
		s.SegmentBytes = def.SegmentBytes
	}
	return s
}

// The bounds of a spec's fields past which durableConfig refuses it:
// maxSpecM keeps one row's hash string at 64 KiB (the paper's figures go
// to m = 512), and a sync interval must fit a time.Duration.
const (
	maxSpecM          = 1 << 14
	maxSyncIntervalMS = math.MaxInt64 / int64(time.Millisecond)
)

// durableConfig translates the spec into the library's configuration of
// a durable index. A negative field, m over maxSpecM or a sync interval
// past maxSyncIntervalMS is an error wrapping ErrInvalidSpec.
func (s Spec) durableConfig(fsys faultfs.FS, logger *slog.Logger) (lccs.DurableConfig, error) {
	metric := s.Metric
	if metric == "" {
		metric = "euclidean"
	}
	kind, err := lccs.ParseMetric(metric)
	if err != nil {
		return lccs.DurableConfig{}, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	if s.M < 0 || s.Budget < 0 || s.BucketWidth < 0 {
		return lccs.DurableConfig{}, fmt.Errorf("%w: m, budget and bucket_width must not be negative", ErrInvalidSpec)
	}
	if s.RebuildAt < 0 || s.SyncIntervalMS < 0 || s.SegmentBytes < 0 {
		return lccs.DurableConfig{}, fmt.Errorf("%w: rebuild_at, sync_interval_ms and segment_bytes must not be negative", ErrInvalidSpec)
	}
	if s.M > maxSpecM {
		return lccs.DurableConfig{}, fmt.Errorf("%w: m %d is over %d", ErrInvalidSpec, s.M, maxSpecM)
	}
	if int64(s.SyncIntervalMS) > maxSyncIntervalMS {
		return lccs.DurableConfig{}, fmt.Errorf("%w: sync_interval_ms %d overflows a duration", ErrInvalidSpec, s.SyncIntervalMS)
	}
	policy := s.Sync
	if policy == "" {
		policy = "always"
	}
	sp, err := lccs.ParseSyncPolicy(policy)
	if err != nil {
		return lccs.DurableConfig{}, fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	return lccs.DurableConfig{
		Config: lccs.Config{
			Metric:      kind,
			M:           s.M,
			Budget:      s.Budget,
			Seed:        s.Seed,
			BucketWidth: s.BucketWidth,
		},
		Sync:         sp,
		SyncInterval: time.Duration(s.SyncIntervalMS) * time.Millisecond,
		SegmentBytes: s.SegmentBytes,
		RebuildAt:    s.RebuildAt,
		FS:           fsys,
		Logger:       logger,
	}, nil
}

// Collection is one named index inside the registry: the backend that
// answers its queries, the writable index behind it, and the per-request
// state the serving layer keeps for it.
type Collection struct {
	name    string
	spec    Spec
	backend lccs.Searcher
	// dyn is backend as the writable index, resolved once: the journaled
	// DynamicIndex the registry opened, or an adopted DynamicIndex; nil
	// for a read-only backend.
	dyn *lccs.DynamicIndex
	// adopted marks a backend an embedder registered: the registry
	// neither drops nor closes it.
	adopted bool
	// dir is what Drop deletes: "" for the collections the registry
	// cannot drop — the default collection at the root and adopted
	// backends.
	dir string
	// usage is the collection's cumulative resource accounting and
	// serving its live request state; the serving layer records into
	// both on every request.
	usage   Usage
	serving Serving
}

// Name returns the collection's registry name.
func (c *Collection) Name() string { return c.name }

// Spec returns the resolved configuration the collection was opened
// with.
func (c *Collection) Spec() Spec { return c.spec }

// Backend returns the Searcher answering this collection's queries.
func (c *Collection) Backend() lccs.Searcher { return c.backend }

// Dynamic returns the writable index behind the collection — the
// journaled DynamicIndex the registry opened, or an adopted DynamicIndex,
// journaled or memory-only — or nil for a read-only backend. Writes and
// WAL stats go through it.
func (c *Collection) Dynamic() *lccs.DynamicIndex { return c.dyn }

// specFile is the on-disk spec name inside a collection directory.
const specFile = "COLLECTION.json"

// Engine is the collection registry. All methods are safe for
// concurrent use; per-collection work (opening, dropping) runs under a
// registry-wide lock — collection opens are rare (first use after a
// restart) and index opens of serving-size corpora are fast relative
// to request timeouts.
type Engine struct {
	root     string // "" = rootless (adopted backends only)
	defaults Spec
	logger   *slog.Logger
	// fs carries every file operation on the registry's directories:
	// spec reads and writes, listing, directory creation and every
	// durable collection's I/O. Only os.RemoveAll, which drops a
	// collection or clears a failed create, bypasses it (FS has no
	// RemoveAll, and neither is a durability step). Tests inject faults
	// through it.
	fs faultfs.FS

	mu     sync.RWMutex
	colls  map[string]*Collection
	closed bool
	// retiredUsage and retiredRequests are what the collections dropped
	// in this process counted, folded in by Drop, so a process-wide total
	// never falls.
	retiredUsage    UsageSnapshot
	retiredRequests obs.RequestCounts
}

// New opens a registry. root "" builds a rootless engine, which holds
// only adopted backends. A directory root is opened — recovering whatever
// a previous process left — as the durable default collection, with
// defaults as its spec; created collections persist under
// <root>/collections/<name>/. defaults fill zero fields of every Create
// spec. Existing created collections are NOT opened eagerly — they appear
// in List and open lazily on first Get.
func New(root string, defaults Spec, logger *slog.Logger) (*Engine, error) {
	if logger == nil {
		logger = obs.NopLogger()
	}
	e := &Engine{
		root:     root,
		defaults: defaults,
		logger:   logger,
		fs:       faultfs.OS{},
		colls:    make(map[string]*Collection),
	}
	if root == "" {
		return e, nil
	}
	if err := e.fs.MkdirAll(filepath.Join(root, "collections"), 0o755); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if _, err := e.openLocked(DefaultCollection, root, defaults); err != nil {
		return nil, err
	}
	return e, nil
}

// collDir returns the directory of a created collection.
func (e *Engine) collDir(name string) string {
	return filepath.Join(e.root, "collections", name)
}

// Adopt registers a pre-built backend under name. The registry does not
// manage its storage: it cannot be dropped, and Close leaves it alone
// (the embedder owns its lifecycle). A *lccs.DynamicIndex backend is the
// collection's writable index (Dynamic); any other backend is read-only.
func (e *Engine) Adopt(name string, backend lccs.Searcher) (*Collection, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	if backend == nil {
		return nil, errors.New("engine: Adopt requires a backend")
	}
	c := &Collection{name: name, backend: backend, adopted: true}
	if c.dyn, _ = backend.(*lccs.DynamicIndex); c.dyn != nil {
		c.serving.ClaimWAL(c.dyn.WALStats().AppendedBytes) // bytes journaled before adoption are no request's
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if _, dup := e.colls[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	e.colls[name] = c
	return c, nil
}

// Create makes a new durable collection under <root>/collections/<name>/.
// Its directory and COLLECTION.json spec are on disk before the index
// opens, so the collection survives restarts. A rootless engine answers
// ErrNoRoot.
func (e *Engine) Create(name string, spec Spec) (*Collection, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	spec = spec.merged(e.defaults)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if _, dup := e.colls[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	if e.root == "" {
		return nil, fmt.Errorf("%w: cannot create %q", ErrNoRoot, name)
	}
	dir := e.collDir(name)
	if e.hasSpec(dir) {
		return nil, fmt.Errorf("%w: %q (on disk)", ErrExists, name)
	}
	if err := e.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: create %q: %w", name, err)
	}
	if err := e.writeSpec(dir, spec); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("engine: create %q: %w", name, err)
	}
	c, err := e.openLocked(name, dir, spec)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e.logger.Info("collection created", "collection", name, "dir", dir)
	return c, nil
}

// Get returns the named collection, lazily opening it from its on-disk
// spec when the registry holds state for it but has not loaded it yet.
func (e *Engine) Get(name string) (*Collection, error) {
	e.mu.RLock()
	c, ok := e.colls[name]
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if ok {
		return c, nil
	}
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	if e.root == "" {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if c, ok := e.colls[name]; ok { // raced another opener
		return c, nil
	}
	spec, err := e.readSpec(e.collDir(name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if err != nil {
		return nil, fmt.Errorf("engine: open %q: %w", name, err)
	}
	c, err = e.openLocked(name, e.collDir(name), spec.merged(e.defaults))
	if err != nil {
		return nil, err
	}
	e.logger.Info("collection opened", "collection", name, "vectors", c.backend.Len())
	return c, nil
}

// openLocked opens the durable state in dir and registers it as the
// collection name. Caller holds e.mu, or is New.
func (e *Engine) openLocked(name, dir string, spec Spec) (*Collection, error) {
	dcfg, err := spec.durableConfig(e.fs, e.logger.With("collection", name))
	if err != nil {
		return nil, err
	}
	dur, err := lccs.OpenDurable(dir, dcfg)
	if err != nil {
		return nil, fmt.Errorf("engine: open %q: %w", name, err)
	}
	c := &Collection{name: name, spec: spec, backend: dur, dyn: dur}
	if dir != e.root {
		c.dir = dir // the root is the default collection's, never dropped
	}
	e.colls[name] = c
	return c, nil
}

// Drop closes the named collection and deletes its storage. The default
// collection and adopted backends are refused with ErrPinned.
func (e *Engine) Drop(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	c, ok := e.colls[name]
	if !ok {
		// Never opened this process: it may still exist on disk.
		if e.root != "" {
			if e.hasSpec(e.collDir(name)) {
				if err := os.RemoveAll(e.collDir(name)); err != nil {
					return fmt.Errorf("engine: drop %q: %w", name, err)
				}
				e.logger.Info("collection dropped", "collection", name)
				return nil
			}
		}
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if c.dir == "" {
		return fmt.Errorf("%w: %q", ErrPinned, name)
	}
	delete(e.colls, name)
	e.retiredUsage.Add(c.usage.Snapshot())
	e.retiredRequests.Add(c.serving.Requests.Snapshot())
	if err := c.dyn.Close(); err != nil {
		e.logger.Warn("closing dropped collection", "collection", name, "err", err)
	}
	if err := os.RemoveAll(c.dir); err != nil {
		return fmt.Errorf("engine: drop %q: %w", name, err)
	}
	e.logger.Info("collection dropped", "collection", name)
	return nil
}

// List returns every collection name — loaded ones and, on a rooted
// engine, on-disk collections not yet opened — sorted.
func (e *Engine) List() []string {
	e.mu.RLock()
	names := make(map[string]bool, len(e.colls))
	for name := range e.colls {
		names[name] = true
	}
	root := e.root
	e.mu.RUnlock()
	if root != "" {
		entries, err := e.fs.ReadDir(filepath.Join(root, "collections"))
		if err == nil {
			for _, ent := range entries {
				if !ent.IsDir() || ValidateName(ent.Name()) != nil {
					continue
				}
				if e.hasSpec(filepath.Join(root, "collections", ent.Name())) {
					names[ent.Name()] = true
				}
			}
		}
	}
	out := make([]string, 0, len(names))
	for name := range names {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Loaded returns the currently open collections (no lazy opening),
// sorted by name — the set a metrics scrape or checkpoint sweep should
// touch without forcing cold collections into memory.
func (e *Engine) Loaded() []*Collection {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.loadedLocked()
}

func (e *Engine) loadedLocked() []*Collection {
	out := make([]*Collection, 0, len(e.colls))
	for _, c := range e.colls {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Census returns Loaded and, read under the same lock, what the dropped
// collections counted: a collection is among the loaded or among the
// retired, never both nor neither, however Drop races the call. What a
// request still in flight in a collection adds after its Drop is lost.
func (e *Engine) Census() (loaded []*Collection, usage UsageSnapshot, requests []obs.RequestCount) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.loadedLocked(), e.retiredUsage, e.retiredRequests.Snapshot()
}

// Close closes every durable collection (adopted backends are left to
// their owner) and refuses further registry operations.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	var firstErr error
	for name, c := range e.colls {
		if c.adopted {
			continue
		}
		if err := c.dyn.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("engine: close %q: %w", name, err)
		}
	}
	return firstErr
}

// writeSpec persists the spec through faultfs.WriteFileAtomic, then
// fsyncs the collections directory, which holds the new collection's own
// entry. A crash mid-create never leaves a half-written COLLECTION.json
// that a restart would reject, and once it returns, a power loss cannot
// take the collection — and with it the writes acknowledged into it —
// out of List and Get.
func (e *Engine) writeSpec(dir string, spec Spec) error {
	buf, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	if err := faultfs.WriteFileAtomic(e.fs, filepath.Join(dir, specFile), append(buf, '\n')); err != nil {
		return err
	}
	return e.fs.SyncDir(filepath.Dir(dir))
}

// readSpec loads a collection's persisted spec.
func (e *Engine) readSpec(dir string) (Spec, error) {
	buf, err := e.fs.ReadFile(filepath.Join(dir, specFile))
	if err != nil {
		return Spec{}, err
	}
	var spec Spec
	if err := json.Unmarshal(buf, &spec); err != nil {
		return Spec{}, fmt.Errorf("%w: corrupt %s: %v", ErrInvalidSpec, specFile, err)
	}
	return spec, nil
}

// hasSpec reports whether dir holds a collection's spec file.
func (e *Engine) hasSpec(dir string) bool {
	f, err := e.fs.Open(filepath.Join(dir, specFile))
	if err != nil {
		return false
	}
	f.Close()
	return true
}
