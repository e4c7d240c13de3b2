// Package lccs is the public API of this repository: a Go implementation
// of LCCS-LSH, the Locality-Sensitive Hashing scheme based on the Longest
// Circular Co-Substring search framework (Lei, Huang, Kankanhalli, Tung —
// SIGMOD 2020).
//
// An index hashes every data vector with m i.i.d. LSH functions into a
// length-m hash string and organizes the strings in a Circular Shift
// Array. A query retrieves the data objects whose hash strings share the
// longest circular co-substring with the query's hash string — a dynamic
// concatenation of consecutive hash values — verifies them with exact
// distances, and returns the k nearest. The scheme is LSH-family
// independent: Euclidean, Angular (cosine), and Hamming metrics are
// supported out of the box, and only one capacity parameter (m) needs
// tuning.
//
// Basic usage:
//
//	ix, err := lccs.NewIndex(data, lccs.Config{Metric: lccs.Euclidean, M: 64})
//	if err != nil { ... }
//	neighbors, err := ix.Search(query, 10)
//
// Every search on every facade goes through one method, SearchQuery,
// which takes one request value:
//
//	res, err := ix.SearchQuery(query, lccs.Query{K: 10, Budget: 400, Filter: f}, dst)
//
// Query carries the candidate budget λ (0 = the index's default), an
// optional attribute Filter, and optional Cost and Trace recorders;
// Search and SearchInto are one-line conveniences for Query{K: k},
// SearchBatch answers many queries across all CPUs, and SearchCursor
// pages through the ranking of one such query.
//
// The package has two facades. Index is immutable: NewIndex builds one
// CSA, NewShardedIndex partitions the dataset across S shards whose CSAs
// build in parallel, and Load opens either from a saved file. DynamicIndex
// is a delta-main structure whose buffered inserts are rebuilt into new
// shards in the background without blocking writers; opened with
// OpenDurable, it also journals its writes to a write-ahead log before
// acknowledging them. Both facades sit over one segment set
// (segset.go), which owns the query — q hashed once, every shard and the
// buffer verified into one k-best collector — and the budget rule, and
// both implement the Searcher interface, so consumers (including the
// internal/server network daemon behind cmd/lccs-serve) are agnostic to
// which facade backs them. See README.md for the architecture and
// shard-count guidance.
package lccs

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"lccs/internal/core"
	"lccs/internal/obs"
	"lccs/internal/pqueue"
	"lccs/internal/rng"
	"lccs/internal/vec"
)

// Trace is the per-request span recorder of the observability layer
// (internal/obs), re-exported so callers outside the module can drive
// Query.Trace. A nil *Trace is always valid and selects the untraced
// zero-allocation path; every Trace method is nil-safe.
type Trace = obs.Trace

// SpanNode is the serialized form of one trace span, children nested —
// what Trace.Tree returns and what the server inlines for
// "trace": true requests.
type SpanNode = obs.SpanNode

// NewTrace draws a pooled, reset Trace stamped with the caller's
// request id. Pair with ReleaseTrace once the span tree has been
// consumed; the Trace must not be used after release.
func NewTrace(id uint64) *Trace { return obs.GetTrace(id) }

// ReleaseTrace returns a Trace to the pool. Safe on nil.
func ReleaseTrace(t *Trace) { obs.PutTrace(t) }

// Cost is the per-query resource-cost record a search accumulates into
// Query.Cost: every counter is summed across shards and the delta
// buffer, so one Cost describes the whole query regardless of which
// facade answered it. All fields are additive — reuse one Cost across
// queries to meter a workload, or reset it per query to bill one. A
// tombstoned row is dropped before the filter and before any distance
// work: it is neither a candidate nor filter-rejected.
type Cost struct {
	// Comparisons counts hash-string comparisons by the CSA circular
	// binary searches (the retrieval phase's rows touched).
	Comparisons int64 `json:"comparisons"`
	// Candidates counts data objects verified with a distance kernel.
	Candidates int64 `json:"candidates"`
	// Reranked counts SQ8-scan survivors re-ranked with exact float32
	// distances (0 on unquantized indexes).
	Reranked int64 `json:"reranked"`
	// BytesScanned is the vector-block memory traffic of verification,
	// the bytes the distance kernels read: SQ8 score gathers at 1 byte per
	// dimension per candidate; float32 gathers and the exact re-rank at 4,
	// except that a Euclidean row is read only until it cannot make the k
	// nearest (past 64 dimensions; see docs/PERFORMANCE.md, "Bounded
	// verification"), so it may charge less than the row.
	BytesScanned int64 `json:"bytes_scanned"`
	// FilterRejected counts candidates the filter predicate discarded
	// before any distance work.
	FilterRejected int64 `json:"filter_rejected"`
}

// Reset zeroes every counter. Safe on nil.
func (c *Cost) Reset() {
	if c != nil {
		*c = Cost{}
	}
}

// addStats folds one core-level stats record into the cost. Safe on
// nil, so untraced unmetered callers pass nil and pay one branch.
func (c *Cost) addStats(st core.SearchStats) {
	if c == nil {
		return
	}
	c.Comparisons += int64(st.Comparisons)
	c.Candidates += int64(st.Candidates)
	c.Reranked += int64(st.Reranked)
	c.BytesScanned += st.BytesScanned
	c.FilterRejected += int64(st.FilterRejected)
}

// Query is the one request value every facade's SearchQuery and
// SearchCursor take. The zero value of each optional field selects the
// plain behaviour, and the fields degrade independently: Query{K: k} is
// exactly Search(q, k), and with Filter, Cost, and Trace all nil the
// steady-state path stays allocation-free.
type Query struct {
	// K is the number of neighbors wanted (a cursor's page size).
	// Required (> 0).
	K int
	// Budget is the candidate budget λ: the query verifies the λ+K−1 data
	// objects whose hash strings share the longest circular co-substring
	// with the query's, so larger budgets trade time for recall. How it is
	// shared among shards, and why a budget of at least Len() is exactly
	// brute force on every facade, is the segment set's budget rule
	// (segset.go). 0 selects the facade's default (Config.Budget);
	// negative is ErrInvalidBudget.
	Budget int
	// Filter restricts results to vectors whose attributes match; nil or
	// empty matches everything.
	Filter *Filter
	// Cost, when non-nil, has the query's resource cost added to it.
	Cost *Cost
	// Trace, when non-nil, records the query's spans: a query root, one
	// shard_scan span per shard carrying CSA-comparison,
	// verified-candidate and bytes-scanned counters, a buffer_scan span on
	// a DynamicIndex, and a merge span — the final sort and id mapping —
	// whenever more than one source (shards and buffer) fed the collector.
	Trace *Trace
}

// Typed query-validation errors. Every facade returns exactly these (or
// wrapped forms testable with errors.Is) for the corresponding invalid
// input instead of silently returning an empty result.
var (
	// ErrInvalidK is returned when k ≤ 0.
	ErrInvalidK = errors.New("lccs: k must be positive")
	// ErrInvalidBudget is returned for a negative candidate budget λ
	// (0 selects the facade's default).
	ErrInvalidBudget = errors.New("lccs: candidate budget must be positive")
	// ErrEmptyQuery is returned for a nil or zero-length query vector.
	ErrEmptyQuery = errors.New("lccs: nil or empty query")
	// ErrEmptyVector is returned by write paths (DynamicIndex.Add) for a
	// nil or zero-length vector.
	ErrEmptyVector = errors.New("lccs: nil or empty vector")
	// ErrDimensionMismatch is returned when the query dimensionality does
	// not match the indexed data.
	ErrDimensionMismatch = errors.New("lccs: query dimension mismatch")
	// ErrNonFinite is returned when a query, an inserted vector, or a
	// dataset row holds a NaN or infinite coordinate, or, under Angular,
	// coordinates whose float32 sum of squares overflows (every cosine of
	// such a vector comes out 0 or NaN): such a vector has no meaningful
	// distance to anything, so it is rejected at the door — on a
	// journaled DynamicIndex before anything is journaled.
	ErrNonFinite = errors.New("lccs: vector has a NaN or infinite coordinate")
)

// Searcher is the facade-agnostic query interface implemented by Index
// and DynamicIndex, memory-only or journaled. Consumers that only
// search — the network server, evaluation harnesses, future backends —
// should accept a Searcher rather than a concrete facade.
//
// All search methods validate their input and return the package's
// typed errors (ErrInvalidK, ErrInvalidBudget, ErrEmptyQuery,
// ErrDimensionMismatch, ErrNonFinite, ErrInvalidFilter); results are in
// ascending distance order.
type Searcher interface {
	// Search returns the k nearest neighbors under the facade's default
	// candidate budget: SearchQuery(q, Query{K: k}, nil).
	Search(q []float32, k int) ([]Neighbor, error)
	// SearchInto is Search appending into dst (reset to dst[:0] first):
	// the zero-allocation steady-state path for callers that reuse a
	// result buffer across queries. dst may be nil.
	SearchInto(q []float32, k int, dst []Neighbor) ([]Neighbor, error)
	// SearchQuery is the one query path: budgeted, filtered, metered and
	// traced as qr says, appending into dst like SearchInto.
	SearchQuery(q []float32, qr Query, dst []Neighbor) ([]Neighbor, error)
	// SearchBatch answers many queries (concurrently where the facade
	// supports it) under one k and budget (0 selects the default), in
	// query order; each row is what SearchQuery would return.
	SearchBatch(queries [][]float32, k, budget int) ([][]Neighbor, error)
	// SearchCursor pages through the ranking of one query, qr.K being the
	// page size: an empty cursor starts a scan whose first page is
	// SearchQuery(q, qr, nil), later pages hold the next ranks of that
	// query's candidate set, and next is empty once it is exhausted.
	// Resuming ignores qr.Budget (the token carries the first page's) and
	// refuses a token minted for another query, filter or index instance
	// (ErrCursorInvalid), or before a write (ErrCursorStale). Cost and
	// Trace meter each page as they do a one-shot.
	SearchCursor(q []float32, qr Query, cursor string) (page []Neighbor, next string, err error)
	// Len returns the number of searchable vectors.
	Len() int
	// Distance returns the facade's metric distance between two vectors.
	Distance(a, b []float32) float64
}

// Compile-time conformance of the facades.
var (
	_ Searcher = (*Index)(nil)
	_ Searcher = (*DynamicIndex)(nil)
)

// resolve applies the shared query contract — positive K, a non-negative
// budget, a non-empty admissible query of the set's dimensionality (once a
// first row has fixed it), a well-formed filter — and returns the
// effective k and candidate budget (qr.Budget, or the configured default
// when that is 0), each capped at the set's row count: a larger value asks
// for nothing more, and every sum taken downstream stays in range.
func (qr Query) resolve(q []float32, s *segSet) (k, lambda int, err error) {
	if qr.K <= 0 {
		return 0, 0, ErrInvalidK
	}
	if lambda = qr.Budget; lambda == 0 {
		lambda = s.cfg.Budget
	}
	if lambda <= 0 {
		return 0, 0, ErrInvalidBudget
	}
	if len(q) == 0 {
		return 0, 0, ErrEmptyQuery
	}
	if dim := s.tail.Dim(); dim > 0 && len(q) != dim {
		return 0, 0, fmt.Errorf("%w: query has %d dimensions, index has %d", ErrDimensionMismatch, len(q), dim)
	}
	if !admissible(q, s.cfg.Metric) {
		return 0, 0, ErrNonFinite
	}
	if err := qr.Filter.Validate(); err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrInvalidFilter, err)
	}
	rows := s.slots()
	return min(qr.K, rows), min(lambda, rows), nil
}

// finite reports whether every coordinate of v is finite. v−v is 0 for a
// finite v and NaN for NaN and ±Inf.
func finite(v []float32) bool {
	for _, x := range v {
		if x-x != 0 {
			return false
		}
	}
	return true
}

// admissible reports whether v may enter an index of the given metric, as
// a row or as a query: every coordinate finite and, under Angular, a
// float32 sum of squares that does not overflow, without which every
// cosine of v comes out 0 or NaN. Euclidean needs no such rule: its
// overflowed distances are +Inf, which rank like any other.
func admissible(v []float32, metric MetricKind) bool {
	return finite(v) && (metric != Angular || !math.IsInf(vec.Norm(v), 1))
}

// ParseMetric resolves a CLI-style metric name to a MetricKind. It
// accepts the canonical names of all four supported metrics plus common
// aliases: euclidean/l2, angular/cosine, hamming, jaccard/minhash.
func ParseMetric(name string) (MetricKind, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "euclidean", "l2":
		return Euclidean, nil
	case "angular", "cosine":
		return Angular, nil
	case "hamming":
		return Hamming, nil
	case "jaccard", "minhash":
		return Jaccard, nil
	}
	return "", fmt.Errorf("lccs: unknown metric %q (want euclidean|angular|hamming|jaccard)", name)
}

// MetricKind selects the distance metric (and with it the default LSH
// family) of an index.
type MetricKind string

// Supported metrics and their LSH families.
const (
	// Euclidean uses the p-stable random-projection family of Datar et
	// al. (Eq. 1 of the paper).
	Euclidean MetricKind = "euclidean"
	// Angular uses the cross-polytope family of Andoni et al. (Eq. 3)
	// with fast pseudo-random rotations; vectors are compared by angle.
	Angular MetricKind = "angular"
	// Hamming uses the bit-sampling family of Indyk–Motwani; vectors
	// must hold integral 0/1 coordinates.
	Hamming MetricKind = "hamming"
	// Jaccard uses the MinHash family of Broder; vectors are binary
	// indicator encodings of sets (coordinate j nonzero ⇔ j ∈ set).
	Jaccard MetricKind = "jaccard"
)

// QuantizeSQ8 selects the per-dimension affine int8 scalar quantization
// for Config.Quantize: candidate verification scans one byte per
// dimension instead of four, and the best Rerank candidates are
// re-ranked with exact float32 distances, so returned distances are
// always exact.
const QuantizeSQ8 = "sq8"

// Config configures an index.
type Config struct {
	// Metric selects the distance metric. Required.
	Metric MetricKind
	// M is the hash-string length, the scheme's single capacity
	// parameter: larger m raises recall per candidate at the cost of
	// memory and per-query hashing. The CSA holds (c + 8)·n·m bytes,
	// where c = 1, 2 or 4 is the width of its symbol codes (see
	// internal/csa). 0 selects 64.
	M int
	// BucketWidth is the w of the Euclidean family (Eq. 1); it must be
	// finite. 0 derives it from the data, mirroring how the paper
	// fine-tunes w per dataset: twice the median, over 64 sampled rows,
	// of each row's smallest non-zero distance to up to 512 random rows.
	BucketWidth float64
	// Budget is the default per-query candidate budget λ used by Search.
	// 0 selects 100.
	Budget int
	// Seed makes index construction deterministic.
	Seed uint64
	// Quantize selects an optional compressed mirror of the vector store
	// scanned during candidate verification. "" (the default) verifies
	// against the exact float32 store; QuantizeSQ8 scans a per-dimension
	// affine int8 quantization — a quarter of the memory traffic — and
	// restores exactness by re-ranking the best Rerank candidates with
	// float32 distances. Supported for Euclidean and Angular metrics.
	Quantize string
	// Rerank is the number of quantized-scan survivors re-ranked with
	// exact distances per query when Quantize is set. 0 selects
	// min(64, n), raised to the query's k at query time; larger values
	// recover recall lost to quantization noise at the cut line.
	Rerank int
}

// Neighbor is one search result: the index of a data vector (ID) and
// its exact, verified distance to the query under the index's metric
// (Dist).
type Neighbor = pqueue.Neighbor

// Index is an LCCS-LSH index over a fixed dataset, partitioned across S
// shards: the immutable S-segment case of the segment set (segset.go).
// Each shard is an independent CSA over a contiguous slice of the data,
// and all shards share one fully resolved configuration — the same seed,
// hash-string length m, and bucket width (derived once from the full
// dataset) — so an index is seed-equivalent whatever its shard count. The
// vectors are packed once into one flat store (one contiguous float32
// block) shared by every shard; the input rows are not referenced
// afterwards, and sharding adds no per-shard copies.
//
// Sharding serves construction: the orders of one CSA are induced from
// one another, shift by shift, on one core, and S shards build S
// independent problems of size n/S in parallel, each over an S× smaller
// working set. A query visits the shards in sequence, hashing q once and
// verifying every shard's candidates into one top-k collector. Query cost
// grows mildly with S (each shard runs its own binary searches and
// verifies its own candidate floor), so prefer the smallest shard count
// whose build time is acceptable: NewIndex is one shard, NewShardedIndex
// with GOMAXPROCS suits build-heavy workloads.
//
// An Index taken from DynamicIndex.Snapshot (or loaded from such a
// snapshot's file) also carries the snapshot's id map and tombstones; on
// fresh builds and on loads without a lifecycle section both stay empty,
// keeping the common path untouched.
//
// An Index is safe for concurrent queries; per-query scratch is pooled,
// so the sequential SearchInto path allocates nothing at steady state.
type Index struct {
	segSet
	buildTime time.Duration
	// epoch is the generation cursor tokens are minted under: unique to
	// this instance, so a token resumes only on the index that minted it.
	epoch uint64
}

// indexOf makes set an Index with a fresh cursor epoch.
func indexOf(set segSet, buildTime time.Duration) *Index {
	ix := &Index{segSet: set, buildTime: buildTime, epoch: nextCursorEpoch()}
	ix.adopt(false)
	return ix
}

const (
	defaultM      = 64
	defaultBudget = 100
)

// resolveConfig fills a Config's derived fields against a dataset:
// defaults for M and Budget, and the auto-derived Euclidean bucket width.
// It is idempotent, so an already resolved Config passes through
// unchanged — which is how every shard of an Index ends up with the
// exact same (seed-equivalent) configuration.
func resolveConfig(store *vec.Store, cfg Config) (Config, error) {
	if store.Len() == 0 {
		return cfg, errors.New("lccs: empty dataset")
	}
	if store.Dim() == 0 {
		return cfg, errors.New("lccs: zero-dimensional data")
	}
	if cfg.M == 0 {
		cfg.M = defaultM
	}
	if cfg.Budget == 0 {
		cfg.Budget = defaultBudget
	}
	if _, err := validateConfig(cfg); err != nil {
		return cfg, err
	}
	if cfg.Metric == Euclidean && cfg.BucketWidth == 0 {
		cfg.BucketWidth = autoBucketWidth(store, cfg.Seed)
	}
	return cfg, nil
}

// storeFromRows packs public row-slice input into a flat store — the
// one door dataset rows enter by — rejecting a row whose dimension is not
// row 0's, then a row not admissible under metric (Load, which learns the
// metric from the file, passes "": finite rows). It is one pass over
// GOMAXPROCS contiguous row ranges, each checking a row and then copying it
// into the block, and stopping its copies at its first bad row, so a
// rejected dataset is never copied whole. The error names the lowest
// offending row, a dimension error before any other.
func storeFromRows(rows [][]float32, metric MetricKind) (*vec.Store, error) {
	n := len(rows)
	if n == 0 {
		return vec.FromRows(nil)
	}
	dim := len(rows[0])
	if dim == 0 {
		return nil, errors.New("lccs: vec: zero-dimensional row 0")
	}
	block := make([]float32, n*dim)
	// firstBad is a range's lowest row of the wrong dimension and its
	// lowest inadmissible row, n where it has none.
	type firstBad struct{ dim, value int }
	workers := min(runtime.GOMAXPROCS(0), n)
	chunk := (n + workers - 1) / workers
	bad := make([]firstBad, workers)
	var wg sync.WaitGroup
	for w := range bad {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := firstBad{n, n}
			for i := w * chunk; i < min((w+1)*chunk, n); i++ {
				if len(rows[i]) != dim {
					b.dim = i
					break
				}
				if b.value < n {
					continue
				}
				if !admissible(rows[i], metric) {
					b.value = i
					continue
				}
				copy(block[i*dim:], rows[i])
			}
			bad[w] = b
		}(w)
	}
	wg.Wait()
	// The dimension errors keep the text vec.FromRows gives them.
	for _, b := range bad {
		if b.dim < n {
			return nil, fmt.Errorf("lccs: vec: row %d has dimension %d, want %d", b.dim, len(rows[b.dim]), dim)
		}
	}
	for _, b := range bad {
		if b.value < n {
			return nil, fmt.Errorf("%w: data row %d", ErrNonFinite, b.value)
		}
	}
	return vec.FromBlock(dim, block)
}

// validateConfig checks a Config without a dataset — value ranges and
// metric resolvability — and returns the metric it selects. It is the
// single source of truth shared by resolveConfig and the empty-start
// dynamic path, where no build runs yet. A zero Euclidean bucket width is
// acceptable here — it is auto-derived when the first build sees data.
func validateConfig(cfg Config) (vec.Metric, error) {
	if cfg.M < 0 || cfg.Budget < 0 || cfg.BucketWidth < 0 || cfg.Rerank < 0 {
		return nil, errors.New("lccs: negative configuration value")
	}
	switch cfg.Quantize {
	case "":
	case QuantizeSQ8:
		if cfg.Metric != Euclidean && cfg.Metric != Angular {
			return nil, fmt.Errorf("lccs: quantize %q supports euclidean and angular metrics, got %q", cfg.Quantize, cfg.Metric)
		}
	default:
		return nil, fmt.Errorf("lccs: unknown quantization %q (want %q)", cfg.Quantize, QuantizeSQ8)
	}
	if cfg.Metric == Euclidean && cfg.BucketWidth == 0 {
		cfg.BucketWidth = 1 // resolvability check only; derived at build time
	}
	family, err := familyFor(cfg, 1) // any dimension resolves the metric
	if err != nil {
		return nil, err
	}
	return family.Metric(), nil
}

// NewIndex builds an LCCS-LSH index over data as one shard. The rows are
// packed once into a flat vector store; data itself is not retained.
func NewIndex(data [][]float32, cfg Config) (*Index, error) {
	return NewShardedIndex(data, cfg, 1)
}

// buildCore builds one segment's core index over a store under a
// resolved configuration — the shared constructor behind the per-shard
// builds of an Index and the dynamic delta builds. Segments built under
// one resolved Config draw the same hash functions.
func buildCore(store *vec.Store, cfg Config) (*core.Index, error) {
	family, err := familyFor(cfg, store.Dim())
	if err != nil {
		return nil, err
	}
	c, err := core.BuildStore(store, family, core.Params{M: cfg.M, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	if cfg.Quantize == QuantizeSQ8 {
		// Quantize exactly the rows this segment covers: the store is
		// already the segment's view, so codebooks are per-segment.
		c.EnableSQ8(vec.QuantizeSQ8(store), cfg.Rerank)
	}
	return c, nil
}

// autoBucketWidth estimates a bucket width from the data: twice the median
// distance from a sampled point to its nearest neighbor within a small
// sample, which places true near neighbors in the high-collision regime of
// Eq. 2.
func autoBucketWidth(store *vec.Store, seed uint64) float64 {
	g := rng.New(seed ^ 0xB0C4E7)
	const samples = 64
	const pool = 512
	n := store.Len()
	dists := make([]float64, 0, samples)
	for s := 0; s < samples; s++ {
		a := store.Row(g.IntN(n))
		best := -1.0
		for t := 0; t < pool && t < n; t++ {
			b := store.Row(g.IntN(n))
			d := vec.Distance(a, b)
			if d == 0 {
				continue
			}
			if best < 0 || d < best {
				best = d
			}
		}
		if best > 0 {
			dists = append(dists, best)
		}
	}
	if len(dists) == 0 {
		return 1
	}
	sort.Float64s(dists)
	w := 2 * dists[len(dists)/2]
	if w <= 0 {
		return 1
	}
	return w
}

// Search returns the k nearest neighbors of q across all shards with the
// index's default candidate budget, in ascending distance order. Ids are
// global: they index into the data slice the index was built from.
func (ix *Index) Search(q []float32, k int) ([]Neighbor, error) {
	return ix.SearchQuery(q, Query{K: k}, nil)
}

// SearchInto is Search appending into dst (reset to dst[:0] first): with
// a reused dst, a steady-state query performs no heap allocations.
func (ix *Index) SearchInto(q []float32, k int, dst []Neighbor) ([]Neighbor, error) {
	return ix.SearchQuery(q, Query{K: k}, dst)
}

// SearchQuery answers qr, appending into dst (reset to dst[:0] first;
// dst may be nil): the set's one query, visiting the shards in sequence.
// A vector with no metadata matches only the empty filter.
func (ix *Index) SearchQuery(q []float32, qr Query, dst []Neighbor) ([]Neighbor, error) {
	return ix.searchQuery(q, qr, 0, dst)
}

// Shards returns the number of shards.
func (ix *Index) Shards() int { return len(ix.segs) }

// M returns the hash-string length (identical across shards).
func (ix *Index) M() int { return ix.segs[0].core.M() }

// Deleted returns the number of tombstoned rows this index carries
// (non-zero only for dynamic snapshots taken with pending deletes).
func (ix *Index) Deleted() int { return ix.dead.Count() }

// Bytes returns the approximate total index memory footprint.
func (ix *Index) Bytes() int64 {
	var total int64
	for _, seg := range ix.segs {
		total += seg.core.Bytes()
	}
	return total
}

// BuildTime returns the wall-clock time of the (parallel) build; zero for
// a loaded index or a snapshot.
func (ix *Index) BuildTime() time.Duration { return ix.buildTime }
