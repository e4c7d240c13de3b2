// Package concat implements the static concatenating search framework
// (§1, "Prior Work"): K i.i.d. LSH functions are concatenated into a
// compound hash G(o) = (h_1(o), ..., h_K(o)), L such compound functions
// build L hash tables, and a query inspects its bucket in each table.
//
// With Probes = 1 this is E2LSH (Indyk–Motwani / Datar et al.). With
// Probes > 1 it adds query-directed probing in the style of Multi-Probe
// LSH (Lv et al.) for the random-projection family and FALCONN (Andoni et
// al.) for the cross-polytope family: per table, perturbation sets over
// the K positions are enumerated in ascending score order and the
// corresponding extra buckets are inspected. The packages e2lsh, mplsh,
// and falconn are thin named wrappers over this engine.
//
// A table's K functions hash an object through lshfamily.HashString, at
// build and at query time, so random-projection tables are scored four
// functions per kernel pass, as LCCS-LSH's hash strings are.
package concat

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"lccs/internal/lshfamily"
	"lccs/internal/pqueue"
	"lccs/internal/rng"
	"lccs/internal/vec"
)

// Params configures a static-concatenation index.
type Params struct {
	// K is the number of concatenated hash functions per table.
	K int
	// L is the number of hash tables.
	L int
	// Probes is the number of buckets inspected per table (1 = exact
	// bucket only, as in E2LSH).
	Probes int
	// MaxAlt bounds the per-position alternative list used to build
	// perturbation sets; 0 selects a default of 4.
	MaxAlt int
	// Seed drives hash function draws.
	Seed uint64
}

const defaultMaxAlt = 4

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.K <= 0 || p.L <= 0 {
		return fmt.Errorf("concat: K and L must be positive (K=%d, L=%d)", p.K, p.L)
	}
	if p.Probes <= 0 {
		return fmt.Errorf("concat: Probes must be positive, got %d", p.Probes)
	}
	if p.MaxAlt < 0 {
		return errors.New("concat: MaxAlt must be non-negative")
	}
	return nil
}

// Index is a static-concatenation LSH index. It is safe for concurrent
// queries.
type Index struct {
	family lshfamily.Family
	metric vec.Metric
	data   [][]float32
	funcs  [][]lshfamily.Func // L tables × K functions
	tables []map[uint64][]int32
	params Params

	buildTime time.Duration
	entries   int64
	scratch   sync.Pool
}

type queryScratch struct {
	visited []int32
	gen     int32
	key     []int32
	alts    [][]lshfamily.Alternative
}

// Build constructs the index over data.
func Build(data [][]float32, family lshfamily.Family, p Params) (*Index, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, errors.New("concat: empty dataset")
	}
	if p.MaxAlt == 0 {
		p.MaxAlt = defaultMaxAlt
	}
	start := time.Now()
	g := rng.New(p.Seed)
	ix := &Index{
		family: family,
		metric: family.Metric(),
		data:   data,
		funcs:  make([][]lshfamily.Func, p.L),
		tables: make([]map[uint64][]int32, p.L),
		params: p,
	}
	for l := 0; l < p.L; l++ {
		ix.funcs[l] = lshfamily.NewFuncs(family, p.K, g)
		table := make(map[uint64][]int32, len(data))
		key := make([]int32, p.K)
		for id, v := range data {
			h := hashKey(lshfamily.HashString(ix.funcs[l], v, key))
			table[h] = append(table[h], int32(id))
			ix.entries++
		}
		ix.tables[l] = table
	}
	ix.scratch.New = func() any {
		return &queryScratch{
			visited: make([]int32, len(data)),
			key:     make([]int32, p.K),
			alts:    make([][]lshfamily.Alternative, p.K),
		}
	}
	ix.buildTime = time.Since(start)
	return ix, nil
}

// hashKey mixes a compound hash value into a 64-bit bucket id
// (FNV-1a over the K int32 words).
func hashKey(key []int32) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, k := range key {
		u := uint32(k)
		for s := 0; s < 32; s += 8 {
			h ^= uint64((u >> s) & 0xff)
			h *= prime
		}
	}
	return h
}

// Params returns the build parameters.
func (ix *Index) Parameters() Params { return ix.params }

// BuildTime returns the wall-clock indexing time.
func (ix *Index) BuildTime() time.Duration { return ix.buildTime }

// Bytes approximates the index memory: bucket entries (id + amortized map
// overhead) plus the hash functions.
func (ix *Index) Bytes() int64 {
	var funcBytes int64
	for _, fs := range ix.funcs {
		funcBytes += lshfamily.FuncsBytes(fs)
	}
	// ~16 bytes per entry: 4 for the id, the rest amortized map/bucket
	// header overhead, matching how lshkit-style implementations report
	// size.
	return ix.entries*16 + funcBytes
}

// Search answers a k-NN query: it probes Probes buckets in each of the L
// tables, deduplicates the union of bucket members, verifies them with
// exact distances, and returns the k nearest.
func (ix *Index) Search(q []float32, k int) []pqueue.Neighbor {
	res, _ := ix.SearchWithStats(q, k)
	return res
}

// Stats reports the verification work of one query.
type Stats struct {
	Candidates int
	Buckets    int
}

// SearchWithStats is Search plus work counters.
func (ix *Index) SearchWithStats(q []float32, k int) ([]pqueue.Neighbor, Stats) {
	if k <= 0 {
		return nil, Stats{}
	}
	sc := ix.scratch.Get().(*queryScratch)
	defer ix.scratch.Put(sc)
	sc.gen++

	best := pqueue.NewKBest(k)
	var st Stats
	for l := range ix.tables {
		lshfamily.HashString(ix.funcs[l], q, sc.key)
		ix.probeTable(l, q, sc, best, &st)
	}
	return best.Sorted(), st
}

// probeTable inspects the primary bucket of table l and, if Probes > 1,
// the perturbed buckets in ascending perturbation-score order.
func (ix *Index) probeTable(l int, q []float32, sc *queryScratch, best *pqueue.KBest, st *Stats) {
	ix.scanBucket(l, hashKey(sc.key), q, sc, best, st)
	probes := ix.params.Probes
	if probes <= 1 {
		return
	}
	pfuncs, ok := lshfamily.ProbeFuncs(ix.funcs[l])
	if !ok {
		return
	}
	for j, pf := range pfuncs {
		sc.alts[j] = pf.Alternatives(q, ix.params.MaxAlt, sc.alts[j])
	}
	perts := generatePerturbationSets(sc.alts, probes-1)
	key := make([]int32, len(sc.key))
	for _, p := range perts {
		copy(key, sc.key)
		for _, md := range p.mods {
			key[md.pos] = sc.alts[md.pos][md.alt].Value
		}
		ix.scanBucket(l, hashKey(key), q, sc, best, st)
	}
}

func (ix *Index) scanBucket(l int, h uint64, q []float32, sc *queryScratch, best *pqueue.KBest, st *Stats) {
	st.Buckets++
	for _, id := range ix.tables[l][h] {
		if sc.visited[id] == sc.gen {
			continue
		}
		sc.visited[id] = sc.gen
		best.Add(int(id), ix.metric.Distance(ix.data[id], q))
		st.Candidates++
	}
}
