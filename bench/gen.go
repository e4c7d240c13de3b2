package main

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
)

// recipe describes one synthetic vector distribution. The three recipes
// below are copies of the ones the repository's own tools use
// (cmd/lccs-bench's benchWorkload and internal/dataset's sift and gist
// presets) — copied, not imported, so nothing outside bench/ can change
// a workload's inputs.
type recipe struct {
	dim      int
	clusters int
	scale    float64 // cluster centres are uniform in [-scale, scale]^dim
	spread   float64 // within-cluster standard deviation
	noise    float64 // share of rows drawn uniformly instead of from a cluster
	nonNeg   bool    // reflect negative coordinates (sift, gist)
	quantize bool    // truncate to integers (sift)
	// nearData draws each query as a random data row plus 0.3·N(0,1) noise
	// (the legacy d16 recipe); otherwise queries are held-out draws from
	// the same mixture (the internal/dataset recipes).
	nearData bool
}

var (
	recipeD16  = recipe{dim: 16, clusters: 64, scale: 10, spread: 1, nearData: true}
	recipeSift = recipe{dim: 128, clusters: 128, scale: 128, spread: 24, noise: 0.02, nonNeg: true, quantize: true}
	recipeGist = recipe{dim: 960, clusters: 48, scale: 0.5, spread: 0.08, noise: 0.02, nonNeg: true}
)

// newRand returns the PCG stream for one purpose of one workload: the
// same (seed, workload, stream) always yields the same numbers.
func newRand(seed uint64, workload, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	h.Write([]byte{0})
	h.Write([]byte(stream))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// rows carves n row views out of one contiguous block.
func rows(n, dim int) [][]float32 {
	block := make([]float32, n*dim)
	out := make([][]float32, n)
	for i := range out {
		out[i] = block[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return out
}

func (rc recipe) finish(v []float32) {
	for j := range v {
		if rc.nonNeg && v[j] < 0 {
			v[j] = -v[j]
		}
		if rc.quantize {
			v[j] = float32(int32(v[j]))
		}
	}
}

// mixture draws n rows from the recipe's Gaussian mixture around centres.
func (rc recipe) mixture(r *rand.Rand, centres [][]float32, n int) [][]float32 {
	out := rows(n, rc.dim)
	for _, v := range out {
		if r.Float64() < rc.noise {
			for j := range v {
				v[j] = float32((r.Float64()*2 - 1) * rc.scale)
			}
		} else {
			c := centres[r.IntN(len(centres))]
			for j := range v {
				v[j] = c[j] + float32(r.NormFloat64()*rc.spread)
			}
		}
		rc.finish(v)
	}
	return out
}

// centres are the mixture's cluster centres. They are part of the
// workload's definition, not of its seed: every seed samples the same
// distribution, so that a metric's spread across seeds is sampling noise
// and not the luck of one cluster geometry (which moved search time by
// ±10% when the centres followed the seed).
func (rc recipe) centres(workload string) [][]float32 {
	r := newRand(0, workload, "centres")
	centres := rows(rc.clusters, rc.dim)
	for _, c := range centres {
		for j := range c {
			c[j] = float32((r.Float64()*2 - 1) * rc.scale)
		}
	}
	return centres
}

// generate makes the workload's inputs from its seed: n data rows, extra
// rows held back for inserts, and nq queries.
func (rc recipe) generate(seed uint64, workload string, n, extra, nq int) (data, inserts, queries [][]float32) {
	centres := rc.centres(workload)
	data = rc.mixture(newRand(seed, workload, "data"), centres, n)
	inserts = rc.mixture(newRand(seed, workload, "inserts"), centres, extra)
	rq := newRand(seed, workload, "queries")
	if !rc.nearData {
		return data, inserts, rc.mixture(rq, centres, nq)
	}
	queries = rows(nq, rc.dim)
	for _, q := range queries {
		base := data[rq.IntN(n)]
		for j := range q {
			q[j] = base[j] + float32(rq.NormFloat64()*0.3)
		}
	}
	return data, inserts, queries
}

// sqDistWithin is the benchmark's own reference distance: float64
// accumulation, independent of the program's float32 kernels. It gives up,
// returning a value above limit, once the partial sum has passed limit —
// which most rows of another cluster do within a few dozen coordinates.
func sqDistWithin(a, b []float32, limit float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := float64(a[i]) - float64(b[i])
		d1 := float64(a[i+1]) - float64(b[i+1])
		d2 := float64(a[i+2]) - float64(b[i+2])
		d3 := float64(a[i+3]) - float64(b[i+3])
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		if i&31 == 28 && s0+s1+s2+s3 > limit {
			return math.Inf(1)
		}
	}
	for ; i < len(a); i++ {
		d := float64(a[i]) - float64(b[i])
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}

func sqDist(a, b []float32) float64 { return sqDistWithin(a, b, math.Inf(1)) }

func dist(a, b []float32) float64 { return math.Sqrt(sqDist(a, b)) }

// bucketWidth is the Euclidean family's w, fixed by the benchmark so that
// a replay can rebuild the index's hash functions: twice the median
// distance from a sampled row to its nearest neighbour in a 512-row
// sample, the rule the library applies when left to choose. It is taken
// over a reference sample of the workload's distribution, not over the
// seeded rows, so it is one number per workload, like m and λ.
func (rc recipe) bucketWidth(workload string) float64 {
	r := newRand(0, workload, "width")
	ref := rc.mixture(r, rc.centres(workload), 4096)
	var nn []float64
	for s := 0; s < 256; s++ {
		a := ref[r.IntN(len(ref))]
		best := math.Inf(1)
		for t := 0; t < 512; t++ {
			if d := dist(a, ref[r.IntN(len(ref))]); d > 0 && d < best {
				best = d
			}
		}
		if !math.IsInf(best, 1) {
			nn = append(nn, best)
		}
	}
	if len(nn) == 0 {
		return 1
	}
	sort.Float64s(nn)
	return 2 * nn[len(nn)/2]
}

// truthRow is the exact answer to one query: the k smallest reference
// distances over the live rows, ascending.
type truthRow []float64

// bruteForce computes the exact k-NN distances of every query over the
// rows with live[i] true (all rows when live is nil).
func bruteForce(data [][]float32, live []bool, queries [][]float32, k int) []truthRow {
	out := make([]truthRow, len(queries))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for qi := range next {
				row := make(truthRow, 0, k)
				for i, v := range data {
					if live != nil && !live[i] {
						continue
					}
					limit := math.Inf(1)
					if len(row) == k {
						limit = row[k-1]
					}
					d := sqDistWithin(v, queries[qi], limit)
					if d >= limit {
						continue
					}
					if len(row) < k {
						row = append(row, d)
					}
					j := len(row) - 1
					for ; j > 0 && row[j-1] > d; j-- {
						row[j] = row[j-1]
					}
					row[j] = d
				}
				for i := range row {
					row[i] = math.Sqrt(row[i])
				}
				out[qi] = row
			}
		}()
	}
	for qi := range queries {
		next <- qi
	}
	close(next)
	wg.Wait()
	return out
}

// distTol is the relative slack when a program distance (float32 kernels)
// is compared with a reference distance (float64): ties and near-ties at
// the k-th place count as hits either way.
const distTol = 1e-4

// hits counts how many returned distances are within the true k-th
// nearest distance.
func (t truthRow) hits(got []float64) int {
	if len(t) == 0 {
		return 0
	}
	limit := t[len(t)-1]*(1+distTol) + 1e-9
	n := 0
	for _, d := range got {
		if d <= limit {
			n++
		}
	}
	return min(n, len(t))
}

// equal reports whether got is the exact answer: the same distances place
// by place, up to distTol.
func (t truthRow) equal(got []float64) bool {
	if len(got) != len(t) {
		return false
	}
	for i, d := range got {
		if math.Abs(d-t[i]) > t[i]*distTol+1e-9 {
			return false
		}
	}
	return true
}
