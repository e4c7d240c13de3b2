package csa

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// lshStrings hashes a clustered point set the way the index does — m
// random projections of a 64-cluster Gaussian mixture in 16 dimensions,
// cut into buckets — so that next-link narrowing behaves as it does on
// real hash strings (uniformly random strings narrow every window to
// nothing). Queries are data points plus a little noise.
func lshStrings(n, m, nq int) (data []int32, queries [][]int32) {
	const (
		dim, clusters = 16, 64
		width         = 8.0
	)
	r := rand.New(rand.NewPCG(17, 19))
	centres := make([][dim]float64, clusters)
	for c := range centres {
		for j := range centres[c] {
			centres[c][j] = r.Float64()*20 - 10
		}
	}
	proj := make([][dim]float64, m)
	offset := make([]float64, m)
	for i := range proj {
		for j := range proj[i] {
			proj[i][j] = r.NormFloat64()
		}
		offset[i] = r.Float64() * width
	}
	hash := func(p *[dim]float64, out []int32) {
		for i := range proj {
			s := offset[i]
			for j, x := range p {
				s += proj[i][j] * x
			}
			out[i] = int32(math.Floor(s / width))
		}
	}
	points := make([][dim]float64, n)
	data = make([]int32, n*m)
	for id := range points {
		c := &centres[r.IntN(clusters)]
		for j := range points[id] {
			points[id][j] = c[j] + r.NormFloat64()
		}
		hash(&points[id], data[id*m:(id+1)*m])
	}
	queries = make([][]int32, nq)
	for i := range queries {
		p := points[r.IntN(n)]
		for j := range p {
			p[j] += 0.3 * r.NormFloat64()
		}
		queries[i] = make([]int32, m)
		hash(&p, queries[i])
	}
	return data, queries
}

// BenchmarkCSABegin times the bounds phase alone, at the two index shapes
// of bench/'s static workloads: 38 MB of index, so every scattered read
// misses. cmp/op is Comparisons(), which a change to when memory is asked
// for must leave exactly as it was.
func BenchmarkCSABegin(b *testing.B) {
	for _, shape := range []struct{ n, m int }{{100000, 32}, {50000, 64}} {
		b.Run(fmt.Sprintf("n=%d,m=%d", shape.n, shape.m), func(b *testing.B) {
			data, queries := lshStrings(shape.n, shape.m, 4096)
			s := NewFromFlat(data, shape.n, shape.m).NewSearcher()
			comparisons := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Begin(queries[i%len(queries)])
				comparisons += s.Comparisons()
			}
			b.ReportMetric(float64(comparisons)/float64(b.N), "cmp/op")
		})
	}
}

// BenchmarkCSABuild times NewFromFlat at BenchmarkCSABegin's two shapes.
// index-MB is the Bytes() of the index it builds, in 10^6 bytes.
func BenchmarkCSABuild(b *testing.B) {
	for _, shape := range []struct{ n, m int }{{100000, 32}, {50000, 64}} {
		b.Run(fmt.Sprintf("n=%d,m=%d", shape.n, shape.m), func(b *testing.B) {
			data, _ := lshStrings(shape.n, shape.m, 0)
			var c *CSA
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c = NewFromFlat(data, shape.n, shape.m)
			}
			b.ReportMetric(float64(c.Bytes())/1e6, "index-MB")
		})
	}
}

// BenchmarkCSADecode times Decode, the daemon's boot and recovery path, at
// BenchmarkCSABegin's two shapes. index-MB is the Bytes() of the index it
// decodes, in 10^6 bytes.
func BenchmarkCSADecode(b *testing.B) {
	for _, shape := range []struct{ n, m int }{{100000, 32}, {50000, 64}} {
		b.Run(fmt.Sprintf("n=%d,m=%d", shape.n, shape.m), func(b *testing.B) {
			data, _ := lshStrings(shape.n, shape.m, 0)
			var file bytes.Buffer
			if err := NewFromFlat(data, shape.n, shape.m).Encode(&file); err != nil {
				b.Fatal(err)
			}
			var c *CSA
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if c, err = Decode(bytes.NewReader(file.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/op")
			b.ReportMetric(float64(c.Bytes())/1e6, "index-MB")
		})
	}
}

// BenchmarkCSADrain times Begin plus the drain of the λ + k − 1 distinct
// candidates a query verifies, at BenchmarkCSABegin's two shapes, for 109
// and 1 009 candidates (static-d16's and static-d960's). ns/cand divides
// the time per search by the candidates drawn; cmp/op is Comparisons().
func BenchmarkCSADrain(b *testing.B) {
	for _, shape := range []struct{ n, m int }{{100000, 32}, {50000, 64}} {
		data, queries := lshStrings(shape.n, shape.m, 4096)
		s := NewFromFlat(data, shape.n, shape.m).NewSearcher()
		for _, cands := range []int{109, 1009} {
			b.Run(fmt.Sprintf("n=%d,m=%d,cand=%d", shape.n, shape.m, cands), func(b *testing.B) {
				dst := make([]Result, 0, cands)
				comparisons := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst = s.SearchInto(queries[i%len(queries)], cands, dst)
					comparisons += s.Comparisons()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cands), "ns/cand")
				b.ReportMetric(float64(comparisons)/float64(b.N), "cmp/op")
			})
		}
	}
}
