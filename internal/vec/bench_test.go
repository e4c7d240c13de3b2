package vec

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// Out-of-cache microbenchmarks of the two store read shapes. The block
// is 128 MB, far beyond any cache level, so what they report is memory
// behaviour: seq gathers every row in storage order (the hardware
// streamer's best case), random gathers them in a shuffled order (the
// candidate-verification case: every row starts with cold misses), and
// BenchmarkScan streams the same block through DistancesInto. MB/s is
// vector bytes read. One block serves every dimensionality.
const benchBlockFloats = 32 << 20

var benchBlock []float32

func benchStore(b *testing.B, dim int) *Store {
	if benchBlock == nil {
		benchBlock = make([]float32, benchBlockFloats)
		g := rand.New(rand.NewPCG(1, 2))
		for i := range benchBlock {
			benchBlock[i] = g.Float32()
		}
	}
	s, err := FromBlock(dim, benchBlock[:benchBlockFloats/dim*dim])
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkGather(b *testing.B) {
	// A verification batch, as internal/core drains them.
	const batch = 64
	for _, order := range []string{"seq", "random"} {
		for _, dim := range []int{16, 128, 960} {
			b.Run(fmt.Sprintf("%s/dim=%d", order, dim), func(b *testing.B) {
				s := benchStore(b, dim)
				n := s.Len()
				ids := make([]int32, n)
				for i := range ids {
					ids[i] = int32(i)
				}
				if order == "random" {
					g := rand.New(rand.NewPCG(3, 4))
					g.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
				}
				q := make([]float32, dim)
				out := make([]float64, batch)
				b.SetBytes(batch * int64(dim) * 4)
				b.ResetTimer()
				at := 0
				for i := 0; i < b.N; i++ {
					if at+batch > n {
						at = 0
					}
					s.GatherDistancesInto(ids[at:at+batch], q, Euclidean, out)
					at += batch
				}
			})
		}
	}
}

func BenchmarkScan(b *testing.B) {
	for _, dim := range []int{16, 128, 960} {
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			s := benchStore(b, dim)
			rows := (4 << 20) / (dim * 4) // 4 MB a call
			out := make([]float32, rows)
			q := make([]float32, dim)
			b.SetBytes(int64(rows) * int64(dim) * 4)
			b.ResetTimer()
			at := 0
			for i := 0; i < b.N; i++ {
				if at+rows > s.Len() {
					at = 0
				}
				s.DistancesInto(at, at+rows, q, Euclidean, out)
				at += rows
			}
		})
	}
}
