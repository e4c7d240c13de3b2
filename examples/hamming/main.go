// Binary-fingerprint search under Hamming distance: near-duplicate
// detection over 256-bit document fingerprints using the bit-sampling LSH
// family — the third metric the framework supports out of the box, and the
// regime the paper's Table 1 discussion highlights (η(d) = O(1): hashing
// is a single coordinate lookup, so LCCS-LSH's large-m settings are
// almost free).
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"lccs"
)

const (
	n    = 50000
	bits = 256
)

func main() {
	r := rand.New(rand.NewPCG(3, 14))

	// Fingerprints: random documents plus planted near-duplicate pairs.
	data := make([][]float32, n)
	for i := range data {
		data[i] = randomFingerprint(r)
	}
	// Plant near-duplicates of document 100 at Hamming distances 4, 12,
	// and 40.
	for i, flips := range map[int]int{200: 4, 300: 12, 400: 40} {
		data[i] = flip(r, data[100], flips)
	}

	ix, err := lccs.NewIndex(data, lccs.Config{
		Metric: lccs.Hamming,
		M:      256, // hashing costs O(1) per function: large m is cheap
		Seed:   8,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d fingerprints of %d bits (m=%d, %.1f MB)\n",
		ix.Len(), bits, ix.M(), float64(ix.Bytes())/(1<<20))

	fmt.Println("\nnear-duplicates of document 100:")
	res, err := ix.SearchQuery(data[100], lccs.Query{K: 5, Budget: 200}, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, nb := range res {
		fmt.Printf("  id=%-6d hamming=%3.0f%s\n", nb.ID, nb.Dist, marker(nb.ID))
	}
}

func randomFingerprint(r *rand.Rand) []float32 {
	v := make([]float32, bits)
	for j := range v {
		v[j] = float32(r.IntN(2))
	}
	return v
}

func flip(r *rand.Rand, src []float32, count int) []float32 {
	v := append([]float32(nil), src...)
	for _, j := range r.Perm(bits)[:count] {
		v[j] = 1 - v[j]
	}
	return v
}

func marker(id int) string {
	switch id {
	case 100:
		return "  <- the document itself"
	case 200, 300, 400:
		return "  <- planted near-duplicate"
	}
	return ""
}
