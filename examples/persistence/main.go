// Persistence and online updates: save an index to disk so the next start
// skips the index build (Algorithm 1), then serve inserts and
// deletes through the dynamic wrapper while queries keep running.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"lccs"
)

const (
	n   = 30000
	dim = 96
)

func main() {
	r := rand.New(rand.NewPCG(5, 17))
	data := make([][]float32, n)
	for i := range data {
		data[i] = randomPoint(r)
	}

	dir, err := os.MkdirTemp("", "lccs-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "index.lccs")

	cfg := lccs.Config{Metric: lccs.Euclidean, M: 96, Seed: 9}

	// Cold build.
	start := time.Now()
	ix, err := lccs.NewIndex(data, cfg)
	if err != nil {
		log.Fatal(err)
	}
	buildTime := time.Since(start)
	if err := ix.Save(path); err != nil {
		log.Fatal(err)
	}

	// Warm start from disk.
	start = time.Now()
	warm, err := lccs.Load(path, data)
	if err != nil {
		log.Fatal(err)
	}
	loadTime := time.Since(start)
	fmt.Printf("cold build: %v    warm load: %v (%.0fx faster)\n",
		buildTime.Round(time.Millisecond), loadTime.Round(time.Millisecond),
		buildTime.Seconds()/loadTime.Seconds())

	q := data[777]
	a, err := ix.Search(q, 3)
	if err != nil {
		log.Fatal(err)
	}
	b, err := warm.Search(q, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("identical results after reload: %v\n", a[0] == b[0] && a[1] == b[1] && a[2] == b[2])

	// Online updates through the dynamic wrapper.
	dyn, err := lccs.NewDynamicIndex(data, cfg, 10000)
	if err != nil {
		log.Fatal(err)
	}
	novel := randomPoint(r)
	id, err := dyn.Add(novel)
	if err != nil {
		log.Fatal(err)
	}
	res, err := dyn.Search(novel, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inserted vector %d found immediately: %v (buffered: %d)\n",
		id, res[0].ID == id && res[0].Dist == 0, dyn.Buffered())

	dyn.Delete(id)
	res, err = dyn.Search(novel, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after delete it is gone: %v\n", len(res) == 0 || res[0].ID != id)
}

func randomPoint(r *rand.Rand) []float32 {
	v := make([]float32, dim)
	for j := range v {
		v[j] = float32(r.NormFloat64() * 5)
	}
	return v
}
