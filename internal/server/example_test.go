package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"lccs"
	"lccs/internal/server"
)

// ExampleNew serves the HTTP API over an in-process DynamicIndex: a
// repeated search is answered from the result cache, and an insert
// invalidates the cache and is searchable at once. cmd/lccs-serve wraps
// this stack with flags, durable collections and signal handling.
func ExampleNew() {
	data := make([][]float32, 500)
	for i := range data {
		data[i] = []float32{float32(i % 25), float32(i / 25)}
	}
	dyn, err := lccs.NewDynamicIndex(data, lccs.Config{Metric: lccs.Euclidean, M: 16, Seed: 7}, 0)
	if err != nil {
		panic(err)
	}
	srv, err := server.New(server.Config{Backend: dyn, CacheSize: 64})
	if err != nil {
		panic(err)
	}
	post := func(path string, body, out any) {
		raw, err := json.Marshal(body)
		if err != nil {
			panic(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
		if rec.Code != http.StatusOK {
			panic(fmt.Sprintf("%s: HTTP %d: %s", path, rec.Code, rec.Body))
		}
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			panic(err)
		}
	}
	search := func(q []float32) {
		var res struct {
			Neighbors []lccs.Neighbor `json:"neighbors"`
			Cached    bool            `json:"cached"`
		}
		post("/v1/search", map[string]any{"query": q, "k": 1}, &res)
		fmt.Println("top id:", res.Neighbors[0].ID, "cached:", res.Cached)
	}

	search(data[42])
	search(data[42])
	var ins struct {
		IDs []int `json:"ids"`
	}
	novel := []float32{100, 100}
	post("/v1/insert", map[string]any{"vectors": [][]float32{novel}}, &ins)
	fmt.Println("inserted:", ins.IDs)
	search(data[42])
	search(novel)
	// Output:
	// top id: 42 cached: false
	// top id: 42 cached: true
	// inserted: [500]
	// top id: 42 cached: false
	// top id: 500 cached: false
}
