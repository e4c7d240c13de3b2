package lccs

import (
	"runtime"
	"sync"
)

// searchBatch answers many queries concurrently across all CPUs through
// search (a facade's SearchQuery); results are returned in query order
// and each row is byte-identical to what a sequential SearchQuery call
// would return. The first per-query validation error fails the whole
// batch; k and the budget are checked up front so even an empty batch
// holds the shared validation contract.
//
// Workers share the backend's pooled search contexts and reuse one
// scratch row each, so the only per-query allocation left is the result
// row handed back to the caller.
func searchBatch(queries [][]float32, k, budget int, search func(q []float32, qr Query, dst []Neighbor) ([]Neighbor, error)) ([][]Neighbor, error) {
	if k <= 0 {
		return nil, ErrInvalidK
	}
	if budget < 0 {
		return nil, ErrInvalidBudget
	}
	qr := Query{K: k, Budget: budget}
	out := make([][]Neighbor, len(queries))
	errs := make([]error, len(queries))
	// run answers query i into a worker-owned scratch row and copies the
	// result out, so the backend's Into path never allocates beyond the
	// returned row.
	run := func(i int, scratch []Neighbor) []Neighbor {
		res, err := search(queries[i], qr, scratch)
		if err != nil {
			errs[i] = err
			return scratch
		}
		out[i] = append(make([]Neighbor, 0, len(res)), res...)
		return res
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(queries) {
		workers = len(queries)
	}
	if workers <= 1 {
		var scratch []Neighbor
		for i := range queries {
			scratch = run(i, scratch)
		}
		return batchResult(out, errs)
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch []Neighbor
			for i := range ch {
				scratch = run(i, scratch)
			}
		}()
	}
	for i := range queries {
		ch <- i
	}
	close(ch)
	wg.Wait()
	return batchResult(out, errs)
}

// batchResult collapses per-query errors: the first one (in query order)
// fails the batch, so callers never see partial results.
func batchResult(out [][]Neighbor, errs []error) ([][]Neighbor, error) {
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SearchBatch answers many queries concurrently under one k and
// candidate budget (0 selects the default); results are returned in
// query order.
func (ix *Index) SearchBatch(queries [][]float32, k, budget int) ([][]Neighbor, error) {
	return searchBatch(queries, k, budget, ix.SearchQuery)
}
