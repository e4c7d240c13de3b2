package obs

import (
	"cmp"
	"slices"
	"strings"
	"sync"
)

// RequestCount is one series of a RequestCounts: the requests one
// endpoint answered with one status code.
type RequestCount struct {
	Endpoint string
	Code     int
	N        uint64
}

// RequestCounts counts requests by endpoint and status code. The
// serving layer keeps one per collection, on the collection, so a
// collection's series go when it is dropped, and one for the requests
// that resolved no collection. Inc is one short critical section and
// one map increment.
type RequestCounts struct {
	mu sync.Mutex
	m  map[requestKey]uint64
}

type requestKey struct {
	endpoint string
	code     int
}

// Inc counts one request.
func (r *RequestCounts) Inc(endpoint string, code int) {
	r.mu.Lock()
	if r.m == nil {
		r.m = make(map[requestKey]uint64)
	}
	r.m[requestKey{endpoint, code}]++
	r.mu.Unlock()
}

// Add adds counts, as Snapshot returns them.
func (r *RequestCounts) Add(counts []RequestCount) {
	r.mu.Lock()
	if r.m == nil {
		r.m = make(map[requestKey]uint64)
	}
	for _, c := range counts {
		r.m[requestKey{c.Endpoint, c.Code}] += c.N
	}
	r.mu.Unlock()
}

// Snapshot copies the counts, ordered by endpoint and code.
func (r *RequestCounts) Snapshot() []RequestCount {
	r.mu.Lock()
	out := make([]RequestCount, 0, len(r.m))
	for k, n := range r.m {
		out = append(out, RequestCount{k.endpoint, k.code, n})
	}
	r.mu.Unlock()
	slices.SortFunc(out, func(a, b RequestCount) int {
		return cmp.Or(strings.Compare(a.Endpoint, b.Endpoint), a.Code-b.Code)
	})
	return out
}
