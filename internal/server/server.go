// Package server is the network query-serving layer over the lccs
// facades: an HTTP/JSON API over a registry of named collections
// (internal/engine) — each an independently configured index — with a
// semaphore-based admission controller (bounded concurrency, bounded
// queue, per-collection concurrency shares, per-request deadlines), an
// LRU result cache keyed by collection, request and the index's own write
// generation (lccs.DynamicIndex.Generation) — which every change that can
// alter an answer moves, a checkpoint's compaction and a Rebuild as much
// as a write, and which a re-created collection starts at a fresh epoch —
// and live counter/latency metrics in the Prometheus text format with
// per-collection labels.
//
// Endpoints:
//
//	POST   /v1/collections                          create a collection
//	GET    /v1/collections                          list collections
//	DELETE /v1/collections/{name}                   drop a collection
//	POST   /v1/collections/{name}/search            one query → top-k (filtered, cursor-paginated)
//	POST   /v1/collections/{name}/search/batch      many queries → top-k each, in turn, under one slot
//	POST   /v1/collections/{name}/insert            append vectors (+ optional attributes)
//	POST   /v1/collections/{name}/delete            tombstone ids
//	GET    /v1/collections/{name}/usage             the collection document: requests, usage, windows, backend, WAL
//	GET    /v1/stats                                the process document, every loaded collection's inside it
//	GET    /v1/debug/slow                           slow-query ring + traced-request sample
//	GET    /healthz                                 readiness (503 while draining)
//	GET    /metrics                                 Prometheus text exposition
//
// The legacy single-index routes (/v1/search, /v1/search/batch,
// /v1/insert, /v1/delete) serve the collection named "default", so
// pre-collections clients keep working unchanged. Writes go to the
// collection's *lccs.DynamicIndex (engine.Collection.Dynamic); a
// collection over any other backend is read-only, and its insert and
// delete answer 501.
//
// Every query, a batch's included, is one SearchQuery call on the
// collection's backend, metered into the collection's usage. The package
// owns request admission and caching; every per-collection fact — which
// collections exist, their usage, request counts, health rings and
// admission occupancy — lives on the registry's engine.Collection, and
// the package keeps no copy of it. Process lifecycle (listening, signal
// handling, graceful drain, checkpointing) belongs to cmd/lccs-serve.
package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lccs"
	"lccs/internal/engine"
	"lccs/internal/obs"
)

// Config configures a Server.
type Config struct {
	// Backend, when set, is adopted as the collection named "default":
	// the single-index serving mode of library embedders and of a daemon
	// serving a dataset file. At least one of Backend and Engine is
	// required; a rooted Engine already has its own default collection.
	Backend lccs.Searcher
	// Engine is the collection registry behind /v1/collections. Nil
	// builds a rootless registry holding only the adopted Backend, which
	// answers collection creates with 501.
	Engine *engine.Engine
	// MaxInFlight bounds concurrently executing searches. 0 selects
	// GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot; beyond it
	// requests are rejected with 503. 0 selects 4×MaxInFlight; negative
	// disables waiting entirely (reject the moment all slots are busy).
	MaxQueue int
	// CollectionMaxInFlight caps one collection's concurrently admitted
	// requests, so a single hot tenant cannot starve the others of the
	// shared MaxInFlight slots. Requests over the share are rejected
	// with 503 before touching the global queue. 0 disables the
	// per-collection cap.
	CollectionMaxInFlight int
	// Timeout is the per-request admission deadline: a request that
	// cannot start executing within it is rejected with 503. 0 selects
	// 2 seconds.
	Timeout time.Duration
	// CacheSize is the result-cache capacity in entries; 0 disables
	// caching.
	CacheSize int
	// MaxBodyBytes caps every request body; larger posts fail with 400.
	// Batch and insert bodies are additionally decoded only after
	// admission, so aggregate decode memory is bounded by
	// MaxInFlight × MaxBodyBytes. 0 selects 32 MiB.
	MaxBodyBytes int64
	// TraceSample is the fraction of searches traced without an explicit
	// request, in [0, 1]: 0.01 traces every 100th search (a deterministic
	// stride, not a coin flip, so the rate is exact and allocation-free).
	// 0 traces only requests that ask with "trace": true.
	TraceSample float64
	// SlowThreshold is the latency at or above which a finished search
	// enters the slow-query ring at /v1/debug/slow. 0 disables threshold
	// capture; traced requests are still reservoir-sampled.
	SlowThreshold time.Duration
	// SlowLogSize is the slow-query ring capacity (and the traced-request
	// reservoir capacity). 0 selects 64.
	SlowLogSize int
	// Version is reported by the lccs_build_info metric; empty selects
	// "dev".
	Version string
	// Logger receives the server's structured operational log (slow-query
	// warnings). Nil discards it.
	Logger *slog.Logger
}

// Server is the HTTP front end over the collection registry. Construct
// with New, mount Handler on an http.Server, and call SetDraining(true)
// before shutting that server down so load balancers see readiness drop
// first.
type Server struct {
	eng       *engine.Engine // the one registry of collections and their state
	adm       *admission
	collShare int64        // per-collection in-flight cap; 0 = uncapped
	cache     *resultCache // nil when disabled
	timeout   time.Duration
	maxBody   int64
	met       *metrics
	mux       *http.ServeMux
	slow      *obs.SlowLog
	health    *obs.Health // server-wide RED/usage ring; per-collection rings live on engine.Serving
	logger    *slog.Logger
	version   string
	// sampleEvery traces every Nth search (0 = only explicit requests);
	// sampleSeq is the stride counter behind it.
	sampleEvery uint64
	sampleSeq   atomic.Uint64
	// reqID numbers every search for log/trace correlation.
	reqID    atomic.Uint64
	draining atomic.Bool
}

// DefaultCollection is the registry name the legacy single-index routes
// serve.
const DefaultCollection = engine.DefaultCollection

// New validates cfg and builds a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil && cfg.Engine == nil {
		return nil, errors.New("server: Config needs a Backend or an Engine")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.MaxQueue == 0:
		cfg.MaxQueue = 4 * cfg.MaxInFlight
	case cfg.MaxQueue < 0:
		cfg.MaxQueue = 0
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	if cfg.TraceSample < 0 || cfg.TraceSample > 1 {
		return nil, errors.New("server: Config.TraceSample must be in [0, 1]")
	}
	if cfg.CollectionMaxInFlight < 0 {
		return nil, errors.New("server: Config.CollectionMaxInFlight must be >= 0")
	}
	if cfg.Version == "" {
		cfg.Version = "dev"
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	if cfg.SlowLogSize <= 0 {
		cfg.SlowLogSize = 64
	}
	eng := cfg.Engine
	if eng == nil {
		var err error
		eng, err = engine.New("", engine.Spec{}, cfg.Logger)
		if err != nil {
			return nil, err
		}
	}
	if cfg.Backend != nil {
		if _, err := eng.Adopt(DefaultCollection, cfg.Backend); err != nil {
			return nil, fmt.Errorf("server: adopting default backend: %w", err)
		}
	}
	s := &Server{
		eng:       eng,
		adm:       newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		collShare: int64(cfg.CollectionMaxInFlight),
		timeout:   cfg.Timeout,
		maxBody:   cfg.MaxBodyBytes,
		met:       &metrics{start: time.Now()},
		slow:      obs.NewSlowLog(cfg.SlowLogSize, cfg.SlowLogSize, cfg.SlowThreshold),
		health:    new(obs.Health),
		logger:    cfg.Logger,
		version:   cfg.Version,
	}
	if cfg.TraceSample > 0 {
		s.sampleEvery = uint64(math.Round(1 / cfg.TraceSample))
		if s.sampleEvery < 1 {
			s.sampleEvery = 1
		}
	}
	if cfg.CacheSize > 0 {
		s.cache = newResultCache(cfg.CacheSize)
	}
	s.mux = http.NewServeMux()
	// Legacy single-index routes: the "default" collection.
	s.mux.HandleFunc("/v1/search", s.handleSearch)
	s.mux.HandleFunc("/v1/search/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/insert", s.handleInsert)
	s.mux.HandleFunc("/v1/delete", s.handleDelete)
	// Collection routes.
	s.mux.HandleFunc("POST /v1/collections/{name}/search", s.handleSearch)
	s.mux.HandleFunc("POST /v1/collections/{name}/search/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/collections/{name}/insert", s.handleInsert)
	s.mux.HandleFunc("POST /v1/collections/{name}/delete", s.handleDelete)
	s.mux.HandleFunc("GET /v1/collections/{name}/usage", s.handleCollStats)
	s.mux.HandleFunc("POST /v1/collections", s.handleCollCreate)
	s.mux.HandleFunc("GET /v1/collections", s.handleCollList)
	s.mux.HandleFunc("DELETE /v1/collections/{name}", s.handleCollDrop)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/debug/slow", s.handleDebugSlow)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// SetDraining flips the readiness state: while draining, /healthz
// answers 503 so load balancers stop routing here, while in-flight and
// newly arriving requests still complete (http.Server.Shutdown handles
// connection-level draining).
func (s *Server) SetDraining(d bool) { s.draining.Store(d) }

// collName extracts the target collection from the request path; the
// legacy routes carry no {name} and serve the default collection.
func collName(r *http.Request) string {
	if name := r.PathValue("name"); name != "" {
		return name
	}
	return DefaultCollection
}

// resolve returns the request's collection, lazily opening it through
// the registry, which holds all of its state. On failure it writes the
// error response — counted under the server-scoped series: the name in
// the path is the client's, never a label value or a map key — and
// returns nil.
func (s *Server) resolve(w http.ResponseWriter, r *http.Request, o outcome) *engine.Collection {
	c, err := s.eng.Get(collName(r))
	if err != nil {
		s.fail(w, nil, o, engineStatus(err), err)
		return nil
	}
	return c
}

// engineStatus maps registry errors to HTTP statuses.
func engineStatus(err error) int {
	switch {
	case errors.Is(err, engine.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, engine.ErrExists), errors.Is(err, engine.ErrPinned):
		return http.StatusConflict
	case errors.Is(err, engine.ErrNoRoot):
		return http.StatusNotImplemented
	case errors.Is(err, engine.ErrBadName), errors.Is(err, engine.ErrInvalidSpec):
		return http.StatusBadRequest
	case errors.Is(err, engine.ErrClosed):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// ---- request/response bodies ----

// filterTermJSON is the wire form of one filter predicate: {"key":
// "color", "value": "red"} (equality over a string or integer), or
// {"key": "price", "op": "range", "min": 10, "max": 99} (inclusive
// int64 range, either bound optional). Terms AND together.
type filterTermJSON struct {
	Key   string `json:"key"`
	Op    string `json:"op,omitempty"` // "eq" (default) | "range"
	Value any    `json:"value,omitempty"`
	Min   *int64 `json:"min,omitempty"`
	Max   *int64 `json:"max,omitempty"`
}

// parseFilter translates the wire terms into a library filter; nil for
// an absent filter.
func parseFilter(terms []filterTermJSON) (*lccs.Filter, error) {
	if len(terms) == 0 {
		return nil, nil
	}
	f := &lccs.Filter{Terms: make([]lccs.FilterTerm, 0, len(terms))}
	for i, t := range terms {
		switch t.Op {
		case "", "eq":
			switch v := t.Value.(type) {
			case string:
				f.Terms = append(f.Terms, lccs.EqStr(t.Key, v))
			case float64:
				if v != math.Trunc(v) || math.Abs(v) >= 1<<53 {
					return nil, fmt.Errorf("filter term %d: value %v is not an integer", i, v)
				}
				f.Terms = append(f.Terms, lccs.EqInt(t.Key, int64(v)))
			default:
				return nil, fmt.Errorf("filter term %d: \"value\" must be a string or integer", i)
			}
		case "range":
			f.Terms = append(f.Terms, lccs.Range(t.Key, t.Min, t.Max))
		default:
			return nil, fmt.Errorf("filter term %d: unknown op %q (want \"eq\" or \"range\")", i, t.Op)
		}
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

type searchRequest struct {
	Query []float32 `json:"query"`
	K     int       `json:"k"`
	// Budget is the optional candidate budget λ; 0 uses the backend's
	// default.
	Budget int `json:"budget,omitempty"`
	// Filter restricts results to vectors whose attributes match every
	// term.
	Filter []filterTermJSON `json:"filter,omitempty"`
	// Limit switches the request to cursor pagination: the response
	// carries up to Limit results plus a continuation token.
	Limit int `json:"limit,omitempty"`
	// Cursor resumes a paginated scan from a previous response's
	// next_cursor.
	Cursor string `json:"cursor,omitempty"`
	// Trace opts this request into span recording: the response carries
	// the per-stage span tree and an X-Request-Id header.
	Trace bool `json:"trace,omitempty"`
	// Explain opts this request into plan reporting: the response
	// carries the resolved query plan (backend kind, shards visited
	// with per-shard cost, filter selectivity, cache outcome) built
	// from an internally forced trace. Implies span recording.
	Explain bool `json:"explain,omitempty"`
}

// searchScratch is the pooled per-request state of the single-search
// endpoint: the request body's bytes, the decoded request (whose query
// slice's backing array the decoder reuses) and the backend result row,
// which is also the response payload. At steady state an unfiltered,
// non-paginated search request allocates no per-request buffers in this
// package.
type searchScratch struct {
	body []byte
	req  searchRequest
	res  []lccs.Neighbor
	co   lccs.Cost
}

// searchScratchPool serves every /v1/search request.
var searchScratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// getSearchScratch fetches pooled scratch with the request fields reset.
func getSearchScratch() *searchScratch {
	sc := searchScratchPool.Get().(*searchScratch)
	sc.req.reset()
	sc.co.Reset()
	return sc
}

// putSearchScratch returns scratch to the pool, dropping a body buffer
// grown past maxPooledBuf.
func putSearchScratch(sc *searchScratch) {
	if cap(sc.body) > maxPooledBuf {
		sc.body = nil
	}
	searchScratchPool.Put(sc)
}

// reset zeroes the request, keeping the query buffer's capacity for the
// next decode to reuse.
func (req *searchRequest) reset() {
	*req = searchRequest{Query: req.Query[:0]}
}

type searchResponse struct {
	Neighbors  []lccs.Neighbor `json:"neighbors"`
	Cached     bool            `json:"cached"`
	TookMicros int64           `json:"took_us"`
	// NextCursor continues a paginated scan; absent when the stream is
	// exhausted or the request was not paginated.
	NextCursor string `json:"next_cursor,omitempty"`
	// RequestID and Trace are present only on traced requests.
	RequestID uint64         `json:"request_id,omitempty"`
	Trace     []obs.SpanNode `json:"trace,omitempty"`
	// Explain is the resolved query plan, present only when the request
	// asked with "explain": true.
	Explain *explainJSON `json:"explain,omitempty"`
}

// slowLogResponse is the /v1/debug/slow payload: the slow-query ring
// newest-first plus the reservoir sample of traced requests that
// finished under the threshold.
type slowLogResponse struct {
	ThresholdUS float64         `json:"threshold_us"`
	Slow        []obs.SlowEntry `json:"slow"`
	Sample      []obs.SlowEntry `json:"sample"`
}

type batchRequest struct {
	Queries [][]float32 `json:"queries"`
	K       int         `json:"k"`
	Budget  int         `json:"budget,omitempty"`
}

type batchResponse struct {
	Results    [][]lccs.Neighbor `json:"results"`
	TookMicros int64             `json:"took_us"`
}

type insertRequest struct {
	Vectors [][]float32 `json:"vectors"`
	// Attrs optionally attaches metadata to the vectors, aligned by
	// index (attrs[i] belongs to vectors[i]); values are strings or
	// integers. null entries attach nothing.
	Attrs []map[string]any `json:"attrs,omitempty"`
}

// deleteRequest accepts a single id, a batch, or both; {"id": 0} is
// distinguishable from an absent field through the pointer.
type deleteRequest struct {
	ID  *int  `json:"id,omitempty"`
	IDs []int `json:"ids,omitempty"`
}

type deleteResponse struct {
	// Deleted counts ids that were live and are now tombstoned.
	Deleted int `json:"deleted"`
	// Missing lists ids that were unknown or already deleted — the
	// request is idempotent, so these are reported, not failed.
	Missing []int `json:"missing,omitempty"`
	// RequestID correlates the response with the server's structured log
	// (also sent as the X-Request-Id header).
	RequestID uint64 `json:"request_id,omitempty"`
}

type insertResponse struct {
	IDs []int `json:"ids"`
	// RequestID correlates the response with the server's structured log
	// (also sent as the X-Request-Id header).
	RequestID uint64 `json:"request_id,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// createCollectionRequest is the /v1/collections POST body: the name
// plus the spec fields (metric, m, budget, ...) inline.
type createCollectionRequest struct {
	Name string `json:"name"`
	engine.Spec
}

type collectionInfo struct {
	Name string `json:"name"`
	// Vectors and Loaded describe open collections; an on-disk
	// collection not yet opened reports loaded=false and no count.
	Vectors int  `json:"vectors,omitempty"`
	Loaded  bool `json:"loaded"`
}

type listCollectionsResponse struct {
	Collections []collectionInfo `json:"collections"`
}

// createCollectionResponse is collectionInfo plus the request id that
// also tags the "collection created" log line.
type createCollectionResponse struct {
	collectionInfo
	RequestID uint64 `json:"request_id,omitempty"`
}

type dropCollectionResponse struct {
	Dropped   string `json:"dropped"`
	RequestID uint64 `json:"request_id,omitempty"`
}

// ---- handlers ----

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	o := outcome{endpoint: "search"}
	if !s.requirePost(w, r, o) {
		return
	}
	c := s.resolve(w, r, o)
	if c == nil {
		return
	}
	// Decode into pooled scratch: the body is read into the previous
	// request's buffer and the query appended into its query slice.
	sc := getSearchScratch()
	defer putSearchScratch(sc)
	decStart := time.Now()
	err := readSearch(r.Body, sc)
	decDur := time.Since(decStart)
	obs.ObserveDur(obs.StageDecode, decDur)
	if err != nil {
		s.fail(w, c, o, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	req := &sc.req
	f, err := parseFilter(req.Filter)
	if err != nil {
		s.fail(w, c, o, http.StatusBadRequest, fmt.Errorf("%w: %v", lccs.ErrInvalidFilter, err))
		return
	}
	paginated := req.Cursor != "" || req.Limit > 0
	if paginated && req.Limit <= 0 {
		s.fail(w, c, o, http.StatusBadRequest, errors.New("\"limit\" must be positive when resuming a cursor"))
		return
	}
	reqID := s.reqID.Add(1)
	// Tracing: explicit opt-in via "trace": true, an "explain": true
	// plan request (the plan is assembled from spans), or the
	// configured deterministic sampling stride. The untraced path never
	// draws a trace from the pool; every Trace method is nil-safe, so
	// the span calls below vanish into a pointer check.
	var tr *obs.Trace
	if req.Trace || req.Explain || (s.sampleEvery > 0 && s.sampleSeq.Add(1)%s.sampleEvery == 0) {
		tr = obs.GetTraceAt(reqID, start)
		defer obs.PutTrace(tr)
	}
	tr.AddSpan(obs.StageDecode, -1, decStart, decDur)
	// The cache is probed before admission: a hit costs microseconds and
	// touches no backend, so it must not occupy an execution slot or be
	// shed under overload. Obviously invalid requests never touch the
	// cache, so 400s do not pollute miss statistics or key space. The
	// key carries the collection name, the index's write generation, the
	// canonical filter encoding, and the cursor token, so tenants, index
	// states, filtered variants of one query, and successive pages can
	// never alias each other's entries. The probe's result rides in the
	// outcome, so every later exit reports it.
	kEff := req.K
	if paginated {
		kEff = req.Limit
	}
	cacheable := s.cache != nil && kEff > 0 && len(req.Query) > 0 && req.Budget >= 0
	cache := "off" // as EXPLAIN reports it
	var key string
	if cacheable {
		cacheStart := time.Now()
		var gen uint64 // a read-only backend's answers never change
		if d := c.Dynamic(); d != nil {
			gen = d.Generation()
		}
		key = cacheKey(c.Name(), gen, kEff, req.Budget, req.Query, f, req.Cursor)
		res, next, ok := s.cache.get(key)
		cacheDur := time.Since(cacheStart)
		obs.ObserveDur(obs.StageCache, cacheDur)
		tr.AddSpan(obs.StageCache, -1, cacheStart, cacheDur)
		if ok {
			o.use.CacheHits, o.dur = 1, time.Since(start)
			resp := searchResponse{Neighbors: res, Cached: true, NextCursor: next}
			if req.Explain {
				resp.Explain = buildExplain(c, kEff, req.Budget, f, nil, "hit", tr)
			}
			s.respondSearch(w, c, o, resp, reqID, tr, req.Trace, time.Time{})
			s.recordSlow(reqID, "search", c.Name(), f, start, o.dur, kEff, req.Budget, tr)
			return
		}
		o.use.CacheMisses, cache = 1, "miss"
	}
	admStart := time.Now()
	if !s.admit(w, r, c, o) {
		return
	}
	defer s.release(c)
	admDur := time.Since(admStart)
	obs.ObserveDur(obs.StageAdmission, admDur)
	tr.AddSpan(obs.StageAdmission, -1, admStart, admDur)

	// The backend's one query path: filter, cost record and trace ride in
	// the Query value, each independently nil; co and the result row are
	// pooled scratch, so accounting allocates nothing. A page is the same
	// query resumed at a rank, metered and traced alike.
	var next string
	var res []lccs.Neighbor
	qr := lccs.Query{K: kEff, Budget: req.Budget, Filter: f, Cost: &sc.co, Trace: tr}
	if paginated {
		res, next, err = c.Backend().SearchCursor(req.Query, qr, req.Cursor)
	} else {
		res, err = c.Backend().SearchQuery(req.Query, qr, sc.res)
	}
	if err != nil {
		s.fail(w, c, o, statusFor(err), err)
		return
	}
	if !paginated {
		sc.res = res
	}
	// The encode stage: the cache's copy and the serialisation of the
	// payload (the result row is the wire form). respondSearch closes it.
	encStart := time.Now()
	if cacheable {
		// The cache retains its entries past this request, so it gets
		// its own copy rather than the pooled row.
		s.cache.put(key, append([]lccs.Neighbor(nil), res...), next)
	}
	o.dur = time.Since(start)
	o.meter(&sc.co)
	resp := searchResponse{Neighbors: res, NextCursor: next}
	if req.Explain {
		resp.Explain = buildExplain(c, kEff, req.Budget, f, &sc.co, cache, tr)
	}
	s.respondSearch(w, c, o, resp, reqID, tr, req.Trace, encStart)
	s.recordSlow(reqID, "search", c.Name(), f, start, o.dur, kEff, req.Budget, tr)
}

// respondSearch sends a search response. Only an explicit "trace": true
// request gets the span tree inline (plus the request id and the
// X-Request-Id header); sampler-selected traces feed the histograms and
// the slow-log reservoir without inflating client responses. A non-zero
// encStart is the start of the encode stage, which ends once the payload
// is serialised — or, for a response carrying its span tree, before the
// tree is rendered. A response encoding/json would refuse is a 400.
func (s *Server) respondSearch(w http.ResponseWriter, c *engine.Collection, o outcome, resp searchResponse, reqID uint64, tr *obs.Trace, explicit bool, encStart time.Time) {
	endEncode := func() {
		if !encStart.IsZero() {
			encDur := time.Since(encStart)
			obs.ObserveDur(obs.StageEncode, encDur)
			tr.AddSpan(obs.StageEncode, -1, encStart, encDur)
		}
	}
	resp.TookMicros = o.dur.Microseconds()
	if resp.Neighbors == nil {
		resp.Neighbors = []lccs.Neighbor{} // an empty result is [], never null
	}
	if (tr != nil && explicit) || resp.Explain != nil {
		endEncode()
		if tr != nil && explicit {
			resp.Trace = tr.Tree()
		}
		resp.RequestID = reqID
		w.Header().Set("X-Request-Id", strconv.FormatUint(reqID, 10))
		s.respond(w, c, o, http.StatusOK, resp)
		return
	}
	wb := getWireBuf()
	defer putWireBuf(wb)
	var err error
	wb.b, err = encodeSearch(wb.b, &resp)
	endEncode()
	if err != nil {
		s.fail(w, c, o, statusFor(err), err)
		return
	}
	s.send(w, c, o, http.StatusOK, wb.b)
}

// recordSlow offers a finished search to the slow-query log and warns
// through the structured logger when it crossed the threshold. Entries
// carry the collection name and the hex of the canonical filter key
// (vec.Filter.AppendKey), so slow queries group by tenant and by
// predicate.
func (s *Server) recordSlow(reqID uint64, endpoint, collection string, f *lccs.Filter, start time.Time, took time.Duration, k, budget int, tr *obs.Trace) {
	thr := s.slow.Threshold()
	slow := thr > 0 && took >= thr
	if tr == nil && !slow {
		return // nothing to capture: neither traced nor over threshold
	}
	filterKey := ""
	if f != nil {
		filterKey = hex.EncodeToString(f.AppendKey(nil))
	}
	// tr.Tree is passed as a thunk: the log materializes the span tree
	// only for entries it actually keeps, so a traced request that the
	// reservoir rejects costs no tree allocation. Tree is nil-safe, so
	// the method value works for untraced-but-slow requests too.
	s.slow.Record(obs.SlowEntry{
		RequestID:  reqID,
		Endpoint:   endpoint,
		Collection: collection,
		Time:       start,
		DurUS:      float64(took) / float64(time.Microsecond),
		K:          k,
		Budget:     budget,
		Filter:     filterKey,
		Traced:     tr != nil,
	}, tr.Tree)
	if slow {
		s.logger.Warn("slow query",
			"request_id", reqID, "endpoint", endpoint, "collection", collection,
			"filter", filterKey, "took", took,
			"k", k, "budget", budget, "traced", tr != nil)
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	o := outcome{endpoint: "search_batch"}
	if !s.requirePost(w, r, o) {
		return
	}
	c := s.resolve(w, r, o)
	if c == nil {
		return
	}
	// A batch holds one admission slot from before its body is decoded:
	// batch bodies are the large ones, so decode memory must count
	// against the concurrency bound too. Its queries run one after
	// another on this goroutine, so the slot bounds its cores as it does
	// a single search's. The result cache is bypassed: batch workloads
	// are throughput-oriented and would churn the LRU.
	if !s.admit(w, r, c, o) {
		return
	}
	defer s.release(c)
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, c, o, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	// k and the budget are checked before the loop, so an empty batch
	// holds the query contract too.
	switch {
	case req.K <= 0:
		s.fail(w, c, o, http.StatusBadRequest, lccs.ErrInvalidK)
		return
	case req.Budget < 0:
		s.fail(w, c, o, http.StatusBadRequest, lccs.ErrInvalidBudget)
		return
	}
	// Each query is a SearchQuery into one scratch row, copied out; the
	// first failing query, in order, fails the batch, metered for the
	// work its predecessors did. A client that has gone away fails it
	// the same way before the next query, so its slot is not held for
	// an answer nobody reads.
	var co lccs.Cost
	var scratch []lccs.Neighbor
	qr := lccs.Query{K: req.K, Budget: req.Budget, Cost: &co}
	rows := make([][]lccs.Neighbor, len(req.Queries)) // [] on the wire, never null
	for i, q := range req.Queries {
		if err := r.Context().Err(); err != nil {
			o.meter(&co)
			s.fail(w, c, o, statusClientClosed, err)
			return
		}
		res, err := c.Backend().SearchQuery(q, qr, scratch)
		if err != nil {
			o.meter(&co)
			s.fail(w, c, o, statusFor(err), err)
			return
		}
		rows[i], scratch = append([]lccs.Neighbor{}, res...), res
	}
	o.dur = time.Since(start)
	o.meter(&co)
	s.respond(w, c, o, http.StatusOK, batchResponse{Results: rows, TookMicros: o.dur.Microseconds()})
	s.recordSlow(s.reqID.Add(1), "search_batch", c.Name(), nil, start, o.dur, req.K, req.Budget, nil)
}

// parseAttrs translates wire attribute rows into library attribute
// rows; nil rows (JSON null) stay nil.
func parseAttrs(rows []map[string]any) ([]lccs.Attrs, error) {
	out := make([]lccs.Attrs, len(rows))
	for i, row := range rows {
		if len(row) == 0 {
			continue
		}
		a := make(lccs.Attrs, len(row))
		for key, v := range row {
			switch val := v.(type) {
			case string:
				a[key] = lccs.StrAttr(val)
			case float64:
				if val != math.Trunc(val) || math.Abs(val) >= 1<<53 {
					return nil, fmt.Errorf("attrs[%d].%s: %v is not an integer", i, key, val)
				}
				a[key] = lccs.IntAttr(int64(val))
			default:
				return nil, fmt.Errorf("attrs[%d].%s: values must be strings or integers", i, key)
			}
		}
		out[i] = a
	}
	return out, nil
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	o := outcome{endpoint: "insert"}
	if !s.requirePost(w, r, o) {
		return
	}
	c := s.resolve(w, r, o)
	if c == nil {
		return
	}
	reqID := s.reqID.Add(1)
	if c.Dynamic() == nil {
		s.fail(w, c, o, http.StatusNotImplemented,
			errors.New("backend is read-only: inserts need a collection in a data directory"))
		return
	}
	// Inserts go through admission too: the append itself is cheap, but
	// decoding a vector batch is not, and it must not bypass the
	// concurrency bound.
	if !s.admit(w, r, c, o) {
		return
	}
	defer s.release(c)
	var req insertRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, c, o, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if len(req.Vectors) == 0 {
		s.fail(w, c, o, http.StatusBadRequest, errors.New("no vectors in request"))
		return
	}
	var attrs []lccs.Attrs
	if req.Attrs != nil {
		if len(req.Attrs) != len(req.Vectors) {
			s.fail(w, c, o, http.StatusBadRequest,
				fmt.Errorf("%w: %d attr rows for %d vectors", lccs.ErrAttrsMismatch, len(req.Attrs), len(req.Vectors)))
			return
		}
		var err error
		attrs, err = parseAttrs(req.Attrs)
		if err != nil {
			s.fail(w, c, o, http.StatusBadRequest, err)
			return
		}
	}
	// The call returns only once the batch is durable per the backend's
	// sync policy, so a 200 never acknowledges a write a crash could lose.
	ids, err := c.Dynamic().AddBatchWithAttrs(req.Vectors, attrs)
	o.use.Inserts, o.use.WALBytes = int64(len(ids)), claimWAL(c)
	w.Header().Set("X-Request-Id", strconv.FormatUint(reqID, 10))
	if err != nil {
		// A rejected vector rejects the batch whole, so a 400 carries no
		// ids. On a durability failure (503) the batch is in memory — it
		// moved the index's generation, so no cached answer predates it —
		// but possibly not on disk: its ids come back with the 5xx, which
		// tells the client not to trust them.
		s.respond(w, c, o, statusFor(err), struct {
			errorResponse
			IDs       []int  `json:"ids"`
			RequestID uint64 `json:"request_id,omitempty"`
		}{errorResponse{Error: err.Error()}, ids, reqID})
		return
	}
	o.dur = time.Since(start)
	s.logger.Debug("insert",
		"request_id", reqID, "collection", c.Name(),
		"vectors", len(ids), "wal_bytes", o.use.WALBytes, "took", o.dur)
	s.respond(w, c, o, http.StatusOK, insertResponse{IDs: ids, RequestID: reqID})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	o := outcome{endpoint: "delete"}
	if !s.requirePost(w, r, o) {
		return
	}
	c := s.resolve(w, r, o)
	if c == nil {
		return
	}
	reqID := s.reqID.Add(1)
	if c.Dynamic() == nil {
		s.fail(w, c, o, http.StatusNotImplemented,
			errors.New("backend is read-only: deletes need a collection in a data directory"))
		return
	}
	// Deletes share the admission bound: each one takes the backend's
	// write lock, so a flood of them must not bypass the concurrency
	// controls that protect searches.
	if !s.admit(w, r, c, o) {
		return
	}
	defer s.release(c)
	var req deleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, c, o, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	ids := req.IDs
	if req.ID != nil {
		ids = append([]int{*req.ID}, ids...)
	}
	if len(ids) == 0 {
		s.fail(w, c, o, http.StatusBadRequest, errors.New("no ids in request"))
		return
	}
	// On a durable backend the delete is acknowledged only after the
	// whole batch is journaled per the sync policy, under a single
	// group-committed wait; a journal failure turns into a 503 instead
	// of a silently non-durable 200.
	var resp deleteResponse
	var err error
	resp.Deleted, resp.Missing, err = c.Dynamic().DeleteBatch(ids)
	o.use.Deletes, o.use.WALBytes = int64(resp.Deleted), claimWAL(c)
	if err != nil {
		s.fail(w, c, o, http.StatusServiceUnavailable, err)
		return
	}
	o.dur = time.Since(start)
	s.logger.Debug("delete",
		"request_id", reqID, "collection", c.Name(),
		"deleted", resp.Deleted, "missing", len(resp.Missing),
		"wal_bytes", o.use.WALBytes, "took", o.dur)
	resp.RequestID = reqID
	w.Header().Set("X-Request-Id", strconv.FormatUint(reqID, 10))
	s.respond(w, c, o, http.StatusOK, resp)
}

// ---- collection registry endpoints ----

func (s *Server) handleCollCreate(w http.ResponseWriter, r *http.Request) {
	o := outcome{endpoint: "collections_create"}
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var req createCollectionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, nil, o, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	reqID := s.reqID.Add(1)
	ec, err := s.eng.Create(req.Name, req.Spec)
	if err != nil {
		s.fail(w, nil, o, engineStatus(err), err)
		return
	}
	s.logger.Info("collection created", "request_id", reqID, "collection", req.Name)
	w.Header().Set("X-Request-Id", strconv.FormatUint(reqID, 10))
	s.respond(w, nil, o, http.StatusCreated, createCollectionResponse{
		collectionInfo: collectionInfo{Name: req.Name, Vectors: ec.Backend().Len(), Loaded: true},
		RequestID:      reqID,
	})
}

func (s *Server) handleCollList(w http.ResponseWriter, r *http.Request) {
	loaded := make(map[string]*engine.Collection)
	for _, c := range s.eng.Loaded() {
		loaded[c.Name()] = c
	}
	names := s.eng.List()
	out := listCollectionsResponse{Collections: make([]collectionInfo, 0, len(names))}
	for _, name := range names {
		info := collectionInfo{Name: name}
		if c, ok := loaded[name]; ok {
			info.Loaded = true
			info.Vectors = c.Backend().Len()
		}
		out.Collections = append(out.Collections, info)
	}
	s.respond(w, nil, outcome{endpoint: "collections_list"}, http.StatusOK, out)
}

func (s *Server) handleCollDrop(w http.ResponseWriter, r *http.Request) {
	o := outcome{endpoint: "collections_drop"}
	name := r.PathValue("name")
	reqID := s.reqID.Add(1)
	if err := s.eng.Drop(name); err != nil {
		s.fail(w, nil, o, engineStatus(err), err)
		return
	}
	s.logger.Info("collection dropped", "request_id", reqID, "collection", name)
	w.Header().Set("X-Request-Id", strconv.FormatUint(reqID, 10))
	s.respond(w, nil, o, http.StatusOK, dropCollectionResponse{Dropped: name, RequestID: reqID})
}

// ---- the stats documents ----

// The server reports its numbers as two JSON documents, one per scope,
// each assembled by one function from one scrape: the process document
// (Stats, GET /v1/stats, from scrape.stats) and the collection document
// (CollectionStats, GET /v1/collections/{name}/usage, from
// collSnap.stats). The process document's Collections holds each loaded
// collection's document, so the two cannot differ in shape.

// Stats is the process document. Requests and Total sum the collections'
// documents beside them, the server-scoped requests and what the
// collections dropped before counted, so neither falls when a collection
// goes. Backend and WAL repeat the default collection's (the legacy
// single-index shape monitoring already scrapes). Windows and SLO read
// the server-wide health ring; Latency reads lccs_request_seconds by the
// windows' quantile rule.
type Stats struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	Status        string            `json:"status"`   // "ok" | "draining"
	Requests      map[string]uint64 `json:"requests"` // "endpoint:code" → count
	admissionStats
	// Total is the usage counters summed over every collection this
	// process served; Total.Searches is also lccs_request_seconds' count.
	Total   engine.UsageSnapshot `json:"total"`
	Cache   CacheStats           `json:"cache"`
	Latency LatencyStats         `json:"latency"`
	Windows []obs.HealthWindow   `json:"windows"`
	SLO     sloStats             `json:"slo"`
	Backend BackendStats         `json:"backend"`
	// WAL reports write-ahead-log health on durable backends: depth
	// (records a crash would replay), segment footprint, and fsync
	// latency. Absent otherwise.
	WAL         *lccs.WALStats             `json:"wal,omitempty"`
	Collections map[string]CollectionStats `json:"collections"`
}

// admissionStats is the admission controller's live state and counters.
type admissionStats struct {
	InFlight     int    `json:"in_flight"`
	QueueDepth   int64  `json:"queue_depth"`
	Rejected     uint64 `json:"admission_rejected"`
	WaitTimeouts uint64 `json:"admission_wait_timeouts"`
}

// CollectionStats is the collection document.
type CollectionStats struct {
	Collection string            `json:"collection"`
	Requests   map[string]uint64 `json:"requests"` // "endpoint:code" → count
	// InFlight counts this collection's currently admitted requests;
	// QuotaRejected counts rejections by the per-collection share.
	InFlight      int64  `json:"in_flight"`
	QuotaRejected uint64 `json:"quota_rejected"`
	// Cumulative is the usage counters since the collection was opened
	// in this process; Windows the same traffic at two resolutions.
	Cumulative engine.UsageSnapshot `json:"cumulative"`
	Windows    []obs.HealthWindow   `json:"windows"`
	Backend    BackendStats         `json:"backend"`
	WAL        *lccs.WALStats       `json:"wal,omitempty"`
}

// CacheStats summarizes the result cache. Its hits and misses are the
// process document's total.cache_hits and total.cache_misses, which
// HitRate and lccs_cache_{hits,misses}_total read.
type CacheStats struct {
	Enabled   bool    `json:"enabled"`
	Entries   int     `json:"entries"`
	Evictions uint64  `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

// LatencyStats summarizes the search latency histogram.
type LatencyStats struct {
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// BackendStats describes the index behind one collection.
type BackendStats struct {
	Kind     string `json:"kind"`
	Vectors  int    `json:"vectors"`
	Shards   int    `json:"shards,omitempty"`
	Buffered int    `json:"buffered,omitempty"`
	// Tombstones counts deleted vectors whose rows await compaction.
	Tombstones int  `json:"tombstones,omitempty"`
	Writable   bool `json:"writable"`
}

// sloStats is the burn-rate indicator: how fast the error budget
// (1 − target) is being consumed. A burn rate of 1 means errors arrive
// exactly at the budgeted rate; sustained rates above 1 exhaust it.
type sloStats struct {
	Target     float64 `json:"target"`
	BurnRate1m float64 `json:"burn_rate_1m"`
	BurnRate15 float64 `json:"burn_rate_15m"`
	// State summarizes: "ok" (both windows under budget), "elevated"
	// (the short window is burning — possibly a blip), "burning" (both
	// windows over budget — the objective is at risk).
	State string `json:"state"`
}

// healthWindows are the two resolutions every windowed report carries:
// the last minute merged from per-second buckets and the last fifteen
// minutes merged from per-minute buckets.
var healthWindows = [2]time.Duration{time.Minute, 15 * time.Minute}

// sloTarget is the availability objective behind the burn-rate
// indicator: 99.9% of requests succeed.
const sloTarget = 0.999

// windowsOf merges a ring at the standard resolutions.
func windowsOf(h *obs.Health, now time.Time) []obs.HealthWindow {
	out := make([]obs.HealthWindow, len(healthWindows))
	for i, span := range healthWindows {
		out[i] = h.Window(now, span)
	}
	return out
}

// sloBurn derives the burn-rate indicator from the standard windows
// (short first, long second).
func sloBurn(windows []obs.HealthWindow) sloStats {
	budget := 1 - sloTarget
	h := sloStats{Target: sloTarget, State: "ok",
		BurnRate1m: windows[0].ErrorRate / budget, BurnRate15: windows[1].ErrorRate / budget}
	switch {
	case h.BurnRate1m >= 1 && h.BurnRate15 >= 1:
		h.State = "burning"
	case h.BurnRate1m >= 1 || h.BurnRate15 >= 1:
		h.State = "elevated"
	}
	return h
}

// requestMap folds request counts into the documents' "endpoint:code"
// map.
func requestMap(m map[string]uint64, rs []obs.RequestCount) map[string]uint64 {
	for _, r := range rs {
		m[r.Endpoint+":"+strconv.Itoa(r.Code)] += r.N
	}
	return m
}

// stats is the collection document.
func (cs *collSnap) stats() CollectionStats {
	doc := cs.CollectionStats
	doc.Requests = requestMap(make(map[string]uint64, len(cs.requests)), cs.requests)
	return doc
}

// stats is the process document.
func (sc *scrape) stats() Stats {
	st := Stats{
		UptimeSeconds:  sc.uptime,
		Status:         "ok",
		Requests:       requestMap(requestMap(map[string]uint64{}, sc.requests), sc.retiredRequests),
		admissionStats: sc.adm,
		Total:          sc.total,
		Cache:          sc.cache,
		Latency: LatencyStats{
			P50Ms: sc.latency.Quantile(0.50) * 1e3,
			P99Ms: sc.latency.Quantile(0.99) * 1e3,
		},
		Windows:     sc.windows,
		SLO:         sloBurn(sc.windows),
		Collections: make(map[string]CollectionStats, len(sc.colls)),
	}
	if sc.draining {
		st.Status = "draining"
	}
	for i := range sc.colls {
		cs := &sc.colls[i]
		st.Collections[cs.Collection] = cs.stats()
		requestMap(st.Requests, cs.requests)
	}
	if sc.def != nil {
		st.Backend, st.WAL = sc.def.Backend, sc.def.WAL
	}
	if n := sc.latency.Count(); n > 0 {
		st.Latency.MeanMs = sc.latency.Sum().Seconds() / float64(n) * 1e3
	}
	return st
}

// StatsSnapshot assembles the process document, as /v1/stats answers it.
func (s *Server) StatsSnapshot() Stats { return s.scrape().stats() }

// backendStats inspects the concrete facade behind one collection.
func backendStats(c *engine.Collection) BackendStats {
	b := BackendStats{Vectors: c.Backend().Len(), Writable: c.Dynamic() != nil}
	switch ix := c.Backend().(type) {
	case *lccs.Index:
		b.Kind = "index"
		b.Shards = ix.Shards()
	case *lccs.DynamicIndex:
		b.Kind = "dynamic"
		if ix.Dir() != "" {
			b.Kind = "durable"
		}
		b.Shards = ix.Shards()
		b.Buffered = ix.Buffered()
		b.Tombstones = ix.Deleted()
	default:
		b.Kind = "custom"
	}
	return b
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.respond(w, nil, outcome{endpoint: "stats"}, http.StatusOK, s.StatsSnapshot())
}

func (s *Server) handleCollStats(w http.ResponseWriter, r *http.Request) {
	o := outcome{endpoint: "stats"}
	c := s.resolve(w, r, o)
	if c == nil {
		return
	}
	cs := snap(c, time.Now())
	s.respond(w, c, o, http.StatusOK, cs.stats())
}

func (s *Server) handleDebugSlow(w http.ResponseWriter, r *http.Request) {
	o := outcome{endpoint: "debug_slow"}
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.fail(w, nil, o, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	slow, sample := s.slow.Snapshot()
	if slow == nil {
		slow = []obs.SlowEntry{}
	}
	if sample == nil {
		sample = []obs.SlowEntry{}
	}
	s.respond(w, nil, o, http.StatusOK, slowLogResponse{
		ThresholdUS: float64(s.slow.Threshold()) / float64(time.Microsecond),
		Slow:        slow,
		Sample:      sample,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	code, status := http.StatusOK, "ok"
	if s.draining.Load() {
		code, status = http.StatusServiceUnavailable, "draining"
	}
	s.respond(w, nil, outcome{endpoint: "healthz"}, code, map[string]string{"status": status})
}

// handleMetrics renders the family table (metrics.go) over one scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.record(nil, outcome{endpoint: "metrics", code: http.StatusOK})
	sc := s.scrape()
	sc.version = s.version
	sc.poolGets, sc.poolMisses = obs.PoolStats()
	runtime.ReadMemStats(&sc.mem)
	var e obs.Expo
	writeFamilies(&e, sc)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(e.Bytes()) // a scraper that hung up is not an error to report
}

// ---- plumbing ----

// admit runs the admission controller for one request: first the
// collection's concurrency share, then the global semaphore. It answers
// 503 (with a load-derived Retry-After) on share exhaustion, queue
// overflow, or admission deadline, and reports whether the caller now
// holds a slot (to be returned via release).
func (s *Server) admit(w http.ResponseWriter, r *http.Request, c *engine.Collection, o outcome) bool {
	var err error
	sv := c.Serving()
	if occ := sv.Occupancy.Add(1); s.collShare > 0 && occ > s.collShare {
		sv.QuotaRejected.Add(1)
		err = fmt.Errorf("collection %q is over its concurrency share (%d in flight)", c.Name(), s.collShare)
	} else if !s.adm.tryAcquire() {
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		err = s.adm.acquire(ctx)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("server: admission wait exceeded %v", s.timeout)
		}
	}
	if err == nil {
		return true
	}
	sv.Occupancy.Add(-1)
	o.rejected = true
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	s.fail(w, c, o, http.StatusServiceUnavailable, err)
	return false
}

// release returns the slot taken by a successful admit.
func (s *Server) release(c *engine.Collection) {
	s.adm.release()
	c.Serving().Occupancy.Add(-1)
}

// retryAfterSeconds estimates how long a shed client should back off:
// the time for the current queue to drain through the execution slots
// at the observed median latency. Before any latency has been observed
// the admission deadline stands in — a client retrying sooner would
// most likely queue up to that deadline again anyway.
func (s *Server) retryAfterSeconds() int {
	return retryAfterSeconds(s.adm.queueDepth(), s.adm.capacity(),
		s.met.latency.Quantile(0.50), s.timeout.Seconds())
}

// retryAfterSeconds is the pure calculation behind the Retry-After
// header: (queued+1) requests draining through slots execution lanes at
// p50 seconds each, rounded up and clamped to [1s, 60s]. p50 ≤ 0 (no
// observations yet) falls back to the admission deadline.
func retryAfterSeconds(queued int64, slots int, p50, timeoutSec float64) int {
	if p50 <= 0 {
		p50 = timeoutSec
	}
	if slots < 1 {
		slots = 1
	}
	wait := float64(queued+1) * p50 / float64(slots)
	sec := int(math.Ceil(wait))
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// requirePost enforces the method and caps the request body, so an
// oversized post fails during decoding instead of buffering unbounded
// data outside the admission controller's resource bounds.
func (s *Server) requirePost(w http.ResponseWriter, r *http.Request, o outcome) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, nil, o, http.StatusMethodNotAllowed, errors.New("use POST"))
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	return true
}

// statusClientClosed is the code a batch is counted under when its client
// went away before it finished (nginx's "client closed request"); the
// client never sees it.
const statusClientClosed = 499

// statusFor maps backend errors to HTTP statuses: the facade's typed
// validation errors — of a query or of an inserted vector — are the
// client's fault (400), a stale cursor is 410 Gone (the token was valid
// once; the client restarts the scan), a write the journal could not make
// durable is 503, anything else is 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, lccs.ErrCursorStale):
		return http.StatusGone
	case errors.Is(err, lccs.ErrNotDurable):
		return http.StatusServiceUnavailable
	case errors.Is(err, lccs.ErrInvalidK),
		errors.Is(err, lccs.ErrInvalidBudget),
		errors.Is(err, lccs.ErrEmptyQuery),
		errors.Is(err, lccs.ErrEmptyVector),
		errors.Is(err, lccs.ErrAttrsMismatch),
		errors.Is(err, lccs.ErrDimensionMismatch),
		errors.Is(err, lccs.ErrNonFinite),
		errors.Is(err, lccs.ErrInvalidFilter),
		errors.Is(err, lccs.ErrCursorInvalid):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// respond is every handler's exit: it encodes body into a pooled buffer,
// then sends it under the status code. A body encoding/json refuses is
// answered 400 instead — never a status with an empty body.
func (s *Server) respond(w http.ResponseWriter, c *engine.Collection, o outcome, code int, body any) {
	wb := getWireBuf()
	defer putWireBuf(wb)
	if err := json.NewEncoder(wb).Encode(body); err != nil {
		s.fail(w, c, o, statusFor(errNotFinite), errNotFinite)
		return
	}
	s.send(w, c, o, code, wb.b)
}

// send records the request's one outcome, then writes the encoded body
// under the status code in one Write.
func (s *Server) send(w http.ResponseWriter, c *engine.Collection, o outcome, code int, body []byte) {
	o.code = code
	s.record(c, o)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body) // a client that hung up is not an error to report
}

// fail is respond with an error body.
func (s *Server) fail(w http.ResponseWriter, c *engine.Collection, o outcome, code int, err error) {
	s.respond(w, c, o, code, errorResponse{Error: err.Error()})
}
