package lccs

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync/atomic"
	"time"

	"lccs/internal/obs"
)

// Cursor-paginated search. SearchCursor replaces one-shot top-k with
// direct access into the ranked result stream: each call returns the
// next `limit` results and an opaque continuation token. The token
// records, per result source (one per segment, plus the tail on a
// DynamicIndex), how many results earlier pages consumed, together with
// a write-generation guard and a hash binding it to the query, filter,
// and budget it was minted for. Resuming re-fetches each source's top
// (consumed + limit) ranked stream and runs the segment set's merge
// (segset.go) from the consumed positions, so draining a cursor to
// exhaustion yields exactly the one-shot top-n ordering. The generation
// starts at an instance-unique epoch, so a token resumes only on the index
// instance that minted it — never on another index, nor on the same data
// reopened by a later process. On a DynamicIndex any write (insert,
// delete, compaction, background shard swap, rebuild) bumps the generation
// and invalidates outstanding tokens; an Index never invalidates its own.
//
// Ranking inside each source is budget-bound like any LCCS query, each
// segment under its share of λ by the set's budget rule — on every
// facade: a DynamicIndex cursor once gave each shard the whole λ at any
// λ; it now divides a budget below the live indexed rows like every
// other path, and like them is exact at λ ≥ Len(). Crucially the number
// of candidates each source verifies is pinned to its share of the
// token's λ rather than the usual λ+k−1: the fetch size k grows
// with every page, and letting it widen the verified set would let a
// newly discovered candidate slide in ahead of the consumed prefix —
// duplicating one result and silently dropping another. With the
// candidate count fixed, a source's ranked stream is a deterministic
// function of (query, filter, λ) alone and deeper fetches only extend
// it.

// ErrCursorInvalid is returned for a malformed cursor token or one
// minted for a different query, filter, budget, or backend shape.
var ErrCursorInvalid = errors.New("lccs: invalid cursor token")

// ErrCursorStale is returned when the index was written to after the
// token was minted. It wraps ErrCursorInvalid.
var ErrCursorStale = fmt.Errorf("%w: invalidated by writes", ErrCursorInvalid)

// CursorSearcher is implemented by every facade: resumable ranked
// search. limit is the page size; lambda the candidate budget (0
// selects the default, negative is ErrInvalidBudget; ignored on resume —
// the token carries the original); f may be nil. An empty cursor starts
// a new scan. The returned next token is empty once the result stream is
// exhausted.
type CursorSearcher interface {
	SearchCursor(q []float32, limit, lambda int, f *Filter, cursor string) (page []Neighbor, next string, err error)
}

// Compile-time conformance of the facades.
var (
	_ CursorSearcher = (*Index)(nil)
	_ CursorSearcher = (*DynamicIndex)(nil)
)

// cursorEpoch seeds each facade instance's cursor generation — an
// Index's fixed epoch, a DynamicIndex's write generation — with a unique
// starting value: time-seeded so generations never repeat across process
// restarts, strided so two instances in one process (two indexes over
// different data, a durable index before and after crash recovery) can
// never reach each other's range by ordinary write bumps. A cursor token
// is thereby bound to the index *instance* that minted it — on any other
// instance the token is rejected (ErrCursorStale) instead of silently
// resuming over a result stream that instance never produced.
var cursorEpoch atomic.Uint64

func init() { cursorEpoch.Store(uint64(time.Now().UnixNano())) }

func nextCursorEpoch() uint64 { return cursorEpoch.Add(1 << 32) }

// cursorToken is the decoded continuation state.
type cursorToken struct {
	gen    uint64 // backend write generation at mint time
	lambda int    // candidate budget the scan was started with
	hash   uint64 // binds the token to (query, filter)
	offs   []int  // per-source results consumed by earlier pages
}

const cursorVersion = 1

// cursorMaxSources bounds decoded source counts (corrupt tokens must
// not drive allocations).
const cursorMaxSources = 1 << 16

// encodeCursor serializes a token: URL-safe base64 over a versioned
// varint encoding.
func encodeCursor(t cursorToken) string {
	buf := make([]byte, 0, 16+10*len(t.offs))
	buf = append(buf, cursorVersion)
	buf = binary.AppendUvarint(buf, t.gen)
	buf = binary.AppendUvarint(buf, uint64(t.lambda))
	buf = binary.LittleEndian.AppendUint64(buf, t.hash)
	buf = binary.AppendUvarint(buf, uint64(len(t.offs)))
	for _, off := range t.offs {
		buf = binary.AppendUvarint(buf, uint64(off))
	}
	return base64.RawURLEncoding.EncodeToString(buf)
}

// decodeCursor parses a token; every failure is ErrCursorInvalid.
func decodeCursor(s string) (cursorToken, error) {
	var t cursorToken
	buf, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil || len(buf) < 2 || buf[0] != cursorVersion {
		return t, ErrCursorInvalid
	}
	rest := buf[1:]
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, false
		}
		rest = rest[n:]
		return v, true
	}
	gen, ok := next()
	if !ok {
		return t, ErrCursorInvalid
	}
	lambda, ok := next()
	if !ok || lambda == 0 || lambda > math.MaxInt32 {
		return t, ErrCursorInvalid
	}
	if len(rest) < 8 {
		return t, ErrCursorInvalid
	}
	t.hash = binary.LittleEndian.Uint64(rest)
	rest = rest[8:]
	nsrc, ok := next()
	if !ok || nsrc == 0 || nsrc > cursorMaxSources || nsrc > uint64(len(rest)) { // an offset is at least a byte
		return t, ErrCursorInvalid
	}
	t.gen, t.lambda = gen, int(lambda)
	t.offs = make([]int, nsrc)
	for i := range t.offs {
		off, ok := next()
		if !ok || off > math.MaxInt32 {
			return t, ErrCursorInvalid
		}
		t.offs[i] = int(off)
	}
	if len(rest) != 0 {
		return t, ErrCursorInvalid
	}
	return t, nil
}

// cursorHash binds a token to the query and filter it was minted for.
func cursorHash(q []float32, f *Filter) uint64 {
	h := fnv.New64a()
	var word [4]byte
	for _, v := range q {
		binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
		h.Write(word[:])
	}
	h.Write(f.AppendKey(nil))
	return h.Sum64()
}

// cursorResume validates a continuation token against the current
// backend state and returns it; an empty cursor mints a fresh token.
func cursorResume(cursor string, q []float32, lambda int, f *Filter, gen uint64, nsrc int) (cursorToken, error) {
	if cursor == "" {
		return cursorToken{gen: gen, lambda: lambda, hash: cursorHash(q, f), offs: make([]int, nsrc)}, nil
	}
	t, err := decodeCursor(cursor)
	if err != nil {
		return t, err
	}
	if t.hash != cursorHash(q, f) {
		return t, fmt.Errorf("%w: token belongs to a different query", ErrCursorInvalid)
	}
	if t.gen != gen || len(t.offs) != nsrc {
		return t, ErrCursorStale
	}
	return t, nil
}

// searchCursor is the cursor page of every facade, under the backend's
// write generation gen: validate and clamp the request, resume (or mint)
// the token, fetch each source's ranked top (consumed + limit) — every
// segment with tombstones and rows failing f dropped in-stream for free
// and the verification work pinned to its share of λ live matching
// candidates, the tail by its exact scan, which is always fully
// enumerated — merge one page from the consumed positions, and re-encode.
// A source is drained once it returned fewer results than it was asked
// for and the page consumed them all.
func (s *segSet) searchCursor(q []float32, limit, budget int, f *Filter, cursor string, gen uint64) ([]Neighbor, string, error) {
	limit, lambda, err := Query{K: limit, Budget: budget, Filter: f}.resolve(q, s)
	if err != nil {
		return nil, "", err
	}
	start := time.Now()
	nsrc := len(s.segs)
	if s.dynamic {
		nsrc++
	}
	t, err := cursorResume(cursor, q, lambda, f, gen, nsrc)
	if err != nil {
		return nil, "", err
	}
	if cursor != "" {
		lambda = t.lambda
		defer func() { obs.ObserveDur(obs.StageCursorResume, time.Since(start)) }()
	}
	page := make([]Neighbor, 0, limit)
	if limit == 0 { // an empty DynamicIndex
		return page, "", nil
	}
	ctx := getCtx(nsrc)
	lamSeg := s.segBudget(lambda)
	for i := range s.segs {
		// Exactly lamSeg candidates on every page: a stream of that many
		// cannot rank more, and the budget passed down makes up for the
		// fetch size so that λ' + k − 1 = lamSeg.
		k := min(t.offs[i]+limit, lamSeg)
		ctx.lists[i], _ = s.scan(i, q, k, lamSeg-k+1, f, true, ctx.lists[i], nil, -1)
	}
	if tail := len(s.segs); tail < nsrc {
		ctx.lists[tail], _ = s.scanTail(q, t.offs[tail]+limit, f, math.Inf(1), &ctx.best, ctx.lists[tail])
	}
	ctx.t.Reset(ctx.lists[:nsrc], t.offs)
	page = ctx.t.AppendTopK(limit, page)
	more := false
	for i, list := range ctx.lists[:nsrc] {
		requested := t.offs[i] + limit
		t.offs[i] = ctx.t.Pos(i)
		// Unconsumed results remain, or the source returned its full
		// request (it may hold more beyond what was fetched).
		more = more || t.offs[i] < len(list) || len(list) >= requested
	}
	setCtxs.Put(ctx)
	next := ""
	if more {
		next = encodeCursor(t)
	}
	for i := range page {
		page[i].ID = s.ids.Ext(page[i].ID)
	}
	return page, next, nil
}

// SearchCursor pages through the ranked, merged results of a (optionally
// filtered) scan of every shard. Tokens are bound to this instance. See
// CursorSearcher.
func (ix *Index) SearchCursor(q []float32, limit, lambda int, f *Filter, cursor string) ([]Neighbor, string, error) {
	return ix.searchCursor(q, limit, lambda, f, cursor, ix.epoch)
}

// SearchCursor pages through the ranked results of a dynamic scan:
// sources are the immutable shards plus the delta buffer. Tokens are
// invalidated by any write. See CursorSearcher.
func (d *DynamicIndex) SearchCursor(q []float32, limit, lambda int, f *Filter, cursor string) ([]Neighbor, string, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.searchCursor(q, limit, lambda, f, cursor, d.writes)
}
