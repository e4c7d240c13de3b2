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

// Cursor-paginated search. A cursor is access by rank into the answer of
// one query: the query its first page ran, Query{K: k₀, Budget: λ,
// Filter: f} with k₀ the first page size. Every page runs the segment
// set's one query (segset.go) for the top consumed + limit rows, with each
// segment verifying exactly the candidates that first query verifies, and
// returns ranks [consumed, consumed + limit) of its answer. The candidate
// set is fixed and the (Dist, slot) order total, so page 1 is the one-shot
// answer at K = limit, each later page holds the next ranks of that one
// ranking, and at λ ≥ Len() — every live row a candidate — a drain is the
// one-shot top-n.
//
// The token records the write generation, λ, k₀, a hash binding it to the
// query and filter, and the number of rows earlier pages returned. The
// generation starts at an instance-unique epoch, so a token resumes only
// on the index instance that minted it — never on another index, nor on
// the same data reopened by a later process. On a DynamicIndex any write
// (insert, delete, compaction, background shard swap, rebuild) bumps the
// generation and invalidates outstanding tokens; an Index never
// invalidates its own.

// ErrCursorInvalid is returned for a malformed cursor token or one
// minted for a different query or filter.
var ErrCursorInvalid = errors.New("lccs: invalid cursor token")

// ErrCursorStale is returned when the index was written to after the
// token was minted. It wraps ErrCursorInvalid.
var ErrCursorStale = fmt.Errorf("%w: invalidated by writes", ErrCursorInvalid)

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
	gen      uint64 // backend write generation at mint time
	lambda   int    // candidate budget the scan was started with
	k0       int    // first page size: fixes every segment's candidates
	hash     uint64 // binds the token to (query, filter)
	consumed int    // rows earlier pages returned
}

const cursorVersion = 2

// encodeCursor serializes a token: URL-safe base64 over a versioned
// varint encoding.
func encodeCursor(t cursorToken) string {
	buf := make([]byte, 0, 40)
	buf = append(buf, cursorVersion)
	buf = binary.AppendUvarint(buf, t.gen)
	buf = binary.AppendUvarint(buf, uint64(t.lambda))
	buf = binary.AppendUvarint(buf, uint64(t.k0))
	buf = binary.LittleEndian.AppendUint64(buf, t.hash)
	buf = binary.AppendUvarint(buf, uint64(t.consumed))
	return base64.RawURLEncoding.EncodeToString(buf)
}

// decodeCursor parses a token; every failure is ErrCursorInvalid. λ and
// k₀ are positive, and they and the consumed count at most MaxInt32.
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
	// count reads a field in [lo, MaxInt32]; -1 when there is none.
	count := func(lo uint64) int {
		if v, ok := next(); ok && v >= lo && v <= math.MaxInt32 {
			return int(v)
		}
		return -1
	}
	gen, ok := next()
	if !ok {
		return t, ErrCursorInvalid
	}
	t.gen, t.lambda, t.k0 = gen, count(1), count(1)
	if t.lambda < 0 || t.k0 < 0 || len(rest) < 8 {
		return t, ErrCursorInvalid
	}
	t.hash = binary.LittleEndian.Uint64(rest)
	rest = rest[8:]
	if t.consumed = count(0); t.consumed < 0 || len(rest) != 0 {
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
// backend state and returns it; an empty cursor mints a fresh token for a
// first page of k0 rows under budget lambda.
func cursorResume(cursor string, q []float32, lambda, k0 int, f *Filter, gen uint64) (cursorToken, error) {
	if cursor == "" {
		return cursorToken{gen: gen, lambda: lambda, k0: k0, hash: cursorHash(q, f)}, nil
	}
	t, err := decodeCursor(cursor)
	if err != nil {
		return t, err
	}
	if t.hash != cursorHash(q, f) {
		return t, fmt.Errorf("%w: token belongs to a different query", ErrCursorInvalid)
	}
	if t.gen != gen {
		return t, ErrCursorStale
	}
	return t, nil
}

// searchCursor is the cursor page of every facade, under the backend's
// write generation gen: validate and clamp the request (qr.K is the page
// size), resume (or mint) the token, run the set's one query for the top
// consumed + limit rows with the candidates fixed by the token's k₀ and
// λ, and return the ranks past the consumed ones. A fetch that came back
// full may have more ranks behind it, so it carries a next token.
func (s *segSet) searchCursor(q []float32, qr Query, cursor string, gen uint64) ([]Neighbor, string, error) {
	limit, lambda, err := qr.resolve(q, s)
	if err != nil {
		return nil, "", err
	}
	start := time.Now()
	t, err := cursorResume(cursor, q, lambda, limit, qr.Filter, gen)
	if err != nil {
		return nil, "", err
	}
	if cursor != "" {
		defer func() { obs.ObserveDur(obs.StageCursorResume, time.Since(start)) }()
	}
	if limit == 0 { // an empty DynamicIndex
		return nil, "", nil
	}
	qr.K, qr.Budget = t.consumed+limit, t.lambda
	res, err := s.searchQuery(q, qr, t.k0, nil)
	if err != nil {
		return nil, "", err
	}
	page, next := res[min(t.consumed, len(res)):], ""
	if len(res) == qr.K {
		t.consumed = qr.K
		next = encodeCursor(t)
	}
	return page, next, nil
}

// SearchCursor pages through the ranking of qr over every shard; tokens
// are bound to this instance. See Searcher.
func (ix *Index) SearchCursor(q []float32, qr Query, cursor string) ([]Neighbor, string, error) {
	return ix.searchCursor(q, qr, cursor, ix.epoch)
}

// SearchCursor pages through the ranking of qr over the shards and the
// delta buffer, under the read lock; any write invalidates outstanding
// tokens. See Searcher.
func (d *DynamicIndex) SearchCursor(q []float32, qr Query, cursor string) ([]Neighbor, string, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.searchCursor(q, qr, cursor, d.writes)
}
