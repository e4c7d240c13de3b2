package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"lccs"
)

// This file is the /v1/search wire codec. The search body is the hot one
// — every other body keeps encoding/json — so its request is read into a
// pooled buffer and decoded by a byte scanner, and its untraced response
// is appended into a pooled buffer. encoding/json stays behind both: it
// decodes every body the scanner does not recognise as canonical, it
// encodes every response that carries a trace, a plan or an escaped
// cursor, and the tests hold the codec to it byte for byte.

// maxPooledBuf is the largest buffer put back into a pool. A rare larger
// body or response is left to the collector, so one outsized request
// does not pin its memory in a pool slot.
const maxPooledBuf = 64 << 10

// errNotFinite answers a response encoding/json refuses. The only values
// it refuses in this server's bodies are non-finite floats, and the only
// ones a client can drive there are result distances, which are finite
// for every admissible query: a Euclidean float32 sum of squares that
// overflows is taken again in float64 (vec.Distance64), and Angular
// refuses rows whose norm overflows. It is a guard no admissible request
// reaches.
var errNotFinite = fmt.Errorf("%w: result distance is not finite", lccs.ErrNonFinite)

// wireBuf is a pooled response buffer: encoding/json writes into it,
// the search codec appends to b directly.
type wireBuf struct{ b []byte }

func (w *wireBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

var wireBufPool = sync.Pool{New: func() any { return new(wireBuf) }}

func getWireBuf() *wireBuf {
	wb := wireBufPool.Get().(*wireBuf)
	wb.b = wb.b[:0]
	return wb
}

func putWireBuf(wb *wireBuf) {
	if cap(wb.b) <= maxPooledBuf {
		wireBufPool.Put(wb)
	}
}

// ---- request ----

// readSearch reads one /v1/search body into sc.body and decodes it into
// sc.req, which getSearchScratch reset. A canonical body takes the
// scanner; anything else — and a body whose read failed — is decoded by
// encoding/json from the same bytes, so grammar, values and error texts
// are encoding/json's.
func readSearch(r io.Reader, sc *searchScratch) error {
	body, err := readBody(r, sc.body)
	sc.body = body
	if err == nil && scanSearch(body, &sc.req) {
		return nil
	}
	sc.req.reset()
	// encoding/json leaves the slot of a null element as it finds it: zero
	// the reused query storage, so the previous request's coordinates
	// cannot show through and the slice decodes as a fresh one would.
	clear(sc.req.Query[:cap(sc.req.Query)])
	src := io.Reader(bytes.NewReader(body))
	if err != nil {
		// The read failed (a body over MaxBodyBytes): the decoder sees what
		// arrived, then the error, exactly as it would reading the stream.
		src = io.MultiReader(src, errReader{err})
	}
	return json.NewDecoder(src).Decode(&sc.req)
}

// readBody is io.ReadAll appending into buf's storage.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	b := buf[:0]
	if cap(b) == 0 {
		b = make([]byte, 0, 512)
	}
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// scanSearch decodes body into req when body is a canonical search
// request: one object whose keys are exactly query, k, budget, limit,
// cursor, trace and explain (lowercase, unescaped, any order, a later
// duplicate overwriting an earlier one, as encoding/json does); query an
// array of numbers, each parsed as encoding/json parses a float32; k,
// budget and limit integer literals; cursor a string of plain ASCII with
// no escape; trace and explain true or false. Like encoding/json's
// Decoder it reads the one object and ignores what follows it. It
// reports false on the first byte outside that shape — a filter, an
// unknown or case-variant key, null, an escape, a non-ASCII byte, a
// number encoding/json would refuse, a grammar error — leaving req to be
// reset and decoded again.
func scanSearch(body []byte, req *searchRequest) bool {
	s := wireScanner{b: body}
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.eat(':') {
			return false
		}
		switch string(key) {
		case "query":
			req.Query, ok = s.floats(req.Query[:0])
		case "k":
			ok = s.int(&req.K)
		case "budget":
			ok = s.int(&req.Budget)
		case "limit":
			ok = s.int(&req.Limit)
		case "cursor":
			var v []byte
			if v, ok = s.str(); ok {
				req.Cursor = string(v)
			}
		case "trace":
			ok = s.bool(&req.Trace)
		case "explain":
			ok = s.bool(&req.Explain)
		default:
			return false
		}
		if !ok {
			return false
		}
		if s.eat('}') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// wireScanner walks a body for scanSearch. Each method skips the JSON
// whitespace before its token and reports false when the token is not
// there in its canonical form.
type wireScanner struct {
	b []byte
	i int
}

func (s *wireScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes the byte c.
func (s *wireScanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str consumes a string of printable ASCII with no escape and returns
// its contents, which alias the body.
func (s *wireScanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// number consumes one literal of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reports whether it
// is an integer literal (no fraction, no exponent). What may follow it
// is the caller's check: "01" is the number 0 followed by a byte no
// caller accepts.
func (s *wireScanner) number() (lit []byte, integer, ok bool) {
	s.ws()
	b, i := s.b, s.i
	digits := func() bool {
		start := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		digits()
	default:
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false, false
		}
		integer = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false, false
		}
		integer = false
	}
	lit, s.i = b[s.i:i], i
	return lit, integer, true
}

// floats consumes an array of numbers, appending each to dst as
// encoding/json decodes a float32: strconv.ParseFloat(lit, 32), refused
// on any error.
func (s *wireScanner) floats(dst []float32) ([]float32, bool) {
	if !s.eat('[') {
		return dst, false
	}
	if s.eat(']') {
		return dst, true
	}
	for {
		lit, _, ok := s.number()
		if !ok {
			return dst, false
		}
		f, err := strconv.ParseFloat(string(lit), 32)
		if err != nil {
			return dst, false
		}
		dst = append(dst, float32(f))
		if s.eat(']') {
			return dst, true
		}
		if !s.eat(',') {
			return dst, false
		}
	}
}

// int consumes an integer literal that fits an int, as encoding/json
// decodes one.
func (s *wireScanner) int(dst *int) bool {
	lit, integer, ok := s.number()
	if !ok || !integer {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return false
	}
	*dst = int(n)
	return true
}

// bool consumes true or false.
func (s *wireScanner) bool(dst *bool) bool {
	s.ws()
	rest := s.b[s.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst, s.i = true, s.i+4
	case bytes.HasPrefix(rest, []byte("false")):
		*dst, s.i = false, s.i+5
	default:
		return false
	}
	return true
}

// ---- response ----

// encodeSearch appends resp's JSON to b, byte-identical to
// json.NewEncoder(w).Encode(resp) and its trailing newline, and fails
// with errNotFinite where that encoder fails. A response with nothing
// but neighbors, the cached flag, took_us and a plain cursor is
// appended; one carrying a trace, a plan, a request id, a nil row or a
// cursor byte encoding/json escapes goes through encoding/json.
func encodeSearch(b []byte, resp *searchResponse) ([]byte, error) {
	if resp.Trace != nil || resp.Explain != nil || resp.RequestID != 0 ||
		resp.Neighbors == nil || !plainString(resp.NextCursor) {
		wb := wireBuf{b: b}
		if err := json.NewEncoder(&wb).Encode(*resp); err != nil {
			return b, errNotFinite
		}
		return wb.b, nil
	}
	return appendSearchResponse(b, resp)
}

// plainString reports whether encoding/json writes s between its quotes
// unchanged: printable ASCII other than the quote, the backslash and the
// three bytes it HTML-escapes.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// appendSearchResponse is encodeSearch's appending encoder, for a
// response encodeSearch found plain.
func appendSearchResponse(b []byte, resp *searchResponse) ([]byte, error) {
	b = append(b, `{"neighbors":[`...)
	for i, nb := range resp.Neighbors {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(nb.ID), 10)
		b = append(b, `,"dist":`...)
		var ok bool
		if b, ok = appendJSONFloat(b, nb.Dist); !ok {
			return b, errNotFinite
		}
		b = append(b, '}')
	}
	b = append(b, `],"cached":`...)
	b = strconv.AppendBool(b, resp.Cached)
	b = append(b, `,"took_us":`...)
	b = strconv.AppendInt(b, resp.TookMicros, 10)
	if resp.NextCursor != "" {
		b = append(b, `,"next_cursor":"`...)
		b = append(b, resp.NextCursor...)
		b = append(b, '"')
	}
	return append(b, "}\n"...), nil
}

// appendJSONFloat formats f as encoding/json formats a float64: the
// shortest 'f' form, or the 'e' form below 1e-6 and from 1e21 on with a
// one-digit negative exponent unpadded (e-7, not e-07). It reports false
// for NaN and ±Inf, which encoding/json refuses.
func appendJSONFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, true
}
