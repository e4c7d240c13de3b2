package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"lccs"
	"lccs/internal/obs"
	"lccs/internal/rng"
)

// decodeSearchBoth decodes body with the codec, into scratch whose query
// storage holds another request's coordinates, and with encoding/json,
// into a fresh request, and fails t unless both give the same error text
// or the same fields, the query compared bit for bit.
func decodeSearchBoth(t *testing.T, body []byte) {
	t.Helper()
	sc := &searchScratch{body: []byte("stale body"), req: searchRequest{Query: []float32{7, 7, 7, 7, 7, 7, 7, 7, 7, 7}}}
	sc.req.reset()
	gotErr := readSearch(bytes.NewReader(body), sc)
	var want searchRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("body %q: codec error %v, encoding/json error %v", body, gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("body %q: codec error %q, encoding/json error %q", body, gotErr, wantErr)
		}
		return
	}
	got := &sc.req
	same := len(got.Query) == len(want.Query)
	for i := 0; same && i < len(got.Query); i++ {
		same = math.Float32bits(got.Query[i]) == math.Float32bits(want.Query[i])
	}
	if !same || got.K != want.K || got.Budget != want.Budget || got.Limit != want.Limit ||
		got.Cursor != want.Cursor || got.Trace != want.Trace || got.Explain != want.Explain ||
		!reflect.DeepEqual(got.Filter, want.Filter) {
		t.Fatalf("body %q:\ncodec         %+v\nencoding/json %+v", body, *got, want)
	}
}

// FuzzSearchDecode: for any body, the /v1/search codec (scanner plus
// encoding/json fallback) and json.NewDecoder(…).Decode agree on whether
// it is an error, on the error's text, and on every decoded field.
func FuzzSearchDecode(f *testing.F) {
	for _, body := range searchSeedBodies(`[0.5,-1.25,3,0,7.5,-2,1,4]`) {
		f.Add([]byte(body))
	}
	for _, body := range []string{
		`{"query":[-0,0,-0.0],"k":-0}`,
		`{"query":[1],"k":1E+2}`,
		`{"query":[1e39],"k":1}`,
		`{"query":[1e-50,3.4028235e38,1.4e-45],"k":1}`,
		`{"query":[1,2],"query":[3],"k":1}`,
		`{"Query":[1,2],"k":1}`,
		`{"query":[1,2],"k":1}trailing bytes`,
		`{"query":[1,2],"k":1} {"k":2}`,
		`null`,
		`{"query":null,"k":null}`,
		`{"query":[1,null,2],"k":1}`,
		`{"query":[1],"k":1,"limit":2,"cursor":"a\u0062c"}`,
		`{"query":[1],"k":1,"limit":2,"cursor":"é"}`,
		`[]`,
		`{"query":[],"k":1}`,
		" \t\r\n{ \t\r\n\"query\" \n:\r [ 1 ,\t2 ] , \"k\" : 3 ,\"trace\" :true,\"explain\":\tfalse , \"budget\":40,\"limit\" :0 ,\"cursor\":\"\" }\n",
		`{"query":[01],"k":1}`,
		`{"query":[+1],"k":1}`,
		`{"query":[1.],"k":1}`,
		`{"query":[.5],"k":1}`,
		`{"query":[1e],"k":1}`,
		`{"query":[1],"k":1.0}`,
		`{"query":[1],"k":9223372036854775808}`,
		`{"query":[1],"k":-9223372036854775808}`,
		`{"query":[1],"k":"5"}`,
		`{"query":[1],"trace":truex}`,
		`{"query":[1],"trace":nul}`,
		`{"query":[1],"k":1,"filter":[{"key":"color","value":"red"}]}`,
		`{"query":[1],"k":1,"filter":[]}`,
		`{"query":[1],"\u006b":1}`,
		"\xef\xbb\xbf{\"query\":[1],\"k\":1}",
		`{}`,
		`{"query":[1],"k":1,}`,
		`{"query":[1] "k":1}`,
		`{"query":[1],"k":1`,
		`{"query":[0.1000000000000000055511151231257827021181583404541015625],"k":1}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { decodeSearchBoth(t, body) })
}

// FuzzFilterTerms: for any filter array in a /v1/search body, parseFilter
// answers an error or a filter that passes Validate, whose AppendKey is
// the same on every call and on a second parse of the body, and whose
// Matches does not panic on attribute rows built from its own terms. A
// row holding each term's own value matches when no key repeats; a row
// with no attributes matches only the empty filter.
func FuzzFilterTerms(f *testing.F) {
	for _, filter := range []string{
		`[{"key":"color","value":"red"}]`,
		`[{"key":"tier","op":"eq","value":3}]`,
		`[{"key":"n","op":"range","min":-5,"max":5}]`,
		`[{"key":"n","op":"range","min":7}]`,
		`[{"key":"n","op":"range","max":-9223372036854775808}]`,
		`[{"key":"n","op":"range","min":5,"max":4}]`,
		`[{"key":"n","op":"range"}]`,
		`[{"key":"","value":"x"}]`,
		`[{"key":"a","value":1.5}]`,
		`[{"key":"a","value":9007199254740992}]`,
		`[{"key":"a","value":-9007199254740991}]`,
		`[{"key":"a","value":true}]`,
		`[{"key":"a","value":null}]`,
		`[{"key":"a","op":"lt","value":1}]`,
		`[{"key":"a","value":"x"},{"key":"a","value":"y"}]`,
		`[{"key":"a","value":"x"},{"key":"b","op":"range","min":0,"max":0},{"key":"c","value":0}]`,
		`[]`,
		`null`,
		`[{}]`,
		`{"key":"a"}`,
	} {
		f.Add([]byte(filter))
	}
	f.Fuzz(func(t *testing.T, filter []byte) {
		body := append(append([]byte(`{"query":[1],"k":1,"filter":`), filter...), '}')
		parse := func() (*lccs.Filter, error) {
			var sc searchScratch
			if err := readSearch(bytes.NewReader(body), &sc); err != nil {
				return nil, err
			}
			return parseFilter(sc.req.Filter)
		}
		flt, err := parse()
		if err != nil {
			return
		}
		if err := flt.Validate(); err != nil {
			t.Fatalf("filter %s: parsed into a filter Validate refuses: %v", filter, err)
		}
		key := flt.AppendKey(nil)
		if again := flt.AppendKey(nil); !bytes.Equal(key, again) {
			t.Fatalf("filter %s: AppendKey %x, then %x", filter, key, again)
		}
		if reparsed, err := parse(); err != nil || !bytes.Equal(key, reparsed.AppendKey(nil)) {
			t.Fatalf("filter %s: a second parse gives key %x (err %v), the first %x", filter, reparsed.AppendKey(nil), err, key)
		}
		own, repeats := lccs.Attrs{}, false
		if flt != nil {
			for _, term := range flt.Terms {
				_, seen := own[term.Key]
				repeats = repeats || seen
				switch {
				case term.Op == lccs.FilterEq:
					own[term.Key] = term.Value
				case term.HasMin:
					own[term.Key] = lccs.IntAttr(term.Min)
				default:
					own[term.Key] = lccs.IntAttr(term.Max)
				}
			}
		}
		if ok := flt.Matches(own); !ok && !repeats {
			t.Fatalf("filter %s: refuses the row of its own terms' values %v", filter, own)
		}
		if ok := flt.Matches(nil); ok != flt.Empty() {
			t.Fatalf("filter %s: Matches(no attributes) = %v on a filter of %d terms", filter, ok, len(flt.Terms))
		}
	})
}

// TestScanSearchCanonical pins which bodies the scanner decodes itself:
// every body encoding/json marshals from an unfiltered request, in any
// key order and spacing, and nothing it must leave to encoding/json.
func TestScanSearchCanonical(t *testing.T) {
	marshal := func(req searchRequest) string {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	canonical := []string{
		marshal(searchRequest{Query: []float32{0.1, -2.5e-8, 3e20, 0}, K: 10}),
		marshal(searchRequest{Query: []float32{1}, K: 1, Budget: 400, Limit: 3, Cursor: "AQD_____Bw", Trace: true, Explain: true}),
		`{"k":5,"query":[1,2,3],"k":6}`,
		" {\n\t\"query\" : [ 1 , 2 ] ,\r\n\"k\":1 } ",
		`{"query":[1],"k":1}trailing bytes`,
		`{}`,
	}
	for _, body := range canonical {
		var req searchRequest
		if !scanSearch([]byte(body), &req) {
			t.Errorf("scanner refused the canonical body %s", body)
		}
	}
	for _, body := range []string{
		marshal(searchRequest{Query: []float32{1}, K: 1, Filter: []filterTermJSON{{Key: "color", Value: "red"}}}),
		`{"Query":[1],"k":1}`, `{"query":[1],"extra":1}`, `{"query":null}`, `{"query":[1,null]}`,
		`{"cursor":"a\"b"}`, `{"cursor":"é"}`, `{"k":1e2}`, `{"k":1.0}`, `{"k":01}`, `{"query":[1e39]}`,
		`{"k":99999999999999999999}`, `{"trace":1}`, `{"query":[1],}`, `[]`, `null`, ``,
	} {
		var req searchRequest
		if scanSearch([]byte(body), &req) {
			t.Errorf("scanner decoded %s, which is encoding/json's to decode", body)
		}
	}
}

// TestSearchResponseEncodeMatchesJSON: the search response codec writes
// exactly the bytes json.NewEncoder(…).Encode writes, trailing newline
// included, over random responses and the float, id and cursor edges —
// and refuses NaN and ±Inf where encoding/json does.
func TestSearchResponseEncodeMatchesJSON(t *testing.T) {
	appended := 0
	check := func(resp searchResponse) {
		t.Helper()
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(resp)
		got, err := encodeSearch([]byte("prefix"), &resp)
		if wantErr != nil {
			if !errors.Is(err, lccs.ErrNonFinite) {
				t.Fatalf("encoding/json refused %+v (%v); the codec said %v", resp, wantErr, err)
			}
			return
		}
		if err != nil || string(got) != "prefix"+want.String() {
			t.Fatalf("response %+v:\ncodec         %q (%v)\nencoding/json %q", resp, got, err, want.String())
		}
		if resp.Trace == nil && resp.Explain == nil && resp.RequestID == 0 && resp.Neighbors != nil && plainString(resp.NextCursor) {
			appended++
		}
	}

	dists := []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.99e20, 1e21, 1.5e-300,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 0.1, 1.0 / 3, 123456789.125}
	ids := []int{0, 1, 42, math.MaxInt32, math.MaxInt, math.MinInt}
	cursors := []string{"", "AQD_____Bw", "a-b_c~.", "a<b", "a>b", "a&b", "é", "\xff", `a"b`, `a\b`, "a\x01b", "\x7f", "\u2028"}
	for i, cursor := range cursors {
		if want := i < 3 || cursor == "\x7f"; plainString(cursor) != want {
			t.Errorf("plainString(%q) = %v, want %v", cursor, !want, want)
		}
		for _, cached := range []bool{false, true} {
			var row []lccs.Neighbor
			for j, d := range dists {
				row = append(row, lccs.Neighbor{ID: ids[j%len(ids)], Dist: d})
			}
			check(searchResponse{Neighbors: row, Cached: cached, TookMicros: int64(i) * 997, NextCursor: cursor})
		}
	}
	check(searchResponse{Neighbors: []lccs.Neighbor{}, TookMicros: math.MaxInt64})
	check(searchResponse{}) // a nil row is encoding/json's null
	check(searchResponse{Neighbors: []lccs.Neighbor{{ID: 1}}, RequestID: 9, Trace: []obs.SpanNode{{Stage: "query", DurUS: 2}}})
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		resp := searchResponse{Neighbors: []lccs.Neighbor{{ID: 1, Dist: 0.5}, {ID: 2, Dist: d}}}
		if _, err := encodeSearch(nil, &resp); !errors.Is(err, lccs.ErrNonFinite) {
			t.Errorf("distance %v encoded (err %v), want a refusal wrapping ErrNonFinite", d, err)
		}
		check(resp)
	}

	g := rng.New(17)
	const alphabet = "AQDw_-0123456789abcxyz<>&\"\\é\x01"
	for n := 0; n < 5000; n++ {
		resp := searchResponse{Neighbors: make([]lccs.Neighbor, g.IntN(12)), Cached: g.IntN(2) == 1, TookMicros: int64(g.Uint64() >> g.IntN(64))}
		for i := range resp.Neighbors {
			d := g.NormFloat64() * math.Pow(10, float64(g.IntN(60)-30))
			if g.IntN(4) == 0 {
				d = math.Float64frombits(g.Uint64()) // any bit pattern, NaN and ±Inf included
			}
			resp.Neighbors[i] = lccs.Neighbor{ID: int(g.Uint64() >> 1 >> g.IntN(63)), Dist: d}
		}
		if g.IntN(3) == 0 {
			var cur strings.Builder
			for i := g.IntN(24); i > 0; i-- {
				cur.WriteByte(alphabet[g.IntN(len(alphabet))])
			}
			resp.NextCursor = cur.String()
		}
		check(resp)
	}
	if appended < 2000 {
		t.Fatalf("only %d responses took the appending encoder", appended)
	}
}

// reusableBody is a request body that can be rewound to new bytes, so
// the allocation gate counts the handler and not the test's requests.
type reusableBody struct{ bytes.Reader }

func (*reusableBody) Close() error { return nil }

// countingWriter is a ResponseWriter that keeps the status and the last
// body.
type countingWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *countingWriter) Header() http.Header  { return w.header }
func (w *countingWriter) WriteHeader(code int) { w.status = code }
func (w *countingWriter) Write(b []byte) (int, error) {
	w.body = append(w.body[:0], b...)
	return len(b), nil
}

// maxSearchHandlerAllocs is what a warmed, canonical, unfiltered,
// untraced /v1/search costs in allocations through the handler, the
// request itself excluded: two in the mux's path match, the
// MaxBytesReader, and three for the response headers (the Content-Type
// and Content-Length value slices and the length's digits). The body,
// the decoded query, the result row and the response bytes are pooled,
// and an uncontended admission builds no deadline context.
const maxSearchHandlerAllocs = 6

// TestSearchHandlerAllocs gates the handler's allocations per request
// (run without -race, as CI's "Alloc" step does) and checks the answers
// it gave meanwhile are the backend's.
func TestSearchHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation; run without -race")
	}
	data, queries := testWorkload(12, 2000, 16)
	ix, err := lccs.NewIndex(data, lccs.Config{Metric: lccs.Euclidean, M: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Backend: ix})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	bodies := make([][]byte, len(queries))
	for i, q := range queries {
		if bodies[i], err = json.Marshal(searchRequest{Query: q, K: 10}); err != nil {
			t.Fatal(err)
		}
	}
	w := &countingWriter{header: http.Header{}}
	body := new(reusableBody)
	req := httptest.NewRequest(http.MethodPost, "/v1/search", nil)
	i := 0
	serve := func() {
		body.Reset(bodies[i%len(bodies)])
		req.Body = body
		i++
		w.status = 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("HTTP %d: %s", w.status, w.body)
		}
	}
	for range 3 * len(queries) {
		serve()
	}
	allocs := testing.AllocsPerRun(200, serve)
	t.Logf("%.2f allocs per /v1/search", allocs)
	if allocs > maxSearchHandlerAllocs {
		t.Fatalf("/v1/search allocated %.2f times per request, want at most %d", allocs, maxSearchHandlerAllocs)
	}

	// The last answer is the backend's, in encoding/json's bytes.
	q := queries[(i-1)%len(queries)]
	want, err := ix.SearchQuery(q, lccs.Query{K: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got searchResponse
	if err := json.Unmarshal(w.body, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Neighbors, want) || w.header.Get("Content-Length") != strconv.Itoa(len(w.body)) {
		t.Fatalf("answer %s (Content-Length %s), want neighbors %+v", w.body, w.header.Get("Content-Length"), want)
	}
}

// TestNullCoordinateIsZero: a null query coordinate decodes as
// encoding/json decodes it into a fresh slice, as 0 — not as the
// coordinate the previous request left in the pooled query buffer.
func TestNullCoordinateIsZero(t *testing.T) {
	d, _ := hostileBackend(t)
	srv, err := New(Config{Backend: d})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	post := func(body string) searchResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body)))
		var resp searchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("body %s: HTTP %d: %s", body, rec.Code, rec.Body)
		}
		return resp
	}
	post(`{"query":[9,9,9,9,9,9,9,9],"k":3}`)
	got := post(`{"query":[1,null,1,1,1,1,1,1],"k":3,"budget":1000}`)
	want, err := d.SearchQuery([]float32{1, 0, 1, 1, 1, 1, 1, 1}, lccs.Query{K: 3, Budget: 1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Neighbors, want) {
		t.Fatalf("null coordinate answered %+v, want the answer for 0: %+v", got.Neighbors, want)
	}
}
