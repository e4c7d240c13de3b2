package csa

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"testing"
	"testing/iotest"

	"lccs/internal/hstring"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(51, 52))
	strs := randStrings(r, 120, 9, 5)
	c := New(strs)
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != c.N() || got.M() != c.M() {
		t.Fatalf("shape: %dx%d", got.N(), got.M())
	}
	// Same query results.
	s1, s2 := c.NewSearcher(), got.NewSearcher()
	for trial := 0; trial < 20; trial++ {
		q := randStrings(r, 1, 9, 5)[0]
		a := s1.Search(q, 7)
		b := s2.Search(q, 7)
		if len(a) != len(b) {
			t.Fatal("result count differs")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("result %d differs: %+v vs %+v", i, a[i], b[i])
			}
		}
	}
}

// TestDecodeConsumesExactly: Decode reads its own bytes and nothing
// after them, whatever the reader — two CSAs back to back plus a tail
// must come out as two CSAs and that tail.
func TestDecodeConsumesExactly(t *testing.T) {
	r := rand.New(rand.NewPCG(57, 58))
	first, second := New(randStrings(r, 40, 6, 4)), New(randStrings(r, 25, 3, 2))
	var buf bytes.Buffer
	for _, c := range []*CSA{first, second} {
		if err := c.Encode(&buf); err != nil {
			t.Fatal(err)
		}
	}
	buf.WriteString("tail")
	readers := map[string]io.Reader{
		"bytes.Reader":  bytes.NewReader(buf.Bytes()),
		"OneByteReader": iotest.OneByteReader(bytes.NewReader(buf.Bytes())),
	}
	for name, rd := range readers {
		for i, want := range []*CSA{first, second} {
			got, err := Decode(rd)
			if err != nil {
				t.Fatalf("%s: CSA %d: %v", name, i, err)
			}
			if got.N() != want.N() || got.M() != want.M() {
				t.Fatalf("%s: CSA %d decoded as %dx%d, want %dx%d", name, i, got.N(), got.M(), want.N(), want.M())
			}
		}
		if rest, err := io.ReadAll(rd); err != nil || string(rest) != "tail" {
			t.Fatalf("%s: %q, %v left after two CSAs, want \"tail\"", name, rest, err)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("garbage!"))); err == nil {
		t.Fatal("bad magic should fail")
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input should fail")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	r := rand.New(rand.NewPCG(53, 54))
	c := New(randStrings(r, 40, 6, 4))
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for _, cut := range []int{9, len(blob) / 3, len(blob) - 5} {
		if _, err := Decode(bytes.NewReader(blob[:cut])); err == nil {
			t.Fatalf("truncation at %d should fail", cut)
		}
	}
}

func TestDecodeRejectsCorruptedLinks(t *testing.T) {
	r := rand.New(rand.NewPCG(55, 56))
	c := New(randStrings(r, 30, 5, 4))
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	// Flip a byte inside the rank/link region (beyond header + symbol
	// block); validation must catch the inconsistency.
	off := 8 + 8 + 30*5*4 + 10
	corrupted := append([]byte(nil), blob...)
	corrupted[off] ^= 0xFF
	if _, err := Decode(bytes.NewReader(corrupted)); err == nil {
		t.Fatal("corrupted permutation should fail validation")
	}
}

// maskedLink returns c's file with link r of shift i raised by
// 2^idBits: out of range, yet with the valid rank's low idBits.
func maskedLink(t testing.TB, c *CSA, i, r int) []byte {
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	at := 16 + 8*c.n*c.m + 4*(i*c.n+r)
	binary.LittleEndian.PutUint32(blob[at:], binary.LittleEndian.Uint32(blob[at:])+1<<c.idBits)
	return blob
}

// TestDecodeRejectsMaskedLink: a link that is a valid rank plus 2^idBits
// must be refused. Packed at idBits it would read back as the valid rank,
// so this holds only because Decode checks links before it packs them.
func TestDecodeRejectsMaskedLink(t *testing.T) {
	r := rand.New(rand.NewPCG(63, 64))
	for _, n := range []int{2, 30, 64} {
		c := New(randStrings(r, n, 5, 4))
		for _, at := range [][2]int{{0, 0}, {2, n / 2}, {c.m - 1, n - 1}} {
			if _, err := Decode(bytes.NewReader(maskedLink(t, c, at[0], at[1]))); err == nil {
				t.Fatalf("n=%d: next[%d][%d] + 2^%d accepted", n, at[0], at[1], c.idBits)
			}
		}
	}
}

// TestBytesIsRetainedHeap: Bytes() is the memory a CSA keeps — what the
// heap grows by across NewFromFlat, and across Decode, once the collector
// has run twice — within 2 %, at BenchmarkCSABegin's first shape.
func TestBytesIsRetainedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n, m = 100000, 32
	data, _ := lshStrings(n, m, 0)
	retained := func(build func() *CSA) (*CSA, int64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		c := build()
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		return c, int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	check := func(name string, c *CSA, grew int64) {
		d, report := float64(grew-c.Bytes())/float64(c.Bytes()), t.Logf
		if d < -0.02 || d > 0.02 {
			report = t.Errorf
		}
		report("%s: heap grew %d bytes, Bytes() = %d (%+.2f %%)", name, grew, c.Bytes(), 100*d)
	}
	built, grew := retained(func() *CSA { return NewFromFlat(data, n, m) })
	check("NewFromFlat", built, grew)
	var file bytes.Buffer
	if err := built.Encode(&file); err != nil {
		t.Fatal(err)
	}
	decoded, grew := retained(func() *CSA {
		c, err := Decode(&file)
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
	check("Decode", decoded, grew)
	// What the builds read must outlive the second measurement, or its
	// release would count against them.
	runtime.KeepAlive(data)
	runtime.KeepAlive(&file)
	runtime.KeepAlive(built)
}

// swapRanks exchanges ranks r and r+1 of shift i's order and repairs the
// next links on both sides, so that only the circular order is broken.
func swapRanks(c *CSA, i, r int) {
	row, links := c.sortedRow(i), linkRow(c, i)
	row[r], row[r+1] = row[r+1]&c.idMask, row[r]&c.idMask
	links[r], links[r+1] = links[r+1], links[r]
	c.packRow(i, links)
	before := (i + c.m - 1) % c.m
	into := linkRow(c, before)
	for j, link := range into {
		switch int(link) {
		case r:
			into[j] = int32(r + 1)
		case r + 1:
			into[j] = int32(r)
		}
	}
	c.packRow(before, into)
}

// TestDecodeRejectsUnsortedOrder: permutations and links that check out
// are not enough — a row out of circular order would make every length
// read off the rank entries wrong.
func TestDecodeRejectsUnsortedOrder(t *testing.T) {
	r := rand.New(rand.NewPCG(57, 58))
	strs := randStrings(r, 60, 6, 3)
	for trial := 0; trial < 40; trial++ {
		c := New(strs)
		i, rank := r.IntN(c.m), r.IntN(c.n-1)
		ids := rowIDs(c, i)
		equal := eqInt32(strs[ids[rank]], strs[ids[rank+1]])
		swapRanks(c, i, rank)
		for j := range c.sorted {
			c.sorted[j] &= c.idMask // validate reads bare ids, as Decode hands it
		}
		if err := c.validate(linkBlock(c)); err != nil {
			t.Fatalf("swap left the structure inconsistent: %v", err)
		}
		var buf bytes.Buffer
		if err := c.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(&buf)
		if equal {
			// Equal strings may stand in either id order.
			label := fmt.Sprintf("shift %d rank %d: equal strings swapped", i, rank)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkStoredLCPs(t, got, label)
			checkDrain(t, got, strs[ids[rank]], label)
		} else if !errors.Is(err, errUnsorted) {
			t.Fatalf("shift %d rank %d: Decode = %v, want %v", i, rank, err, errUnsorted)
		}
	}
}

// flipEqualNeighbours swaps, in a random half of the shifts, a random half
// of the neighbouring ranks that hold equal strings: a legal file whose
// equal strings change their relative order from shift to shift. It
// reports how many pairs it swapped.
func flipEqualNeighbours(r *rand.Rand, c *CSA) int {
	raw, swapped := rawStrings(c), 0
	for i := 0; i < c.m; i++ {
		if r.IntN(2) == 0 {
			continue
		}
		for rank := 0; rank+1 < c.n; rank++ {
			row := c.sortedRow(i)
			if r.IntN(2) == 0 && eqInt32(raw[row[rank]&c.idMask], raw[row[rank+1]&c.idMask]) {
				swapRanks(c, i, rank)
				swapped++
			}
		}
	}
	for j := range c.sorted {
		c.sorted[j] &= c.idMask
	}
	return swapped
}

// checkStoredLCPs compares the LCP bits of every rank entry with the LCP
// of the two strings recomputed from their symbols.
func checkStoredLCPs(t *testing.T, c *CSA, label string) {
	t.Helper()
	raw := rawStrings(c)
	for i := 0; i < c.m; i++ {
		ids := rowIDs(c, i)
		for rank, w := range c.sortedRow(i) {
			want := int32(0)
			if rank+1 < c.n {
				want = min(c.lcpMax, lcpAt(raw[ids[rank]], raw[ids[rank+1]], i))
			}
			if got := int32(w >> c.idBits); got != want {
				t.Fatalf("%s: lcp[%d][%d] = %d, want %d", label, i, rank, got, want)
			}
		}
	}
}

// checkDrain runs q to exhaustion: every id once, lengths non-increasing
// and each the true LCCS.
func checkDrain(t *testing.T, c *CSA, q []int32, label string) {
	t.Helper()
	s := c.NewSearcher()
	s.Begin(q)
	seen := make([]bool, c.n)
	prev := c.m
	for count := 0; ; count++ {
		res, ok := s.Next()
		if !ok {
			if count != c.n {
				t.Fatalf("%s: drained %d of %d ids", label, count, c.n)
			}
			return
		}
		if want := hstring.LCCS(c.String(res.ID), q); seen[res.ID] || res.Length > prev || res.Length != want {
			t.Fatalf("%s: emission %d: %+v (previous length %d, seen %v, LCCS %d)",
				label, count, res, prev, seen[res.ID], want)
		}
		seen[res.ID], prev = true, res.Length
	}
}

// TestDecodeEqualStringsFlipped: equal strings may stand in either id
// order, and in a different one at every shift. The LCP carried along a
// next link holds only while the successor still follows; a file that
// flips equal strings between shifts must still decode to exact LCPs, on
// one core (one run of shifts, every carry live) as on several.
func TestDecodeEqualStringsFlipped(t *testing.T) {
	r := rand.New(rand.NewPCG(61, 62))
	inputs := [][][]int32{
		{{1, 1, 1, 1}, {1, 1, 1, 1}, {1, 1, 2, 1}},
		{{0, 0, 0, 0, 1, 0}, {0, 0, 0, 0, 1, 0}, {0, 1, 1, 0, 1, 0}, {0, 0, 1, 0, 1, 0}, {0, 0, 0, 0, 0, 0}},
		{{7, 7, 7}, {7, 7, 7}, {7, 7, 7}, {7, 7, 7}},
	}
	for trial := 0; trial < 30; trial++ {
		n, m := 2+r.IntN(80), 1+r.IntN(8)
		strs := randStrings(r, 1+r.IntN(6), m, 2)
		for len(strs) < n {
			strs = append(strs, strs[r.IntN(len(strs))])
		}
		inputs = append(inputs, strs)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for idx, strs := range inputs {
		for attempt := 0; attempt < 4; attempt++ {
			c := New(strs)
			if attempt == 0 {
				// The smallest case: one pair, flipped at one shift only.
				i, ids := 1%c.m, rowIDs(c, 1%c.m)
				rank := 0
				for rank+1 < c.n && !eqInt32(strs[ids[rank]], strs[ids[rank+1]]) {
					rank++
				}
				if rank+1 == c.n {
					continue
				}
				swapRanks(c, i, rank)
				for j := range c.sorted {
					c.sorted[j] &= c.idMask
				}
			} else if flipEqualNeighbours(r, c) == 0 {
				continue
			}
			if err := c.validate(linkBlock(c)); err != nil {
				t.Fatalf("input %d: flips left the structure inconsistent: %v", idx, err)
			}
			var buf bytes.Buffer
			if err := c.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{1, 4} {
				label := fmt.Sprintf("input %d attempt %d GOMAXPROCS=%d", idx, attempt, procs)
				runtime.GOMAXPROCS(procs)
				got, err := Decode(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkStoredLCPs(t, got, label)
				for _, q := range [][]int32{strs[0], strs[len(strs)-1], randStrings(r, 1, c.m, 3)[0]} {
					checkDrain(t, got, q, label)
				}
				// The same file under the saturation rule.
				label += " narrow field"
				got.setLayout(1 + r.IntN(2))
				for j := range got.sorted {
					got.sorted[j] &= got.idMask
				}
				if err := got.fillLCP(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkStoredLCPs(t, got, label)
				checkDrain(t, got, strs[0], label)
			}
		}
	}
}

// FuzzCSADecode feeds arbitrary bytes to Decode. It must never panic or
// allocate beyond the bytes it was given, whatever it accepts must
// re-encode to exactly the bytes it consumed, and behave as an index:
// draining a search yields every id once, in non-increasing length order,
// each length the true LCCS.
func FuzzCSADecode(f *testing.F) {
	r := rand.New(rand.NewPCG(59, 60))
	for _, shape := range [][3]int{{1, 1, 2}, {5, 3, 2}, {40, 6, 3}, {9, 1, 4}} {
		c := New(randStrings(r, shape[0], shape[1], int32(shape[2])))
		var buf bytes.Buffer
		if err := c.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
		if c.n > 1 {
			swapRanks(c, c.m-1, c.n/2)
			buf.Reset()
			if err := c.Encode(&buf); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	// Legal files whose equal strings change order from shift to shift.
	for _, shape := range [][2]int{{5, 4}, {12, 6}, {40, 5}} {
		strs := randStrings(r, 3, shape[1], 2)
		for len(strs) < shape[0] {
			strs = append(strs, strs[r.IntN(3)])
		}
		c := New(strs)
		flipEqualNeighbours(r, c)
		var buf bytes.Buffer
		if err := c.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// A link out of range by 2^idBits, which packing would mask.
	f.Add(maskedLink(f, New(randStrings(r, 9, 3, 3)), 1, 4))
	f.Add([]byte("LCCSCSA1"))
	f.Fuzz(func(t *testing.T, blob []byte) {
		rd := bytes.NewReader(blob)
		c, err := Decode(rd)
		if err != nil {
			return
		}
		if int64(c.n)*int64(c.m)*12 > int64(len(blob)) {
			t.Fatalf("accepted %dx%d from %d bytes", c.n, c.m, len(blob))
		}
		var again bytes.Buffer
		if err := c.Encode(&again); err != nil {
			t.Fatal(err)
		}
		if consumed := blob[:len(blob)-rd.Len()]; !bytes.Equal(again.Bytes(), consumed) {
			t.Fatalf("%d bytes decoded re-encode to %d other bytes", len(consumed), again.Len())
		}
		q := c.String(0)
		if len(blob) > 0 {
			q[int(blob[len(blob)-1])%c.m]++
		}
		checkStoredLCPs(t, c, "accepted")
		checkDrain(t, c, q, "accepted")
	})
}
