package lccs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// unsortedSeed is the committed fuzz seed holding golden_pkg2 with two
// ranks of its first CSA swapped; -update-golden rewrites it.
const unsortedSeed = "testdata/fuzz/FuzzLoadSharded/unsorted-csa"

// unsortCSA returns the container with ranks r and r+1 of shift 0 of its
// first CSA section exchanged — the first pair of neighbours whose
// strings differ — and the next links on both sides repaired, so that
// every permutation and link check still passes and only the circular
// order is broken.
func unsortCSA(t *testing.T, container []byte) []byte {
	t.Helper()
	blob := append([]byte(nil), container...)
	at := bytes.Index(blob, []byte("LCCSCSA1"))
	if at < 0 {
		t.Fatal("no CSA section in container")
	}
	le := binary.LittleEndian
	n, m := int(le.Uint32(blob[at+8:])), int(le.Uint32(blob[at+12:]))
	word := func(block, j int) []byte { return blob[at+16+4*(block*n*m+j):][:4] } // block 0 data, 1 sorted, 2 next
	swap := func(a, b []byte) {
		var tmp [4]byte
		copy(tmp[:], a)
		copy(a, b)
		copy(b, tmp[:])
	}
	str := func(rank int) []byte {
		id := int(le.Uint32(word(1, rank)))
		return blob[at+16+4*id*m:][:4*m]
	}
	r := 0
	for bytes.Equal(str(r), str(r+1)) {
		r++
	}
	swap(word(1, r), word(1, r+1))
	swap(word(2, r), word(2, r+1))
	var into [][]byte // the links of shift m−1 that point at the two ranks
	for j := (m - 1) * n; j < m*n; j++ {
		if link := int(le.Uint32(word(2, j))); link == r || link == r+1 {
			into = append(into, word(2, j))
		}
	}
	swap(into[0], into[1])
	return blob
}

// TestLoadRejectsUnsortedCSA: a container whose CSA passes every
// permutation and link check but has one order out of circular order
// must not load — its rank entries would report wrong lengths.
func TestLoadRejectsUnsortedCSA(t *testing.T) {
	data, _ := goldenSetup()
	for _, name := range []string{"golden_pkg1.lccs", "golden_pkg2.lccs", "golden_pkg5.lccs"} {
		golden, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, unsortCSA(t, golden), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path, data); err == nil || !strings.Contains(err.Error(), "circular order") {
			t.Errorf("Load(unsorted %s) = %v, want a circular-order error", name, err)
		}
	}

	golden, err := os.ReadFile("testdata/golden_pkg2.lccs")
	if err != nil {
		t.Fatal(err)
	}
	seed := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", unsortCSA(t, golden)))
	if *updateGolden {
		if err := os.WriteFile(unsortedSeed, seed, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if committed, err := os.ReadFile(unsortedSeed); err != nil || !bytes.Equal(committed, seed) {
		t.Errorf("%s is not golden_pkg2 with two ranks swapped (err %v); rerun with -update-golden", unsortedSeed, err)
	}
}
