package core

import (
	"encoding/binary"
	"fmt"
	"io"

	"lccs/internal/csa"
	"lccs/internal/lshfamily"
	"lccs/internal/rng"
	"lccs/internal/vec"
)

// indexMagic versions the on-disk index format.
var indexMagic = [8]byte{'L', 'C', 'C', 'S', 'I', 'D', 'X', '1'}

// Encode serializes the index: parameters plus the CSA. The dataset
// itself is not stored — hash functions regenerate deterministically from
// (family, M, Seed), and the caller supplies the same data at DecodeStore
// time. Loading skips the sort and the induced passes of the build; it
// still pays the O(n·m) pass that validates the orders and rebuilds the
// rank entries' LCP bits.
func (ix *Index) Encode(w io.Writer) error {
	if _, err := w.Write(indexMagic[:]); err != nil {
		return err
	}
	name := ix.family.Name()
	if err := binary.Write(w, binary.LittleEndian, int32(len(name))); err != nil {
		return err
	}
	if _, err := w.Write([]byte(name)); err != nil {
		return err
	}
	hdr := []int64{int64(ix.family.Dim()), int64(ix.m), int64(ix.store.Len())}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, ix.seed); err != nil {
		return err
	}
	return ix.csa.Encode(w)
}

// DecodeStore reconstructs an index written by Encode. store must hold
// the exact dataset the index was built over (same order); family must
// match the family used at build time — both are verified against the
// stored metadata, and the hash strings of a data sample are re-verified
// against the stored CSA.
func DecodeStore(r io.Reader, store *vec.Store, family lshfamily.Family) (*Index, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, err
	}
	if magic != indexMagic {
		return nil, fmt.Errorf("core: bad index magic %q", magic)
	}
	var nameLen int32
	if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
		return nil, err
	}
	if nameLen < 0 || nameLen > 256 {
		return nil, fmt.Errorf("core: corrupt family name length %d", nameLen)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(r, nameBuf); err != nil {
		return nil, err
	}
	var hdr [3]int64
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, err
	}
	var seed uint64
	if err := binary.Read(r, binary.LittleEndian, &seed); err != nil {
		return nil, err
	}
	if string(nameBuf) != family.Name() {
		return nil, fmt.Errorf("core: index built with family %q, got %q", nameBuf, family.Name())
	}
	if int(hdr[0]) != family.Dim() {
		return nil, fmt.Errorf("core: index dimension %d, family has %d", hdr[0], family.Dim())
	}
	n := store.Len()
	if int(hdr[2]) != n {
		return nil, fmt.Errorf("core: index covers %d objects, data has %d", hdr[2], n)
	}
	m := int(hdr[1])
	cs, err := csa.Decode(r)
	if err != nil {
		return nil, err
	}
	if cs.N() != n || cs.M() != m {
		return nil, fmt.Errorf("core: CSA shape %dx%d does not match header %dx%d", cs.N(), cs.M(), n, m)
	}

	g := rng.New(seed)
	funcs := lshfamily.NewFuncs(family, m, g)
	ix := &Index{
		family: family,
		funcs:  funcs,
		metric: family.Metric(),
		store:  store,
		csa:    cs,
		m:      m,
		seed:   seed,
	}
	ix.initPool()

	// Spot-check: rehash a few objects and compare against the stored
	// strings; a mismatch means the caller supplied different data or a
	// different family configuration.
	step := n/8 + 1
	for id := 0; id < n; id += step {
		want := cs.String(id)
		got := lshfamily.HashString(funcs, store.Row(id), nil)
		for j := range want {
			if want[j] != got[j] {
				return nil, fmt.Errorf("core: stored hash string of object %d does not match supplied data/family", id)
			}
		}
	}
	return ix, nil
}
