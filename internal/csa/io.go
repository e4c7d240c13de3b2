package csa

import (
	"encoding/binary"
	"fmt"
	"io"
)

// csaMagic versions the on-disk CSA format.
var csaMagic = [8]byte{'L', 'C', 'C', 'S', 'C', 'S', 'A', '1'}

// Encode writes the CSA to w: the symbol block (the n·m symbols as
// int32, decoded from the codes), the m sorted orders, and the m
// next-link arrays, each one contiguous block on disk — the byte stream
// is identical to what the earlier per-shift encoder produced (m
// consecutive length-n little-endian arrays), keeping old files loadable
// unchanged. Loading an encoded CSA skips the sort and the induced passes
// of the build, not the O(n·m) LCP pass. Encode writes straight to w;
// buffering is the caller's (the container's) job.
func (c *CSA) Encode(w io.Writer) error {
	if _, err := w.Write(csaMagic[:]); err != nil {
		return err
	}
	hdr := []int32{int32(c.n), int32(c.m)}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return err
	}
	var buf [1 << 14]byte
	out, row := buf[:0], make([]int32, c.m)
	for id := 0; id < c.n; id++ {
		c.syms.decode(c, id, row)
		for _, v := range row {
			if len(out) == len(buf) {
				if _, err := w.Write(out); err != nil {
					return err
				}
				out = buf[:0]
			}
			out = binary.LittleEndian.AppendUint32(out, uint32(v))
		}
	}
	if _, err := w.Write(out); err != nil {
		return err
	}
	// Rank entries go to disk as bare ids: the LCP bits are derived
	// from the strings, so Decode rebuilds rather than trusts them.
	for off := 0; off < len(c.sorted); off += len(buf) / 4 {
		chunk := c.sorted[off:min(off+len(buf)/4, len(c.sorted))]
		for j, entry := range chunk {
			binary.LittleEndian.PutUint32(buf[4*j:], entry&c.idMask)
		}
		if _, err := w.Write(buf[:4*len(chunk)]); err != nil {
			return err
		}
	}
	return binary.Write(w, binary.LittleEndian, c.next)
}

// Decode reads a CSA written by Encode, codes its symbols (the int32
// block is not kept), validates its invariants (each sorted order a
// permutation in circular order, next links consistent) and rebuilds the
// LCP bits of the rank entries from the strings. It reads exactly the
// bytes Encode wrote — never past them — so whatever follows the CSA in r
// is still there for the caller.
func Decode(r io.Reader) (*CSA, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, err
	}
	if magic != csaMagic {
		return nil, fmt.Errorf("csa: bad magic %q", magic)
	}
	var hdr [2]int32
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, err
	}
	n, m := int(hdr[0]), int(hdr[1])
	if n <= 0 || m <= 0 || int64(n)*int64(m) > 1<<34 {
		return nil, fmt.Errorf("csa: corrupt header n=%d m=%d", n, m)
	}
	c := &CSA{n: n, m: m}
	// The symbol block grows only as data actually arrives, so a corrupt
	// header claiming a huge n·m fails with a read error after at most
	// one chunk instead of committing a multi-gigabyte allocation up
	// front. Once it is in, the stream has shown that it holds n·m
	// values, and the m sorted orders and m next-link arrays, flat blocks
	// of the same shape (legacy files wrote the same bytes as m
	// consecutive arrays — the stream is identical), are read into whole
	// blocks. The next links go into the symbol block's memory, which the
	// codes no longer need, so a load leaves little for the collector and
	// keeps no spare capacity.
	data, err := readBlock[int32](r, nil, n*m)
	if err != nil {
		return nil, err
	}
	c.setSymbols(data)
	if c.sorted, err = readBlock(r, make([]uint32, 0, m*n), m*n); err != nil {
		return nil, err
	}
	if c.next, err = readBlock(r, data[:0], m*n); err != nil {
		return nil, err
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	c.setLayout(entryBits)
	if err := c.fillLCP(); err != nil {
		return nil, err
	}
	return c, nil
}

// readBlock reads count little-endian 32-bit values onto dst, which is
// empty. Past dst's capacity the block at most doubles what has arrived,
// so the allocation never outruns twice the bytes the stream really
// holds; the bytes pass through one small buffer.
func readBlock[T int32 | uint32](r io.Reader, dst []T, count int) ([]T, error) {
	const chunk = 1 << 20
	var buf [1 << 14]byte
	out := dst
	for len(out) < count {
		if len(out) == cap(out) {
			grown := make([]T, len(out), len(out)+min(count-len(out), max(len(out), chunk)))
			copy(grown, out)
			out = grown
		}
		step := min(count-len(out), cap(out)-len(out), len(buf)/4)
		if _, err := io.ReadFull(r, buf[:4*step]); err != nil {
			return nil, err
		}
		for i := 0; i < step; i++ {
			out = append(out, T(binary.LittleEndian.Uint32(buf[4*i:])))
		}
	}
	return out, nil
}

// validate checks the structural invariants of a decoded CSA: every rank
// array is a permutation of [0,n) and every next link points at the same
// string in the following shift's order. That the orders are sorted is
// left to fillLCP.
func (c *CSA) validate() error {
	seen := make([]bool, c.n)
	for i := 0; i < c.m; i++ {
		for j := range seen {
			seen[j] = false
		}
		order := c.sortedRow(i)
		for _, id := range order {
			if int(id) >= c.n || seen[id] {
				return fmt.Errorf("csa: sorted[%d] is not a permutation", i)
			}
			seen[id] = true
		}
		nextOrder := c.sortedRow((i + 1) % c.m)
		links := c.nextRow(i)
		for rank, id := range order {
			link := links[rank]
			if link < 0 || int(link) >= c.n || nextOrder[link] != id {
				return fmt.Errorf("csa: next[%d][%d] broken", i, rank)
			}
		}
	}
	return nil
}
