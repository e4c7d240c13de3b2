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
// next-link arrays as int32, each one contiguous block on disk — the byte
// stream is identical to what the earlier per-shift encoder produced (m
// consecutive length-n little-endian arrays), keeping old files loadable
// unchanged. Loading an encoded CSA skips the sort and the induced passes
// of the build, not the O(n·m) LCP pass. Encode writes straight to w
// through one small buffer; buffering is the caller's (the container's)
// job.
func (c *CSA) Encode(w io.Writer) error {
	out := &words{w: w}
	out.n = copy(out.buf[:], csaMagic[:])
	out.put(uint32(c.n))
	out.put(uint32(c.m))
	row := make([]int32, c.m)
	for id := 0; id < c.n; id++ {
		c.syms.decode(c, id, row)
		for _, v := range row {
			out.put(uint32(v))
		}
	}
	// Rank entries go to disk as bare ids: the LCP bits are derived
	// from the strings, so Decode rebuilds rather than trusts them.
	for _, entry := range c.sorted {
		out.put(entry & c.idMask)
	}
	for i := 0; i < c.m; i++ {
		for r, bit := 0, c.linkBit(i, 0); r < c.n; r, bit = r+1, bit+c.idBits {
			out.put(uint32(c.linkAt(bit)))
		}
	}
	return out.flush()
}

// words writes little-endian 32-bit words to w through one buffer. A
// write error is kept, and returned by flush.
type words struct {
	w   io.Writer
	buf [1 << 14]byte
	n   int
	err error
}

func (o *words) put(v uint32) {
	if o.n == len(o.buf) {
		o.flush()
	}
	binary.LittleEndian.PutUint32(o.buf[o.n:], v)
	o.n += 4
}

func (o *words) flush() error {
	if o.err == nil {
		_, o.err = o.w.Write(o.buf[:o.n])
	}
	o.n = 0
	return o.err
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
	// blocks. The int32 next links go into the symbol block's memory,
	// which the codes no longer need, and are packed from there once
	// checked, so a load keeps no spare capacity.
	data, err := readBlock[int32](r, nil, n*m)
	if err != nil {
		return nil, err
	}
	c.setSymbols(data)
	if c.sorted, err = readBlock(r, make([]uint32, 0, m*n), m*n); err != nil {
		return nil, err
	}
	links, err := readBlock(r, data[:0], m*n)
	if err != nil {
		return nil, err
	}
	c.setLayout(entryBits)
	c.next = make([]byte, m*c.rowBytes+linkSlack)
	if err := c.validate(links); err != nil {
		return nil, err
	}
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

// validate checks the structural invariants of a decoded CSA, whose rank
// entries hold bare ids, against links, its m next-link arrays as read:
// every rank array is a permutation of [0,n) and every next link points
// at the same string in the following shift's order. It packs each row of
// links once the row has checked out, never before — packing keeps a
// link's low idBits only, so a link out of range by a multiple of 2^idBits
// would pass for a valid one. That the orders are sorted is left to
// fillLCP. Rows are checked and packed in runs of shifts on all cores: a
// row's check only reads, and its packing writes its own bytes.
func (c *CSA) validate(links []int32) error {
	return c.inRuns(c.runPerWorker(), func(from, to int) error {
		seen := make([]bool, c.n)
		for i := from; i < to; i++ {
			clear(seen)
			order := c.sortedRow(i)
			for _, id := range order {
				if int(id) >= c.n || seen[id] {
					return fmt.Errorf("csa: sorted[%d] is not a permutation", i)
				}
				seen[id] = true
			}
			nextOrder := c.sortedRow((i + 1) % c.m)
			row := links[i*c.n : (i+1)*c.n]
			for rank, id := range order {
				link := row[rank]
				if link < 0 || int(link) >= c.n || nextOrder[link] != id {
					return fmt.Errorf("csa: next[%d][%d] broken", i, rank)
				}
			}
			c.packRow(i, row)
		}
		return nil
	}, nil)
}
