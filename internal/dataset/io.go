package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"lccs/internal/faultfs"
	"lccs/internal/pqueue"
	"lccs/internal/vec"
)

// magic headers versioning the two on-disk formats.
var (
	datasetMagic = [8]byte{'L', 'C', 'C', 'S', 'D', 'S', '1', '\n'}
	truthMagic   = [8]byte{'L', 'C', 'C', 'S', 'G', 'T', '1', '\n'}
)

// Save writes the dataset to path in the repository's little-endian binary
// format (header, then data vectors, then query vectors, all float32),
// fsynced before it returns.
func (d *Dataset) Save(path string) error { return faultfs.WriteFile(faultfs.OS{}, path, d.encode) }

// EncodeBlocks writes a dataset without queries whose data vectors are the
// rows of blocks, in order: byte for byte what Save writes for NewFlat
// over their concatenation, without concatenating them. All blocks must
// share one dimensionality.
func EncodeBlocks(w io.Writer, name, kind string, blocks []*vec.Store) error {
	dim, n := 0, 0
	for _, b := range blocks {
		if b.Len() > 0 {
			dim = b.Dim()
		}
		n += b.Len()
	}
	if err := encodeHeader(w, name, kind, dim, n, 0); err != nil {
		return err
	}
	for _, b := range blocks {
		if err := writeFloats(w, b.Block()); err != nil {
			return err
		}
	}
	return nil
}

// encodeHeader writes the magic, the names and the dimensionality, data
// and query counts every dataset file starts with.
func encodeHeader(w io.Writer, name, kind string, dim, data, queries int) error {
	if _, err := w.Write(datasetMagic[:]); err != nil {
		return err
	}
	if err := writeString(w, name); err != nil {
		return err
	}
	if err := writeString(w, kind); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, []int32{int32(dim), int32(data), int32(queries)})
}

// writeFloats writes v little-endian, as binary.Write would, through a
// bounded buffer instead of one staging copy of all of v.
func writeFloats(w io.Writer, v []float32) error {
	var buf [16 << 10]byte
	for len(v) > 0 {
		n := min(len(v), len(buf)/4)
		for i, x := range v[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(x))
		}
		if _, err := w.Write(buf[:4*n]); err != nil {
			return err
		}
		v = v[n:]
	}
	return nil
}

func (d *Dataset) encode(w io.Writer) error {
	if err := encodeHeader(w, d.Name, d.Kind, d.Dim, len(d.Data), len(d.Queries)); err != nil {
		return err
	}
	if d.flat != nil && d.flat.Len() == len(d.Data) {
		// Flat-backed data writes as one block — byte-identical to the
		// row loop.
		if err := writeFloats(w, d.flat.Block()); err != nil {
			return err
		}
	} else {
		for _, v := range d.Data {
			if err := writeFloats(w, v); err != nil {
				return err
			}
		}
	}
	for _, v := range d.Queries {
		if err := writeFloats(w, v); err != nil {
			return err
		}
	}
	return nil
}

// Load reads a dataset written by Save.
func Load(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(bufio.NewReaderSize(f, 1<<20))
}

// Decode reads a dataset in the format Save writes from r.
func Decode(r io.Reader) (*Dataset, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, err
	}
	if magic != datasetMagic {
		return nil, fmt.Errorf("dataset: bad magic %q", magic)
	}
	name, err := readString(r)
	if err != nil {
		return nil, err
	}
	kind, err := readString(r)
	if err != nil {
		return nil, err
	}
	var hdr [3]int32
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, err
	}
	dim, n, nq := int(hdr[0]), int(hdr[1]), int(hdr[2])
	if dim <= 0 || n < 0 || nq < 0 {
		return nil, fmt.Errorf("dataset: corrupt header dim=%d n=%d nq=%d", dim, n, nq)
	}
	readVecs := func(count int) ([][]float32, error) {
		// Grow incrementally: a corrupt header claiming a huge count
		// fails on the stream's real end instead of committing a giant
		// allocation up front.
		out := make([][]float32, 0, min(count, 1024))
		for i := 0; i < count; i++ {
			v := make([]float32, dim)
			if err := binary.Read(r, binary.LittleEndian, v); err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
	// Data points land in one flat block (read in bounded chunks, so a
	// corrupt count still fails at the stream's real end rather than
	// committing a giant up-front allocation); Data rows are views into
	// it, and FlatData hands the block to index loaders copy-free.
	const chunkRows = 8192
	flatBlock := make([]float32, 0, min(n, chunkRows)*dim)
	for remaining := n; remaining > 0; {
		c := min(remaining, chunkRows)
		start := len(flatBlock)
		flatBlock = append(flatBlock, make([]float32, c*dim)...)
		if err := binary.Read(r, binary.LittleEndian, flatBlock[start:]); err != nil {
			return nil, err
		}
		remaining -= c
	}
	flat, err := vec.FromBlock(dim, flatBlock)
	if err != nil {
		return nil, err
	}
	d := &Dataset{Name: name, Kind: kind, Dim: dim, Data: flat.Rows(), flat: flat}
	if d.Queries, err = readVecs(nq); err != nil {
		return nil, err
	}
	return d, nil
}

// GroundTruth holds the exact k-NN of every query.
type GroundTruth struct {
	K         int
	Neighbors [][]pqueue.Neighbor // one slice of K per query
}

// Save writes ground truth to path, fsynced before it returns.
func (gt *GroundTruth) Save(path string) error {
	return faultfs.WriteFile(faultfs.OS{}, path, gt.encode)
}

func (gt *GroundTruth) encode(w io.Writer) error {
	if _, err := w.Write(truthMagic[:]); err != nil {
		return err
	}
	hdr := []int32{int32(gt.K), int32(len(gt.Neighbors))}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return err
	}
	for _, nn := range gt.Neighbors {
		if len(nn) != gt.K {
			return fmt.Errorf("dataset: ground truth row has %d entries, want %d", len(nn), gt.K)
		}
		for _, e := range nn {
			if err := binary.Write(w, binary.LittleEndian, int32(e.ID)); err != nil {
				return err
			}
			if err := binary.Write(w, binary.LittleEndian, e.Dist); err != nil {
				return err
			}
		}
	}
	return nil
}

// LoadTruth reads ground truth written by GroundTruth.Save.
func LoadTruth(path string) (*GroundTruth, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, err
	}
	if magic != truthMagic {
		return nil, fmt.Errorf("dataset: bad truth magic %q", magic)
	}
	var hdr [2]int32
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, err
	}
	k, nq := int(hdr[0]), int(hdr[1])
	if k <= 0 || nq < 0 {
		return nil, fmt.Errorf("dataset: corrupt truth header k=%d nq=%d", k, nq)
	}
	gt := &GroundTruth{K: k, Neighbors: make([][]pqueue.Neighbor, nq)}
	for i := range gt.Neighbors {
		row := make([]pqueue.Neighbor, k)
		for j := range row {
			var id int32
			if err := binary.Read(r, binary.LittleEndian, &id); err != nil {
				return nil, err
			}
			var dist float64
			if err := binary.Read(r, binary.LittleEndian, &dist); err != nil {
				return nil, err
			}
			row[j] = pqueue.Neighbor{ID: int(id), Dist: dist}
		}
		gt.Neighbors[i] = row
	}
	return gt, nil
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, int32(len(s))); err != nil {
		return err
	}
	_, err := w.Write([]byte(s))
	return err
}

func readString(r io.Reader) (string, error) {
	var n int32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n < 0 || n > 1<<20 {
		return "", fmt.Errorf("dataset: corrupt string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
