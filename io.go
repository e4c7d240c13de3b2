package lccs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"

	"lccs/internal/core"
	"lccs/internal/idmap"
	"lccs/internal/lshfamily"
	"lccs/internal/vec"
)

// pkgMagic versions the facade's on-disk index format: a single-Index
// file (format 1).
var pkgMagic = [8]byte{'L', 'C', 'C', 'S', 'P', 'K', 'G', '1'}

// pkgMagic2 is the sharded container (format 2): the same configuration
// header as format 1 followed by a shard table and one core index blob per
// shard. Format-1 files remain loadable by both Load and LoadSharded.
var pkgMagic2 = [8]byte{'L', 'C', 'C', 'S', 'P', 'K', 'G', '2'}

// pkgMagic3 is the lifecycle container (format 3): the format-2 layout
// followed by a deletion-lifecycle section — the stable-id map and the
// tombstone set of a dynamic snapshot — so deleted vectors stay deleted
// across a save/load cycle. Save emits format 3 only when lifecycle
// state exists; indexes without it keep writing byte-identical format-2
// (or format-1) files, and both legacy formats keep loading.
var pkgMagic3 = [8]byte{'L', 'C', 'C', 'S', 'P', 'K', 'G', '3'}

// pkgMagic4 is the quantized container (format 4), emitted only when the
// index carries an SQ8 quantized store (Config.Quantize). After the
// magic, a container-kind byte distinguishes a single Index from a
// sharded body; the sharded body is the format-2 layout plus an explicit
// lifecycle-presence flag (formats 2/3 encode that in the magic), and
// both kinds end with a quantization section: the quantizer name, the
// configured re-rank depth, and each shard's codebook (per-dimension
// min/scale), dequantized row norms, and packed int8 codes. Indexes
// without quantization keep writing byte-identical format-1/2/3 files,
// and all three legacy formats keep loading.
var pkgMagic4 = [8]byte{'L', 'C', 'C', 'S', 'P', 'K', 'G', '4'}

// pkgMagic5 is the metadata container (format 5), emitted only when the
// index carries vector attributes. After the magic come a container-kind
// byte and a flags byte selecting the optional sections; the body is the
// usual single or sharded layout, followed by the lifecycle tail and the
// quantization section when flagged, and always ending with the
// attribute section (the per-slot canonical attrs rows). Indexes without
// metadata keep writing byte-identical format-1..4 files, and all four
// legacy formats keep loading.
var pkgMagic5 = [8]byte{'L', 'C', 'C', 'S', 'P', 'K', 'G', '5'}

// Container-kind byte of a format-4/5 file.
const (
	containerSingle  byte = 1
	containerSharded byte = 2
)

// Flags byte of a format-5 file.
const (
	pkg5FlagLifecycle byte = 1 << 0
	pkg5FlagQuantized byte = 1 << 1
	pkg5FlagsKnown         = pkg5FlagLifecycle | pkg5FlagQuantized
)

// Save writes the index to path. The dataset itself is not stored: Load
// must be given the same data slice (same order) the index was built
// over. Saving avoids the build cost on the next start.
func (ix *Index) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := ix.encode(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (ix *Index) encode(w io.Writer) error {
	if !ix.attrs.Empty() {
		qs := ix.core.SQ8()
		var flags byte
		if qs != nil {
			flags |= pkg5FlagQuantized
		}
		if _, err := w.Write(pkgMagic5[:]); err != nil {
			return err
		}
		if _, err := w.Write([]byte{containerSingle, flags}); err != nil {
			return err
		}
		if err := encodeConfig(w, ix.cfg); err != nil {
			return err
		}
		if err := ix.core.Encode(w); err != nil {
			return err
		}
		if qs != nil {
			if err := encodeQuantHeader(w, ix.cfg); err != nil {
				return err
			}
			if err := encodeSQ8(w, qs); err != nil {
				return err
			}
		}
		return encodeAttrsSection(w, ix.attrs)
	}
	if qs := ix.core.SQ8(); qs != nil {
		if _, err := w.Write(pkgMagic4[:]); err != nil {
			return err
		}
		if _, err := w.Write([]byte{containerSingle}); err != nil {
			return err
		}
		if err := encodeConfig(w, ix.cfg); err != nil {
			return err
		}
		if err := ix.core.Encode(w); err != nil {
			return err
		}
		if err := encodeQuantHeader(w, ix.cfg); err != nil {
			return err
		}
		return encodeSQ8(w, qs)
	}
	if _, err := w.Write(pkgMagic[:]); err != nil {
		return err
	}
	if err := encodeConfig(w, ix.cfg); err != nil {
		return err
	}
	return ix.core.Encode(w)
}

// encodeConfig writes the resolved configuration header shared by both
// package formats.
func encodeConfig(w io.Writer, cfg Config) error {
	metric := string(cfg.Metric)
	if err := binary.Write(w, binary.LittleEndian, int32(len(metric))); err != nil {
		return err
	}
	if _, err := w.Write([]byte(metric)); err != nil {
		return err
	}
	hdr := []int64{int64(cfg.M), int64(cfg.Probes), int64(cfg.Budget)}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, cfg.BucketWidth); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, cfg.Seed)
}

// decodeConfig reads the configuration header shared by both package
// formats.
func decodeConfig(r io.Reader) (Config, error) {
	var cfg Config
	var metricLen int32
	if err := binary.Read(r, binary.LittleEndian, &metricLen); err != nil {
		return cfg, err
	}
	if metricLen < 0 || metricLen > 64 {
		return cfg, fmt.Errorf("lccs: corrupt metric length %d", metricLen)
	}
	metricBuf := make([]byte, metricLen)
	if _, err := io.ReadFull(r, metricBuf); err != nil {
		return cfg, err
	}
	var hdr [3]int64
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return cfg, err
	}
	if hdr[0] <= 0 || hdr[1] < 0 || hdr[2] < 0 {
		return cfg, fmt.Errorf("lccs: corrupt config header m=%d probes=%d budget=%d", hdr[0], hdr[1], hdr[2])
	}
	var bucketWidth float64
	if err := binary.Read(r, binary.LittleEndian, &bucketWidth); err != nil {
		return cfg, err
	}
	var seed uint64
	if err := binary.Read(r, binary.LittleEndian, &seed); err != nil {
		return cfg, err
	}
	return Config{
		Metric:      MetricKind(metricBuf),
		M:           int(hdr[0]),
		Probes:      int(hdr[1]),
		Budget:      int(hdr[2]),
		BucketWidth: bucketWidth,
		Seed:        seed,
	}, nil
}

// encodeQuantHeader writes the quantization-section header of a format-4
// file: the quantizer name and the configured re-rank depth (0 when the
// user left the default; the default is re-derived deterministically at
// load time, keeping re-encodes byte-identical).
func encodeQuantHeader(w io.Writer, cfg Config) error {
	if err := binary.Write(w, binary.LittleEndian, int32(len(cfg.Quantize))); err != nil {
		return err
	}
	if _, err := w.Write([]byte(cfg.Quantize)); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, int64(cfg.Rerank))
}

// decodeQuantHeader reads the quantization-section header.
func decodeQuantHeader(r io.Reader) (kind string, rerank int, err error) {
	var kindLen int32
	if err := binary.Read(r, binary.LittleEndian, &kindLen); err != nil {
		return "", 0, err
	}
	if kindLen < 0 || kindLen > 64 {
		return "", 0, fmt.Errorf("lccs: corrupt quantizer name length %d", kindLen)
	}
	kindBuf := make([]byte, kindLen)
	if _, err := io.ReadFull(r, kindBuf); err != nil {
		return "", 0, err
	}
	if string(kindBuf) != QuantizeSQ8 {
		return "", 0, fmt.Errorf("lccs: unknown quantizer %q", kindBuf)
	}
	var rr int64
	if err := binary.Read(r, binary.LittleEndian, &rr); err != nil {
		return "", 0, err
	}
	if rr < 0 {
		return "", 0, fmt.Errorf("lccs: corrupt re-rank depth %d", rr)
	}
	return string(kindBuf), int(rr), nil
}

// encodeSQ8 writes one shard's quantized store: row/dim counts for
// validation, the per-dimension codebook (min, scale), the dequantized
// row norms, and the packed codes.
func encodeSQ8(w io.Writer, qs *vec.SQ8Store) error {
	min, scale, norms, codes := qs.Codebook()
	if err := binary.Write(w, binary.LittleEndian, [2]int64{int64(qs.Len()), int64(qs.Dim())}); err != nil {
		return err
	}
	for _, f32s := range [][]float32{min, scale, norms} {
		if err := binary.Write(w, binary.LittleEndian, f32s); err != nil {
			return err
		}
	}
	_, err := w.Write(codes)
	return err
}

// decodeSQ8 reads one shard's quantized store, validating it against the
// shard geometry the container already established.
func decodeSQ8(r io.Reader, rows, dim int) (*vec.SQ8Store, error) {
	var hdr [2]int64
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, err
	}
	if hdr[0] != int64(rows) || hdr[1] != int64(dim) {
		return nil, fmt.Errorf("lccs: quantized store covers %d×%d, shard is %d×%d", hdr[0], hdr[1], rows, dim)
	}
	min := make([]float32, dim)
	scale := make([]float32, dim)
	norms := make([]float32, rows)
	for _, f32s := range [][]float32{min, scale, norms} {
		if err := binary.Read(r, binary.LittleEndian, f32s); err != nil {
			return nil, err
		}
	}
	codes := make([]uint8, rows*dim)
	if _, err := io.ReadFull(r, codes); err != nil {
		return nil, err
	}
	return vec.RestoreSQ8(dim, min, scale, norms, codes), nil
}

// readContainerKind reads and validates the format-4 container-kind byte.
func readContainerKind(r io.Reader) (byte, error) {
	var kind [1]byte
	if _, err := io.ReadFull(r, kind[:]); err != nil {
		return 0, err
	}
	if kind[0] != containerSingle && kind[0] != containerSharded {
		return 0, fmt.Errorf("lccs: corrupt container kind %d", kind[0])
	}
	return kind[0], nil
}

// Load reads a single-Index file written by Index.Save. data must be the
// dataset the index was built over; a sample of hash strings is
// re-verified against it, so passing different data fails loudly rather
// than silently returning wrong neighbors. Sharded (format 2) files are
// rejected with an error directing to LoadSharded.
func Load(path string, data [][]float32) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	magic, err := readMagic(r)
	if err != nil {
		return nil, err
	}
	if magic == pkgMagic2 || magic == pkgMagic3 {
		return nil, fmt.Errorf("lccs: %s holds a sharded index; use LoadSharded", path)
	}
	if magic == pkgMagic4 {
		kind, err := readContainerKind(r)
		if err != nil {
			return nil, err
		}
		if kind == containerSharded {
			return nil, fmt.Errorf("lccs: %s holds a sharded index; use LoadSharded", path)
		}
		store, err := storeFromRows(data)
		if err != nil {
			return nil, err
		}
		return decodeSingleQuantized(r, store)
	}
	if magic == pkgMagic5 {
		kind, flags, err := readPkg5Header(r)
		if err != nil {
			return nil, err
		}
		if kind == containerSharded {
			return nil, fmt.Errorf("lccs: %s holds a sharded index; use LoadSharded", path)
		}
		store, err := storeFromRows(data)
		if err != nil {
			return nil, err
		}
		return decodeSingleWithAttrs(r, store, flags)
	}
	return decodeSingle(r, data)
}

// readMagic reads and validates the 8-byte package magic.
func readMagic(r io.Reader) ([8]byte, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return magic, err
	}
	if magic != pkgMagic && magic != pkgMagic2 && magic != pkgMagic3 && magic != pkgMagic4 && magic != pkgMagic5 {
		return magic, fmt.Errorf("lccs: bad index magic %q", magic)
	}
	return magic, nil
}

// checkStore validates the caller-supplied dataset store before it is
// used to reconstruct hash families: an empty or zero-dimensional store
// must be reported, not panicked on deep inside the LSH family.
func checkStore(store *vec.Store) error {
	if store.Len() == 0 {
		return fmt.Errorf("lccs: empty dataset")
	}
	if store.Dim() == 0 {
		return fmt.Errorf("lccs: zero-dimensional data")
	}
	return nil
}

// decodeSingle decodes a format-1 body (everything after the magic).
// The supplied rows are packed once into a flat store that the decoded
// index retains.
func decodeSingle(r io.Reader, data [][]float32) (*Index, error) {
	store, err := storeFromRows(data)
	if err != nil {
		return nil, err
	}
	return decodeSingleStore(r, store)
}

// decodeSingleStore is decodeSingle over an already-flat store, which
// the decoded index adopts without copying.
func decodeSingleStore(r io.Reader, store *vec.Store) (*Index, error) {
	cfg, err := decodeConfig(r)
	if err != nil {
		return nil, err
	}
	if err := checkStore(store); err != nil {
		return nil, err
	}
	family, err := familyFor(cfg, store.Dim())
	if err != nil {
		return nil, err
	}
	// Hand the index a capped view, not the owning store: growing the
	// owner (e.g. through a DynamicIndex that adopts it) must never
	// change what a loaded index covers.
	single, err := core.DecodeStore(r, store.Slice(0, store.Len()), family)
	if err != nil {
		return nil, err
	}
	if err := checkCoreMatches(single, cfg); err != nil {
		return nil, err
	}
	return wrapSingle(single, cfg, family)
}

// decodeSingleQuantized decodes a format-4 single-Index body (everything
// after the magic and kind byte): the format-1 body followed by the
// quantization section.
func decodeSingleQuantized(r io.Reader, store *vec.Store) (*Index, error) {
	ix, err := decodeSingleStore(r, store)
	if err != nil {
		return nil, err
	}
	kind, rerank, err := decodeQuantHeader(r)
	if err != nil {
		return nil, err
	}
	ix.cfg.Quantize, ix.cfg.Rerank = kind, rerank
	if err := validateConfig(ix.cfg); err != nil {
		return nil, err
	}
	qs, err := decodeSQ8(r, ix.Len(), ix.Dim())
	if err != nil {
		return nil, err
	}
	ix.core.EnableSQ8(qs, rerank)
	return ix, nil
}

// decodeSingleWithAttrs decodes a format-5 single-Index body: the
// format-1 body, the quantization section when flagged, and the
// attribute tail.
func decodeSingleWithAttrs(r io.Reader, store *vec.Store, flags byte) (*Index, error) {
	var ix *Index
	var err error
	if flags&pkg5FlagQuantized != 0 {
		ix, err = decodeSingleQuantized(r, store)
	} else {
		ix, err = decodeSingleStore(r, store)
	}
	if err != nil {
		return nil, err
	}
	attrs, err := decodeAttrsSection(r, ix.Len())
	if err != nil {
		return nil, err
	}
	ix.attrs = attrs
	return ix, nil
}

// checkCoreMatches verifies the package header agrees with the decoded
// core index on the fields both store, catching header corruption the
// core-level checks cannot see.
func checkCoreMatches(single *core.Index, cfg Config) error {
	if single.M() != cfg.M {
		return fmt.Errorf("lccs: package header says m=%d, core index has m=%d", cfg.M, single.M())
	}
	if single.Seed() != cfg.Seed {
		return fmt.Errorf("lccs: package header seed %d disagrees with core index seed %d", cfg.Seed, single.Seed())
	}
	return nil
}

// wrapSingle builds the facade Index around a decoded core index,
// restoring the multi-probe state when the configuration asks for it.
func wrapSingle(single *core.Index, cfg Config, family lshfamily.Family) (*Index, error) {
	ix := &Index{core: single, metric: family.Metric(), budget: cfg.Budget, dim: family.Dim(), cfg: cfg}
	ix.raw.New = func() any { return new(rawBuf) }
	if err := ix.enableProbes(); err != nil {
		return nil, err
	}
	return ix, nil
}

// Save writes the sharded index to path: a format-2 container (the
// shared configuration header, the shard table, and each shard's core
// index), extended to format 3 with a lifecycle section when the index
// carries deletion state (a compacted id map or tombstones from a
// dynamic snapshot). As with Index.Save, the dataset itself is not
// stored — LoadSharded must be given the same data slice in the same
// order.
func (sx *ShardedIndex) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := sx.encode(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (sx *ShardedIndex) encode(w io.Writer) error {
	lifecycle := sx.ids != nil || len(sx.dead) > 0
	quantized := len(sx.shards) > 0 && sx.shards[0].core.SQ8() != nil
	hasAttrs := !sx.attrs.Empty()
	magic := pkgMagic2
	if lifecycle {
		magic = pkgMagic3
	}
	if quantized {
		magic = pkgMagic4
	}
	if hasAttrs {
		magic = pkgMagic5
	}
	if _, err := w.Write(magic[:]); err != nil {
		return err
	}
	if hasAttrs {
		var flags byte
		if lifecycle {
			flags |= pkg5FlagLifecycle
		}
		if quantized {
			flags |= pkg5FlagQuantized
		}
		if _, err := w.Write([]byte{containerSharded, flags}); err != nil {
			return err
		}
	} else if quantized {
		// Format 4 carries the container kind and an explicit lifecycle
		// flag; formats 2/3 encode lifecycle presence in the magic.
		flag := byte(0)
		if lifecycle {
			flag = 1
		}
		if _, err := w.Write([]byte{containerSharded, flag}); err != nil {
			return err
		}
	}
	if err := encodeConfig(w, sx.cfg); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, int32(len(sx.shards))); err != nil {
		return err
	}
	sizes := make([]int64, len(sx.shards))
	for s := range sx.shards {
		sizes[s] = int64(sx.offsets[s+1] - sx.offsets[s])
	}
	if err := binary.Write(w, binary.LittleEndian, sizes); err != nil {
		return err
	}
	for _, shard := range sx.shards {
		if err := shard.core.Encode(w); err != nil {
			return err
		}
	}
	if lifecycle {
		if err := sx.encodeLifecycle(w); err != nil {
			return err
		}
	}
	if quantized {
		if err := encodeQuantHeader(w, sx.cfg); err != nil {
			return err
		}
		for s, shard := range sx.shards {
			qs := shard.core.SQ8()
			if qs == nil {
				return fmt.Errorf("lccs: shard %d has no quantized store while shard 0 does", s)
			}
			if err := encodeSQ8(w, qs); err != nil {
				return err
			}
		}
	}
	if hasAttrs {
		return encodeAttrsSection(w, sx.attrs)
	}
	return nil
}

// encodeAttrsSection writes the format-5 tail: the stored row count, the
// byte length of the concatenated canonical row encodings, and the rows
// themselves. The per-row encoding is deterministic (sorted keys), so a
// loaded format-5 file re-saves byte-identically.
func encodeAttrsSection(w io.Writer, ms *vec.MetaStore) error {
	n := ms.Len()
	var buf []byte
	for i := 0; i < n; i++ {
		buf = vec.AppendAttrs(buf, ms.Row(i))
	}
	if err := binary.Write(w, binary.LittleEndian, [2]int64{int64(n), int64(len(buf))}); err != nil {
		return err
	}
	_, err := w.Write(buf)
	return err
}

// maxAttrsSectionBytes bounds the attribute section a loader will buffer
// (corrupt headers must not drive allocations).
const maxAttrsSectionBytes = 1 << 30

// decodeAttrsSection reads the format-5 tail. The row count may be
// smaller than the slot count (trailing slots carry no metadata) but
// never larger.
func decodeAttrsSection(r io.Reader, maxRows int) (*vec.MetaStore, error) {
	var hdr [2]int64
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, err
	}
	n, size := hdr[0], hdr[1]
	if n < 0 || n > int64(maxRows) {
		return nil, fmt.Errorf("lccs: attribute section covers %d rows, index has %d", n, maxRows)
	}
	if size < 0 || size > maxAttrsSectionBytes {
		return nil, fmt.Errorf("lccs: corrupt attribute section size %d", size)
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	rows := make([]vec.Attrs, n)
	off := 0
	for i := range rows {
		a, used, err := vec.DecodeAttrs(buf[off:])
		if err != nil {
			return nil, fmt.Errorf("lccs: attribute row %d: %w", i, err)
		}
		rows[i] = a
		off += used
	}
	if off != len(buf) {
		return nil, fmt.Errorf("lccs: attribute section has %d trailing bytes", len(buf)-off)
	}
	return vec.MetaFromRows(rows), nil
}

// readPkg5Header reads and validates the format-5 kind and flags bytes.
func readPkg5Header(r io.Reader) (kind, flags byte, err error) {
	kind, err = readContainerKind(r)
	if err != nil {
		return 0, 0, err
	}
	var fb [1]byte
	if _, err := io.ReadFull(r, fb[:]); err != nil {
		return 0, 0, err
	}
	flags = fb[0]
	if flags&^pkg5FlagsKnown != 0 {
		return 0, 0, fmt.Errorf("lccs: unknown format-5 flags %#x", flags)
	}
	if kind == containerSingle && flags&pkg5FlagLifecycle != 0 {
		return 0, 0, fmt.Errorf("lccs: single-index container cannot carry lifecycle state")
	}
	return kind, flags, nil
}

// encodeLifecycle writes the format-3 tail: the id map (identity flag,
// next-id watermark, and — when compacted — the slot-ordered external
// ids) followed by the sorted tombstoned external ids. The encoding is
// deterministic, so a loaded format-3 file re-saves byte-identically.
func (sx *ShardedIndex) encodeLifecycle(w io.Writer) error {
	identity := sx.ids.Identity()
	flag := byte(0)
	next := sx.slots()
	if identity {
		flag = 1
	} else {
		next = sx.ids.Next()
	}
	if _, err := w.Write([]byte{flag}); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, int64(next)); err != nil {
		return err
	}
	if !identity {
		ids := sx.ids.AppendIDs(make([]int, 0, sx.slots()))
		if err := binary.Write(w, binary.LittleEndian, int64(len(ids))); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, toInt64s(ids)); err != nil {
			return err
		}
	}
	dead := make([]int, 0, len(sx.dead))
	for slot := range sx.dead {
		dead = append(dead, sx.ids.Ext(slot))
	}
	sort.Ints(dead)
	if err := binary.Write(w, binary.LittleEndian, int64(len(dead))); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, toInt64s(dead))
}

// toInt64s widens ids for the fixed-width container encoding.
func toInt64s(ids []int) []int64 {
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = int64(id)
	}
	return out
}

// decodeLifecycle reads the format-3 tail and installs the lifecycle
// state on sx: the restored id map (nil for identity) and the tombstone
// set translated back to slots, with per-shard tombstone counts derived
// from the shard table.
func (sx *ShardedIndex) decodeLifecycle(r io.Reader) error {
	var flag [1]byte
	if _, err := io.ReadFull(r, flag[:]); err != nil {
		return err
	}
	var next int64
	if err := binary.Read(r, binary.LittleEndian, &next); err != nil {
		return err
	}
	slots := sx.slots()
	switch flag[0] {
	case 1:
		if next != int64(slots) {
			return fmt.Errorf("lccs: identity id map watermark %d disagrees with %d rows", next, slots)
		}
	case 0:
		var count int64
		if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
			return err
		}
		if count != int64(slots) {
			return fmt.Errorf("lccs: id map covers %d slots, index has %d", count, slots)
		}
		raw := make([]int64, count)
		if err := binary.Read(r, binary.LittleEndian, raw); err != nil {
			return err
		}
		ids := make([]int, count)
		for i, id := range raw {
			ids[i] = int(id)
		}
		m, err := idmap.Restore(ids, int(next))
		if err != nil {
			return err
		}
		sx.ids = m
	default:
		return fmt.Errorf("lccs: corrupt id map flag %d", flag[0])
	}
	var deadCount int64
	if err := binary.Read(r, binary.LittleEndian, &deadCount); err != nil {
		return err
	}
	if deadCount < 0 || deadCount > int64(slots) {
		return fmt.Errorf("lccs: corrupt tombstone count %d for %d rows", deadCount, slots)
	}
	if deadCount == 0 {
		return nil
	}
	deadIDs := make([]int64, deadCount)
	if err := binary.Read(r, binary.LittleEndian, deadIDs); err != nil {
		return err
	}
	sx.dead = make(map[int]bool, deadCount)
	sx.shardDead = make([]int, len(sx.shards))
	prev := -1
	for _, id := range deadIDs {
		if int(id) <= prev {
			return fmt.Errorf("lccs: tombstone ids not strictly increasing at %d", id)
		}
		prev = int(id)
		slot, ok := int(id), int(id) >= 0 && int(id) < slots
		if sx.ids != nil {
			slot, ok = sx.ids.Slot(int(id))
		}
		if !ok || slot >= slots {
			return fmt.Errorf("lccs: tombstone id %d resolves to no slot", id)
		}
		sx.dead[slot] = true
		for s := 0; s < len(sx.shards); s++ {
			if slot >= sx.offsets[s] && slot < sx.offsets[s+1] {
				sx.shardDead[s]++
				break
			}
		}
	}
	return nil
}

// LoadSharded reads a sharded index written by ShardedIndex.Save. data
// must be the dataset the index was built over, in the same order (for
// a format-3 file that is the slot-ordered row slice Snapshot returned,
// including rows tombstoned inside shards). A format-1 (single-Index)
// file is accepted too and wrapped as one shard, so callers can migrate
// to the sharded API without rewriting old files.
func LoadSharded(path string, data [][]float32) (*ShardedIndex, error) {
	store, err := storeFromRows(data)
	if err != nil {
		return nil, err
	}
	return LoadShardedStore(path, store)
}

// LoadShardedStore is LoadSharded over an already-flat vector store,
// which the loaded index adopts without re-packing — the copy-free
// warm-restart path (dataset.Dataset.FlatData feeds it directly). The
// caller must not write through store afterwards.
func LoadShardedStore(path string, store *vec.Store) (*ShardedIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	magic, err := readMagic(r)
	if err != nil {
		return nil, err
	}
	if magic == pkgMagic {
		ix, err := decodeSingleStore(r, store)
		if err != nil {
			return nil, err
		}
		return wrapAsSharded(ix), nil
	}
	if magic == pkgMagic4 {
		kind, err := readContainerKind(r)
		if err != nil {
			return nil, err
		}
		if kind == containerSingle {
			ix, err := decodeSingleQuantized(r, store)
			if err != nil {
				return nil, err
			}
			return wrapAsSharded(ix), nil
		}
		var flag [1]byte
		if _, err := io.ReadFull(r, flag[:]); err != nil {
			return nil, err
		}
		if flag[0] > 1 {
			return nil, fmt.Errorf("lccs: corrupt lifecycle flag %d", flag[0])
		}
		return decodeSharded(r, store, flag[0] == 1, true)
	}
	if magic == pkgMagic5 {
		kind, flags, err := readPkg5Header(r)
		if err != nil {
			return nil, err
		}
		if kind == containerSingle {
			ix, err := decodeSingleWithAttrs(r, store, flags)
			if err != nil {
				return nil, err
			}
			return wrapAsSharded(ix), nil
		}
		sx, err := decodeSharded(r, store, flags&pkg5FlagLifecycle != 0, flags&pkg5FlagQuantized != 0)
		if err != nil {
			return nil, err
		}
		attrs, err := decodeAttrsSection(r, sx.slots())
		if err != nil {
			return nil, err
		}
		sx.attrs = attrs
		return sx, nil
	}
	return decodeSharded(r, store, magic == pkgMagic3, false)
}

// wrapAsSharded adapts a decoded single Index into a one-shard
// ShardedIndex — the migration path for format-1 (and quantized
// format-4 single) files opened with LoadSharded.
func wrapAsSharded(ix *Index) *ShardedIndex {
	sx := &ShardedIndex{
		cfg:     ix.cfg,
		store:   ix.core.Store(),
		shards:  []*Index{ix},
		offsets: []int{0, ix.Len()},
		budget:  ix.budget,
		dim:     ix.dim,
		attrs:   ix.attrs,
	}
	sx.initPool()
	return sx
}

// decodeSharded decodes a format-2, format-3, or sharded format-4 body
// (everything after the magic and, for format 4, the kind and lifecycle
// flag bytes); lifecycle selects the lifecycle tail, quantized the
// format-4 quantization section.
func decodeSharded(r io.Reader, store *vec.Store, lifecycle, quantized bool) (*ShardedIndex, error) {
	cfg, err := decodeConfig(r)
	if err != nil {
		return nil, err
	}
	if err := checkStore(store); err != nil {
		return nil, err
	}
	n := store.Len()
	var shardCount int32
	if err := binary.Read(r, binary.LittleEndian, &shardCount); err != nil {
		return nil, err
	}
	if err := validateShardCount(int(shardCount), n); err != nil {
		return nil, err
	}
	sizes := make([]int64, shardCount)
	if err := binary.Read(r, binary.LittleEndian, sizes); err != nil {
		return nil, err
	}
	offsets := make([]int, shardCount+1)
	for s, size := range sizes {
		if size <= 0 || size > int64(n) {
			return nil, fmt.Errorf("lccs: corrupt shard size %d", size)
		}
		offsets[s+1] = offsets[s] + int(size)
	}
	if offsets[shardCount] != n {
		return nil, fmt.Errorf("lccs: shard table covers %d vectors, data has %d", offsets[shardCount], n)
	}
	// One flat store for the whole dataset; every shard decodes against
	// a contiguous view of it, exactly as NewShardedIndex builds.
	family, err := familyFor(cfg, store.Dim())
	if err != nil {
		return nil, err
	}
	sx := &ShardedIndex{
		cfg:     cfg,
		store:   store,
		shards:  make([]*Index, shardCount),
		offsets: offsets,
		budget:  cfg.Budget,
		dim:     store.Dim(),
	}
	for s := range sx.shards {
		single, err := core.DecodeStore(r, store.Slice(offsets[s], offsets[s+1]), family)
		if err != nil {
			return nil, fmt.Errorf("lccs: shard %d: %w", s, err)
		}
		if err := checkCoreMatches(single, cfg); err != nil {
			return nil, fmt.Errorf("lccs: shard %d: %w", s, err)
		}
		sx.shards[s], err = wrapSingle(single, cfg, family)
		if err != nil {
			return nil, fmt.Errorf("lccs: shard %d: %w", s, err)
		}
	}
	if lifecycle {
		if err := sx.decodeLifecycle(r); err != nil {
			return nil, err
		}
	}
	if quantized {
		kind, rerank, err := decodeQuantHeader(r)
		if err != nil {
			return nil, err
		}
		sx.cfg.Quantize, sx.cfg.Rerank = kind, rerank
		if err := validateConfig(sx.cfg); err != nil {
			return nil, err
		}
		for s := range sx.shards {
			qs, err := decodeSQ8(r, offsets[s+1]-offsets[s], store.Dim())
			if err != nil {
				return nil, fmt.Errorf("lccs: shard %d: %w", s, err)
			}
			sx.shards[s].core.EnableSQ8(qs, rerank)
			sx.shards[s].cfg.Quantize, sx.shards[s].cfg.Rerank = kind, rerank
		}
	}
	sx.initPool()
	return sx, nil
}

// familyFor constructs the LSH family a Config selects. BucketWidth must
// already be resolved (non-zero) for Euclidean.
func familyFor(cfg Config, dim int) (lshfamily.Family, error) {
	switch cfg.Metric {
	case Euclidean:
		if cfg.BucketWidth <= 0 {
			return nil, fmt.Errorf("lccs: euclidean index requires a positive bucket width, got %v", cfg.BucketWidth)
		}
		return lshfamily.NewRandomProjection(dim, cfg.BucketWidth), nil
	case Angular:
		return lshfamily.NewCrossPolytope(dim), nil
	case Hamming:
		return lshfamily.NewBitSampling(dim), nil
	case Jaccard:
		return lshfamily.NewMinHash(dim), nil
	}
	return nil, fmt.Errorf("lccs: unknown metric %q", cfg.Metric)
}
