package lccs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"lccs/internal/core"
	"lccs/internal/faultfs"
	"lccs/internal/idmap"
	"lccs/internal/lshfamily"
	"lccs/internal/vec"
)

// The index container. Save writes one layout, whatever the index
// carries:
//
//	magic "LCCSPKG5" · kind byte (2) · flags byte
//	config                          metric, m, probes (reserved: written 0), budget, bucket width, seed
//	shard table                     count, then each shard's size
//	core index × shards             one blob per shard
//	lifecycle section               flagLifecycle: id map + tombstoned ids
//	quantization section            flagQuantized: never written; read and discarded (skipQuantSection)
//	attribute section               always; 16 zero bytes when no row carries metadata
//
// The dataset itself is never stored. The body is a segment set's, so one
// encoder (segSet.encode) and one decoder (decodeBody) serve every Index,
// the durable checkpoint and the lccs-serve warm start. Files of the four
// earlier versions, and version-5 files of the single kind (one core blob,
// no shard table) an earlier Index.Save wrote, differ only in how the
// header names the optional sections; readHeader maps them onto the same
// header value and they load through the same decoder, a single body as
// one shard:
//
//	LCCSPKG1  nothing after the magic           single
//	LCCSPKG2  nothing after the magic           sharded
//	LCCSPKG3  nothing after the magic           sharded, lifecycle
//	LCCSPKG4  kind; sharded: lifecycle byte     quantized
//	LCCSPKG5  kind, flags                       attribute section present
var pkgMagic = [8]byte{'L', 'C', 'C', 'S', 'P', 'K', 'G', '5'}

// Container-kind byte: Save writes the sharded kind; the single kind is
// read only.
const (
	containerSingle  byte = 1
	containerSharded byte = 2
)

// Flags byte: which optional sections follow the core blobs. Save never
// sets flagQuantized.
const (
	flagLifecycle byte = 1 << 0
	flagQuantized byte = 1 << 1
)

// header is what a container's first bytes say about its body.
type header struct {
	sharded, lifecycle, quantized, attrs bool
}

// readHeader reads the magic plus the kind and flags bytes its version
// carries (see the table above).
func readHeader(r io.Reader) (header, error) {
	var b [10]byte
	if _, err := io.ReadFull(r, b[:8]); err != nil {
		return header{}, err
	}
	version := b[7]
	if string(b[:7]) != string(pkgMagic[:7]) || version < '1' || version > '5' {
		return header{}, fmt.Errorf("lccs: bad index magic %q", b[:8])
	}
	h := header{
		sharded:   version == '2' || version == '3',
		lifecycle: version == '3',
		quantized: version == '4',
		attrs:     version == '5',
	}
	if version < '4' {
		return h, nil
	}
	if _, err := io.ReadFull(r, b[8:9]); err != nil {
		return header{}, err
	}
	switch b[8] {
	case containerSingle:
	case containerSharded:
		h.sharded = true
	default:
		return header{}, fmt.Errorf("lccs: corrupt container kind %d", b[8])
	}
	if version == '4' && !h.sharded {
		return h, nil // a single format-4 file has no flags byte
	}
	if _, err := io.ReadFull(r, b[9:10]); err != nil {
		return header{}, err
	}
	known := flagLifecycle // format 4's lifecycle byte is the same bit
	if version == '5' {
		known |= flagQuantized
	}
	flags := b[9]
	if flags&^known != 0 {
		return header{}, fmt.Errorf("lccs: unknown container flags %#x", flags)
	}
	h.lifecycle = flags&flagLifecycle != 0
	h.quantized = h.quantized || flags&flagQuantized != 0
	if h.lifecycle && !h.sharded {
		return header{}, fmt.Errorf("lccs: single-index container cannot carry lifecycle state")
	}
	return h, nil
}

// Save writes the index to path: the shared configuration, the shard
// table, each shard's core index, and whatever the index carries of
// deletion state (a compacted id map or tombstones from a dynamic
// snapshot) and vector attributes. The dataset itself is not stored: Load
// must be given the same data slice, in the same order, the index was
// built over. Saving avoids the build cost on the next start. The file is
// fsynced before Save returns; a failed Save may leave a partial file at
// path.
func (ix *Index) Save(path string) error { return faultfs.WriteFile(faultfs.OS{}, path, ix.encode) }

// encode writes the container layout described at pkgMagic. Every section
// encodes deterministically, so a loaded file re-saves byte for byte.
func (sx *segSet) encode(w io.Writer) error {
	lifecycle := sx.ids != nil || sx.dead.Count() > 0
	var flags byte
	if lifecycle {
		flags |= flagLifecycle
	}
	if _, err := w.Write(append(pkgMagic[:], containerSharded, flags)); err != nil {
		return err
	}
	if err := encodeConfig(w, sx.cfg); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, int32(len(sx.segs))); err != nil {
		return err
	}
	sizes := make([]int64, len(sx.segs))
	for s := range sx.segs {
		sizes[s] = int64(sx.segs[s].core.N())
	}
	if err := binary.Write(w, binary.LittleEndian, sizes); err != nil {
		return err
	}
	for _, seg := range sx.segs {
		if err := seg.core.Encode(w); err != nil {
			return err
		}
	}
	if lifecycle {
		if err := sx.encodeLifecycle(w); err != nil {
			return err
		}
	}
	return sx.encodeAttrsSection(w)
}

// encodeConfig writes the resolved configuration every container
// starts its body with. The probes slot held a multi-probe count when the
// facade offered one; it is written 0.
func encodeConfig(w io.Writer, cfg Config) error {
	metric := string(cfg.Metric)
	if err := binary.Write(w, binary.LittleEndian, int32(len(metric))); err != nil {
		return err
	}
	if _, err := w.Write([]byte(metric)); err != nil {
		return err
	}
	hdr := []int64{int64(cfg.M), 0, int64(cfg.Budget)}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, cfg.BucketWidth); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, cfg.Seed)
}

// decodeConfig reads the configuration encodeConfig wrote. A file saved
// with a multi-probe count in the probes slot loads as the single-probe
// index over the same CSA: the slot is checked to be non-negative, as a
// corruption check, and otherwise ignored.
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
		Budget:      int(hdr[2]),
		BucketWidth: bucketWidth,
		Seed:        seed,
	}, nil
}

// skipQuantSection reads the quantization section of a file written with
// SQ8, a mirror of each shard's rows that verification no longer uses, and
// discards it, so the file loads as the exact index over the same CSA and
// re-saves without it. It checks the section as strictly as when it was
// loaded: the quantizer is "sq8" over a Euclidean or Angular index, the
// re-rank depth is non-negative, and each shard's part covers that shard's
// rows×dim and is there in full: its codebook (min and scale, dim float32s
// each), its row norms (rows float32s) and its codes (rows·dim bytes).
func skipQuantSection(r io.Reader, sx *segSet, inShard func(int, error) error) error {
	var kindLen int32
	if err := binary.Read(r, binary.LittleEndian, &kindLen); err != nil {
		return err
	}
	if kindLen < 0 || kindLen > 64 {
		return fmt.Errorf("lccs: corrupt quantizer name length %d", kindLen)
	}
	kind := make([]byte, kindLen)
	if _, err := io.ReadFull(r, kind); err != nil {
		return err
	}
	if string(kind) != "sq8" {
		return fmt.Errorf("lccs: unknown quantizer %q", kind)
	}
	if sx.cfg.Metric != Euclidean && sx.cfg.Metric != Angular {
		return fmt.Errorf("lccs: quantizer %q over a %q index", kind, sx.cfg.Metric)
	}
	var depth int64
	if err := binary.Read(r, binary.LittleEndian, &depth); err != nil {
		return err
	}
	if depth < 0 {
		return fmt.Errorf("lccs: corrupt re-rank depth %d", depth)
	}
	dim := int64(sx.Dim())
	for s, seg := range sx.segs {
		rows := int64(seg.core.N())
		var hdr [2]int64
		if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
			return inShard(s, err)
		}
		if hdr[0] != rows || hdr[1] != dim {
			return inShard(s, fmt.Errorf("lccs: quantized store covers %d×%d, shard is %d×%d", hdr[0], hdr[1], rows, dim))
		}
		size := 4*(2*dim+rows) + rows*dim
		if _, err := io.CopyN(io.Discard, r, size); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return inShard(s, err)
		}
	}
	return nil
}

// Load opens an index file written by Save: every container kind of all
// five magics, a single-index file as one shard. data must be the dataset
// the index was built over, in the same order (for a file carrying
// lifecycle state that is the slot-ordered row slice Snapshot returned,
// including rows tombstoned inside shards); the shard table must tile its
// rows and a sample of hash strings is re-verified against it, so passing
// different data fails loudly rather than silently returning wrong
// neighbors. Load refuses any configuration NewIndex would refuse (a
// negative or non-finite bucket width under any metric, say), so whatever
// loads also builds: a DynamicIndex made from it takes writes.
func Load(path string, data [][]float32) (*Index, error) {
	store, err := storeFromRows(data, "")
	if err != nil {
		return nil, err
	}
	return LoadStore(path, store)
}

// LoadStore is Load over an already-flat vector store, which the loaded
// index adopts without re-packing — the copy-free warm-restart path
// (dataset.Dataset.FlatData feeds it directly). The caller must not write
// through store afterwards.
func LoadStore(path string, store *vec.Store) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return loadStore(bufio.NewReaderSize(f, 1<<20), store)
}

// loadStore is LoadStore over a reader holding a container: the entry
// every file load goes through, and the one a caller holding the bytes
// already (the durable open's FS, the fuzzer) decodes with.
func loadStore(r io.Reader, store *vec.Store) (*Index, error) {
	h, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	set, err := decodeBody(r, store, h)
	if err != nil {
		return nil, err
	}
	return indexOf(*set, 0), nil
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

// decodeBody decodes everything after the header, in the order encode
// wrote it, into a set for an Index to adopt; h selects the optional
// sections. A single body has no shard table and decodes as one shard over
// the whole store. The configuration must pass validateConfig, the rule
// NewIndex applies.
func decodeBody(r io.Reader, store *vec.Store, h header) (*segSet, error) {
	cfg, err := decodeConfig(r)
	if err != nil {
		return nil, err
	}
	if _, err := validateConfig(cfg); err != nil {
		return nil, fmt.Errorf("lccs: corrupt container config: %w", err)
	}
	if err := checkStore(store); err != nil {
		return nil, err
	}
	n := store.Len()
	offsets := []int{0, n}
	if h.sharded {
		if offsets, err = decodeShardTable(r, n); err != nil {
			return nil, err
		}
	}
	family, err := familyFor(cfg, store.Dim())
	if err != nil {
		return nil, err
	}
	sx := &segSet{cfg: cfg, metric: family.Metric(), tail: vec.NewStore(store.Dim()), segs: make([]segment, len(offsets)-1), indexed: n}
	inShard := func(s int, err error) error {
		if !h.sharded {
			return err
		}
		return fmt.Errorf("lccs: shard %d: %w", s, err)
	}
	for s := range sx.segs {
		// Every shard decodes against a capped contiguous view of the one
		// flat store and keeps verifying against it: a DynamicIndex that
		// adopts the index buffers its inserts in a block of its own.
		c, err := core.DecodeStore(r, store.Slice(offsets[s], offsets[s+1]), family)
		if err == nil {
			err = checkCoreMatches(c, cfg)
		}
		if err != nil {
			return nil, inShard(s, err)
		}
		sx.segs[s] = segment{core: c, off: offsets[s]}
	}
	if h.lifecycle {
		if err := sx.decodeLifecycle(r); err != nil {
			return nil, err
		}
	}
	if h.quantized {
		if err := skipQuantSection(r, sx, inShard); err != nil {
			return nil, err
		}
	}
	if h.attrs {
		ms, err := decodeAttrsSection(r, n)
		if err != nil {
			return nil, err
		}
		sx.setAttrs(ms)
	}
	return sx, nil
}

// decodeShardTable reads the shard count and sizes of a sharded body
// and returns the shard offsets, which must tile the n rows exactly.
func decodeShardTable(r io.Reader, n int) ([]int, error) {
	var shardCount int32
	if err := binary.Read(r, binary.LittleEndian, &shardCount); err != nil {
		return nil, err
	}
	if shardCount <= 0 || int(shardCount) > n {
		return nil, fmt.Errorf("lccs: corrupt shard count %d for %d vectors", shardCount, n)
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
	return offsets, nil
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

// encodeAttrsSection writes the container's last section: the attribute
// column's row count, the byte length of the concatenated canonical row
// encodings, and the rows themselves (sorted keys, so the encoding is
// deterministic). A set in which no row carries an attribute writes zero
// rows — the same 16 bytes as an index built without metadata.
func (sx *segSet) encodeAttrsSection(w io.Writer) error {
	n := sx.attrRows()
	var buf []byte
	empty := true
	for _, src := range sx.sources() {
		for i := 0; i < src.rows.Len() && src.off+i < n; i++ {
			a := src.attrs.Row(i)
			empty = empty && len(a) == 0
			buf = vec.AppendAttrs(buf, a)
		}
	}
	if empty {
		n, buf = 0, nil
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

// decodeAttrsSection reads the attribute section. The row count may be
// smaller than the slot count (trailing slots carry no metadata) but
// never larger; zero rows decode as no store at all, the state of an
// index built without metadata.
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
	if n == 0 {
		return nil, nil
	}
	return vec.MetaFromRows(rows), nil
}

// encodeLifecycle writes the lifecycle section: the id map (identity flag,
// next-id watermark, and — when compacted — the slot-ordered external
// ids) followed by the sorted tombstoned external ids. The encoding is
// deterministic (ids in slot order, tombstones sorted).
func (sx *segSet) encodeLifecycle(w io.Writer) error {
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
	// External ids increase with the slot, so ascending slots are sorted ids.
	dead := make([]int64, 0, sx.dead.Count())
	sx.dead.Each(func(slot int) { dead = append(dead, int64(sx.ids.Ext(slot))) })
	if err := binary.Write(w, binary.LittleEndian, int64(len(dead))); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, dead)
}

// toInt64s widens ids for the fixed-width container encoding.
func toInt64s(ids []int) []int64 {
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = int64(id)
	}
	return out
}

// decodeLifecycle reads the lifecycle section and installs the lifecycle
// state on sx: the restored id map (nil for identity) and the tombstone
// set translated back to slots.
func (sx *segSet) decodeLifecycle(r io.Reader) error {
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
	var dead slotSet
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
		dead.Set(slot)
	}
	sx.dead = dead
	return nil
}

// familyFor constructs the LSH family a Config selects. BucketWidth must
// already be resolved (non-zero) for Euclidean, and finite: a NaN or
// infinite width puts every point in one bucket, so every hash string
// collides.
func familyFor(cfg Config, dim int) (lshfamily.Family, error) {
	switch cfg.Metric {
	case Euclidean:
		if !(cfg.BucketWidth > 0) || math.IsInf(cfg.BucketWidth, 1) {
			return nil, fmt.Errorf("lccs: euclidean index requires a positive finite bucket width, got %v", cfg.BucketWidth)
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
