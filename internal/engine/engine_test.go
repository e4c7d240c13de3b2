package engine

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lccs"
	"lccs/internal/faultfs"
	"lccs/internal/rng"
)

func mustCreate(t *testing.T, e *Engine, name string, spec Spec) *Collection {
	t.Helper()
	c, err := e.Create(name, spec)
	if err != nil {
		t.Fatalf("Create(%q): %v", name, err)
	}
	return c
}

// TestRootedLifecycle walks the full registry lifecycle on disk:
// create → write → reopen lazily in a second engine → drop.
func TestRootedLifecycle(t *testing.T) {
	root := t.TempDir()
	defaults := Spec{Metric: "euclidean", M: 8, Seed: 1, BucketWidth: 4}
	e, err := New(root, defaults, nil)
	if err != nil {
		t.Fatal(err)
	}

	a := mustCreate(t, e, "tenant-a", Spec{})
	b := mustCreate(t, e, "tenant-b", Spec{Metric: "angular", M: 16})
	if a.Spec().Metric != "euclidean" || b.Spec().Metric != "angular" {
		t.Fatalf("specs: a=%q b=%q", a.Spec().Metric, b.Spec().Metric)
	}
	if b.Spec().Seed != 1 {
		t.Fatalf("defaults not merged: seed=%d", b.Spec().Seed)
	}
	if _, err := e.Create("tenant-a", Spec{}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	for _, bad := range []string{"", "a/b", "..", "-lead", "x y", "."} {
		if _, err := e.Create(bad, Spec{}); !errors.Is(err, ErrBadName) {
			t.Fatalf("Create(%q): %v, want ErrBadName", bad, err)
		}
	}

	// Write through the durable path; both collections are independent.
	for i := 0; i < 10; i++ {
		if _, err := a.Dynamic().AddWithAttrs([]float32{float32(i), 1}, lccs.Attrs{"i": lccs.IntAttr(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Dynamic().Add([]float32{1, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if a.Backend().Len() != 10 || b.Backend().Len() != 1 {
		t.Fatalf("lens: a=%d b=%d", a.Backend().Len(), b.Backend().Len())
	}

	if got := e.List(); !reflect.DeepEqual(got, []string{"default", "tenant-a", "tenant-b"}) {
		t.Fatalf("List = %v", got)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Get("tenant-a"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close: %v", err)
	}

	// A fresh engine sees both collections on disk and opens lazily.
	e2, err := New(root, defaults, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := e2.List(); len(got) != 3 {
		t.Fatalf("restart List = %v", got)
	}
	a2, err := e2.Get("tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	if a2.Backend().Len() != 10 {
		t.Fatalf("recovered len = %d, want 10", a2.Backend().Len())
	}
	if attrs := a2.Dynamic().Attrs(3); !attrs.Equal(lccs.Attrs{"i": lccs.IntAttr(3)}) {
		t.Fatalf("recovered attrs = %v", attrs)
	}
	if _, err := e2.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing: %v", err)
	}

	// Drop removes the directory; the sibling is untouched.
	if err := e2.Drop("tenant-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "collections", "tenant-a")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("dropped dir still exists: %v", err)
	}
	if got := e2.List(); !reflect.DeepEqual(got, []string{"default", "tenant-b"}) {
		t.Fatalf("post-drop List = %v", got)
	}
	b2, err := e2.Get("tenant-b")
	if err != nil || b2.Backend().Len() != 1 {
		t.Fatalf("sibling after drop: %v len=%d", err, b2.Backend().Len())
	}
	// Dropping a never-opened on-disk collection also works.
	if err := e2.Drop("tenant-b"); err != nil {
		t.Fatal(err)
	}
	if err := e2.Drop("tenant-b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double drop: %v", err)
	}
}

// TestSpecProbesKeyReopens is the shim for collections created while the
// spec carried a key it no longer has: a COLLECTION.json holding
// "probes": 33, the multi-probe count, or "quantize": "sq8" with
// "rerank": 24, the quantized scan, reopens as the exact single-probe index
// over the same state, with the answers the same state gives without the
// keys.
func TestSpecProbesKeyReopens(t *testing.T) {
	root := t.TempDir()
	defaults := Spec{Metric: "euclidean", M: 8, Seed: 1, BucketWidth: 4}
	e, err := New(root, defaults, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := mustCreate(t, e, "mp", Spec{})
	g := rng.New(5)
	rows := make([][]float32, 200)
	for i := range rows {
		rows[i] = g.GaussianVector(4)
	}
	if _, err := c.Dynamic().AddBatch(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Dynamic().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// reopen opens the collection in a fresh engine and returns its answers
	// to fixed queries, served by the checkpoint's CSA.
	reopen := func() [][]lccs.Neighbor {
		e, err := New(root, defaults, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		c, err := e.Get("mp")
		if err != nil {
			t.Fatalf("reopening: %v", err)
		}
		var out [][]lccs.Neighbor
		for i := 0; i < 10; i++ {
			res, err := c.Backend().Search(rows[i*17], 5)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	want := reopen()

	path := filepath.Join(root, "collections", "mp", specFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, keys := range []map[string]any{
		{"probes": 33},
		{"quantize": "sq8", "rerank": 24},
	} {
		var spec map[string]any
		if err := json.Unmarshal(raw, &spec); err != nil {
			t.Fatal(err)
		}
		for k, v := range keys {
			spec[k] = v
		}
		edited, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, edited, 0o644); err != nil {
			t.Fatal(err)
		}
		if got := reopen(); !reflect.DeepEqual(got, want) {
			t.Fatalf("answers with %v in the spec:\n%v\nwant\n%v", keys, got, want)
		}
	}
}

// TestRootlessEngine: an engine without a data directory creates
// nothing — it holds only the backends an embedder adopts, and those
// cannot be dropped.
func TestRootlessEngine(t *testing.T) {
	e, err := New("", Spec{Metric: "euclidean", M: 8, Seed: 1, BucketWidth: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if _, err := e.Create("mem", Spec{}); !errors.Is(err, ErrNoRoot) {
		t.Fatalf("rootless create: %v, want ErrNoRoot", err)
	}
	if got := e.List(); len(got) != 0 {
		t.Fatalf("List after a refused create = %v", got)
	}
	if _, err := e.Get("mem"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after a refused create: %v", err)
	}

	// Adopt a pre-built read-only backend as the default collection.
	sx, err := lccs.NewIndex([][]float32{{1, 2}, {3, 4}},
		lccs.Config{Metric: lccs.Euclidean, M: 8, Seed: 2, BucketWidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Adopt(DefaultCollection, sx)
	if err != nil {
		t.Fatal(err)
	}
	if d.Dynamic() != nil || d.Backend() != lccs.Searcher(sx) {
		t.Fatalf("adopted state: %+v", d)
	}
	if err := e.Drop(DefaultCollection); !errors.Is(err, ErrPinned) {
		t.Fatalf("dropping adopted: %v", err)
	}
	if _, err := e.Get(DefaultCollection); err != nil {
		t.Fatal(err)
	}
}

// TestAdoptDynamic: an adopted DynamicIndex is its collection's writable
// index, and the registry's Close leaves it to its owner — a journaled
// one keeps taking durable writes after the engine closed.
func TestAdoptDynamic(t *testing.T) {
	e, err := New("", Spec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := lccs.OpenDurable(t.TempDir(), lccs.DurableConfig{
		Config: lccs.Config{Metric: lccs.Euclidean, M: 8, Seed: 2, BucketWidth: 4}, Sync: lccs.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer dyn.Close()
	c, err := e.Adopt(DefaultCollection, dyn)
	if err != nil {
		t.Fatal(err)
	}
	if c.Dynamic() != dyn {
		t.Fatalf("adopted DynamicIndex: Dynamic() = %p, want %p", c.Dynamic(), dyn)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := dyn.Add([]float32{1, 2}); err != nil {
		t.Fatalf("write after the engine closed: %v (Close closed an adopted index)", err)
	}
}

// TestDefaultCollectionAtRoot: a rooted engine opens its root as the
// durable default collection with the engine's defaults as its spec. It
// cannot be dropped — every file under the root survives the attempt —
// or created again, and a second engine over the root recovers it.
func TestDefaultCollectionAtRoot(t *testing.T) {
	root := t.TempDir()
	defaults := Spec{Metric: "euclidean", M: 8, Seed: 1, BucketWidth: 4, Sync: "none"}
	e, err := New(root, defaults, nil)
	if err != nil {
		t.Fatal(err)
	}
	def, err := e.Get(DefaultCollection)
	if err != nil {
		t.Fatal(err)
	}
	if def.Dynamic() == nil || def.Dynamic().Dir() != root || def.Spec() != defaults {
		t.Fatalf("default collection: durable %v, spec %+v", def.Dynamic(), def.Spec())
	}
	if _, err := def.Dynamic().AddBatch([][]float32{{1, 2}, {3, 4}, {5, 6}}); err != nil {
		t.Fatal(err)
	}
	if _, err := def.Dynamic().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := def.Dynamic().Add([]float32{7, 8}); err != nil {
		t.Fatal(err)
	}
	mustCreate(t, e, "tenant", Spec{})
	files := func() []string {
		var out []string
		err := filepath.WalkDir(root, func(path string, _ os.DirEntry, err error) error {
			out = append(out, path)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	before := files()

	if err := e.Drop(DefaultCollection); !errors.Is(err, ErrPinned) {
		t.Fatalf("Drop(default): %v, want ErrPinned", err)
	}
	if after := files(); !reflect.DeepEqual(after, before) {
		t.Fatalf("files under the root after Drop(default):\n%v\nwant\n%v", after, before)
	}
	if _, err := e.Create(DefaultCollection, Spec{}); !errors.Is(err, ErrExists) {
		t.Fatalf("Create(default): %v, want ErrExists", err)
	}
	if _, err := e.Create("other", Spec{Metric: "bogus"}); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("bad metric: %v", err)
	}
	if got := e.List(); !reflect.DeepEqual(got, []string{"default", "tenant"}) {
		t.Fatalf("List = %v", got)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := New(root, defaults, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	def2, err := e2.Get(DefaultCollection)
	if err != nil {
		t.Fatal(err)
	}
	if n := def2.Backend().Len(); n != 4 {
		t.Fatalf("recovered default holds %d vectors, want 4", n)
	}
}

// TestCreateFailsOnSpecSyncFault: a create is acknowledged only once its
// COLLECTION.json is on disk. An injected failure of the spec file's
// fsync, of its rename, or of a directory fsync fails the create and
// leaves no collection behind, and a retry without the fault succeeds.
func TestCreateFailsOnSpecSyncFault(t *testing.T) {
	for _, op := range []faultfs.Op{faultfs.OpSync, faultfs.OpRename, faultfs.OpSyncDir} {
		t.Run(op.String(), func(t *testing.T) {
			root := t.TempDir()
			e, err := New(root, Spec{Metric: "euclidean", M: 8, Seed: 1, BucketWidth: 4, Sync: "none"}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			inj := faultfs.NewInjected(faultfs.OS{})
			e.fs = inj
			path := specFile
			if op == faultfs.OpSyncDir {
				path = "collections"
			}
			inj.Inject(&faultfs.Fault{Op: op, Path: path, Once: true})
			if _, err := e.Create("tenant", Spec{}); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("Create with a failing %s: %v, want the injected fault", op, err)
			}
			if got := e.List(); !reflect.DeepEqual(got, []string{"default"}) {
				t.Fatalf("List after the failed create = %v", got)
			}
			if _, err := e.Get("tenant"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get after the failed create: %v", err)
			}
			if _, err := os.Stat(filepath.Join(root, "collections", "tenant")); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("the failed create left its directory: %v", err)
			}
			mustCreate(t, e, "tenant", Spec{})
		})
	}
}

// FuzzCollectionSpecFile: whatever bytes a created collection's
// COLLECTION.json holds, Engine.Get either opens the collection or
// answers an error wrapping ErrInvalidSpec; it never panics. A spec it
// opens is in bounds: no field negative, m at most maxSpecM, the sync
// interval a time.Duration. Every input meets the same empty registry:
// an opened collection is dropped again. testdata/fuzz pins the specs
// that once opened: negative rebuild_at, segment_bytes and
// sync_interval_ms, an overflowing sync interval, and m = 10⁹.
func FuzzCollectionSpecFile(f *testing.F) {
	root := f.TempDir()
	e, err := New(root, Spec{Metric: "euclidean", M: 8, Seed: 7, Sync: "none"}, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { e.Close() })
	dir := filepath.Join(root, "collections", "x")
	for _, spec := range []string{
		`{}`,
		`{"metric":"angular","m":16,"budget":50,"seed":3}`,
		`{"metric":"hamming","rebuild_at":8,"sync":"interval","sync_interval_ms":5,"segment_bytes":4096}`,
		`{"metric":"euclidean","bucket_width":0.5,"probes":4,"quantize":"sq8","rerank":24}`,
		`{"metric":"cosine"}`,
		`{"m":-1}`,
		`{"budget":-3}`,
		`{"bucket_width":-1}`,
		`{"sync":"sometimes"}`,
		`{"m":1e30}`,
		`{"seed":-1}`,
		`null`,
		`[]`,
		`{"m":`,
		``,
	} {
		f.Add([]byte(spec))
	}
	f.Fuzz(func(t *testing.T, spec []byte) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(dir)
		if err := os.WriteFile(filepath.Join(dir, specFile), spec, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := e.Get("x")
		if err != nil {
			if !errors.Is(err, ErrInvalidSpec) {
				t.Fatalf("spec %q: %v, want an error wrapping ErrInvalidSpec", spec, err)
			}
			return
		}
		defer func() {
			if err := e.Drop("x"); err != nil {
				t.Fatal(err)
			}
		}()
		s := c.Spec()
		if s.M < 0 || s.M > maxSpecM || s.Budget < 0 || s.BucketWidth < 0 || s.RebuildAt < 0 ||
			s.SegmentBytes < 0 || s.SyncIntervalMS < 0 || int64(s.SyncIntervalMS) > maxSyncIntervalMS {
			t.Fatalf("spec %q opened as %+v", spec, s)
		}
	})
}
