package engine

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lccs"
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
		if _, err := a.Durable().AddWithAttrs([]float32{float32(i), 1}, lccs.Attrs{"i": lccs.IntAttr(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Durable().Add([]float32{1, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if a.Backend().Len() != 10 || b.Backend().Len() != 1 {
		t.Fatalf("lens: a=%d b=%d", a.Backend().Len(), b.Backend().Len())
	}

	got := e.List()
	if len(got) != 2 || got[0] != "tenant-a" || got[1] != "tenant-b" {
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
	if got := e2.List(); len(got) != 2 {
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
	if got := e2.List(); len(got) != 1 || got[0] != "tenant-b" {
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
// spec carried a multi-probe count: a COLLECTION.json holding "probes": 33
// reopens, as the single-probe index over the same state, with the
// answers the same state gives without the key.
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
	if _, err := c.Durable().AddBatch(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Durable().Checkpoint(); err != nil {
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
	var spec map[string]any
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	spec["probes"] = 33
	if raw, err = json.Marshal(spec); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := reopen(); !reflect.DeepEqual(got, want) {
		t.Fatalf("answers with \"probes\": 33 in the spec:\n%v\nwant\n%v", got, want)
	}
}

// TestRootlessEngine covers memory-only collections and adoption.
func TestRootlessEngine(t *testing.T) {
	e, err := New("", Spec{Metric: "euclidean", M: 8, Seed: 1, BucketWidth: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	c := mustCreate(t, e, "mem", Spec{})
	if c.Durable() != nil || c.Dynamic() == nil {
		t.Fatal("memory collection should be dynamic, not durable")
	}
	if _, err := c.Dynamic().Add([]float32{1, 2}); err != nil {
		t.Fatal(err)
	}
	if c.Backend().Len() != 1 {
		t.Fatalf("len = %d", c.Backend().Len())
	}
	if err := e.Drop("mem"); err != nil {
		t.Fatal(err)
	}

	// Adopt a pre-built read-only backend as the default collection.
	sx, err := lccs.NewShardedIndex([][]float32{{1, 2}, {3, 4}},
		lccs.Config{Metric: lccs.Euclidean, M: 8, Seed: 2, BucketWidth: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Adopt("default", sx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Adopted() || d.Dynamic() != nil {
		t.Fatalf("adopted state: %+v", d)
	}
	if err := e.Drop("default"); !errors.Is(err, ErrAdopted) {
		t.Fatalf("dropping adopted: %v", err)
	}
	if _, err := e.Get("default"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Create("other", Spec{Metric: "bogus"}); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("bad metric: %v", err)
	}
}
