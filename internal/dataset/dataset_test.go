package dataset

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"lccs/internal/pqueue"
	"lccs/internal/vec"
)

func TestGenerateBasics(t *testing.T) {
	spec, err := Preset("sift", 500, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Data) != 500 || len(ds.Queries) != 20 || ds.Dim != 128 {
		t.Fatalf("shape wrong: %d/%d/%d", len(ds.Data), len(ds.Queries), ds.Dim)
	}
	if ds.SizeBytes() != 500*128*4 {
		t.Fatalf("SizeBytes = %d", ds.SizeBytes())
	}
	st := ds.TableStats()
	if st.Name != "sift" || st.Kind != "Image" || st.Objects != 500 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec, _ := Preset("glove", 100, 5, 42)
	a, _ := Generate(spec)
	b, _ := Generate(spec)
	for i := range a.Data {
		if !vec.Equal(a.Data[i], b.Data[i]) {
			t.Fatal("same seed produced different data")
		}
	}
	spec.Seed = 43
	c, _ := Generate(spec)
	if vec.Equal(a.Data[0], c.Data[0]) {
		t.Fatal("different seed produced identical data")
	}
}

func TestValueProfiles(t *testing.T) {
	// Sift analogue: non-negative integers.
	spec, _ := Preset("sift", 200, 5, 2)
	ds, _ := Generate(spec)
	for _, v := range ds.Data {
		for _, x := range v {
			if x < 0 || x != float32(int32(x)) {
				t.Fatalf("sift value %v not a non-negative integer", x)
			}
		}
	}
	// GloVe analogue: unit norm.
	spec, _ = Preset("glove", 200, 5, 2)
	ds, _ = Generate(spec)
	for _, v := range ds.Data {
		if math.Abs(vec.Norm(v)-1) > 1e-5 {
			t.Fatalf("glove norm %v != 1", vec.Norm(v))
		}
	}
	// Gist analogue: non-negative floats.
	spec, _ = Preset("gist", 50, 2, 2)
	ds, _ = Generate(spec)
	for _, v := range ds.Data {
		for _, x := range v {
			if x < 0 {
				t.Fatalf("gist value %v negative", x)
			}
		}
	}
}

func TestAllPresetsGenerate(t *testing.T) {
	wantDims := map[string]int{"msong": 420, "sift": 128, "gist": 960, "glove": 100, "deep": 256}
	for _, name := range PresetNames() {
		spec, err := Preset(name, 100, 10, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ds, err := Generate(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ds.Dim != wantDims[name] {
			t.Fatalf("%s: dim %d, want %d", name, ds.Dim, wantDims[name])
		}
	}
	if _, err := Preset("imagenet", 10, 1, 1); err == nil {
		t.Fatal("unknown preset should fail")
	}
}

func TestClusteredStructure(t *testing.T) {
	// The mixture must produce near/far structure: a query's 10-NN
	// distance must be clearly below the median random distance.
	spec, _ := Preset("deep", 2000, 20, 4)
	ds, _ := Generate(spec)
	p := ds.Profile(vec.Euclidean, 10)
	if p.NearMedian >= p.FarMedian {
		t.Fatalf("no near/far separation: near %v far %v", p.NearMedian, p.FarMedian)
	}
}

func TestNormalizedCopy(t *testing.T) {
	spec, _ := Preset("msong", 50, 5, 5)
	ds, _ := Generate(spec)
	nc := ds.NormalizedCopy()
	for _, v := range nc.Data {
		if math.Abs(vec.Norm(v)-1) > 1e-5 {
			t.Fatal("normalized copy not unit norm")
		}
	}
	// Original untouched.
	if math.Abs(vec.Norm(ds.Data[0])-1) < 1e-3 {
		t.Fatal("original mutated (or suspiciously unit norm)")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []Spec{
		{Dim: 0, N: 1, Clusters: 1, Scale: 1, Spread: 1},
		{Dim: 2, N: 0, Clusters: 1, Scale: 1, Spread: 1},
		{Dim: 2, N: 1, Clusters: 0, Scale: 1, Spread: 1},
		{Dim: 2, N: 1, Clusters: 1, Scale: 0, Spread: 1},
		{Dim: 2, N: 1, Clusters: 1, Scale: 1, Spread: 0},
		{Dim: 2, N: 1, Clusters: 1, Scale: 1, Spread: 1, NoiseFrac: 1.5},
	}
	for i, s := range bad {
		if _, err := Generate(s); err == nil {
			t.Errorf("spec %d should fail", i)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec, _ := Preset("glove", 80, 8, 6)
	ds, _ := Generate(spec)
	path := filepath.Join(dir, "glove.ds")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != ds.Name || got.Kind != ds.Kind || got.Dim != ds.Dim {
		t.Fatalf("metadata mismatch: %+v", got.TableStats())
	}
	if len(got.Data) != len(ds.Data) || len(got.Queries) != len(ds.Queries) {
		t.Fatal("shape mismatch")
	}
	for i := range ds.Data {
		if !vec.Equal(got.Data[i], ds.Data[i]) {
			t.Fatalf("data row %d differs", i)
		}
	}
	for i := range ds.Queries {
		if !vec.Equal(got.Queries[i], ds.Queries[i]) {
			t.Fatalf("query row %d differs", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.ds")
	if err := writeFile(path, []byte("not a dataset file at all")); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("garbage should not load")
	}
	if _, err := Load(filepath.Join(dir, "missing.ds")); err == nil {
		t.Fatal("missing file should not load")
	}
}

func TestGroundTruthRoundTrip(t *testing.T) {
	dir := t.TempDir()
	gt := &GroundTruth{
		K: 2,
		Neighbors: [][]pqueue.Neighbor{
			{{ID: 3, Dist: 0.5}, {ID: 7, Dist: 1.25}},
			{{ID: 1, Dist: 0.0}, {ID: 2, Dist: 9.75}},
		},
	}
	path := filepath.Join(dir, "truth.gt")
	if err := gt.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTruth(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != 2 || len(got.Neighbors) != 2 {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range gt.Neighbors {
		for j := range gt.Neighbors[i] {
			if got.Neighbors[i][j] != gt.Neighbors[i][j] {
				t.Fatalf("entry %d/%d differs", i, j)
			}
		}
	}
	// Ragged rows must be rejected at save time.
	bad := &GroundTruth{K: 2, Neighbors: [][]pqueue.Neighbor{{{ID: 1}}}}
	if err := bad.Save(filepath.Join(dir, "bad.gt")); err == nil {
		t.Fatal("ragged truth should fail to save")
	}
	if _, err := LoadTruth(filepath.Join(dir, "missing.gt")); err == nil {
		t.Fatal("missing truth should fail")
	}
}

func writeFile(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}

// TestEncodeBlocksMatchesFlat pins that a dataset streamed from several
// blocks is byte for byte the file NewFlat saves over their concatenation.
func TestEncodeBlocksMatchesFlat(t *testing.T) {
	rows := make([][]float32, 700)
	for i := range rows {
		rows[i] = []float32{float32(i), float32(-i), float32(i) / 7}
	}
	flat, err := vec.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	ref := filepath.Join(t.TempDir(), "ref.ds")
	if err := NewFlat("durable", "snapshot", flat, nil).Save(ref); err != nil {
		t.Fatal(err)
	}
	blocks := []*vec.Store{flat.Slice(0, 100), flat.Copy(100, 100), flat.Copy(100, 650), flat.Slice(650, 700)}
	var got bytes.Buffer
	if err := EncodeBlocks(&got, "durable", "snapshot", blocks); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("streamed dataset (%d bytes) differs from the flat one (%d bytes)", got.Len(), len(want))
	}
	ds, err := Decode(&got)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Dim != 3 || len(ds.Data) != len(rows) || !vec.Equal(ds.Data[699], rows[699]) {
		t.Fatalf("reloaded %d×%d, last row %v", len(ds.Data), ds.Dim, ds.Data[len(ds.Data)-1])
	}
}
