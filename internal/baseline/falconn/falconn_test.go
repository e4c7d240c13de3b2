package falconn

import (
	"testing"

	"lccs/internal/lshfamily"
	"lccs/internal/rng"
	"lccs/internal/vec"
)

func unitData(seed uint64, n, d int) [][]float32 {
	g := rng.New(seed)
	data := make([][]float32, n)
	for i := range data {
		data[i] = vec.Normalize(g.GaussianVector(d))
	}
	return data
}

func TestRequiresAngularFamily(t *testing.T) {
	data := unitData(1, 50, 16)
	if _, err := Build(data, lshfamily.NewRandomProjection(16, 4), Params{K: 1, L: 1, Probes: 1}); err == nil {
		t.Fatal("euclidean family should be rejected")
	}
	if _, err := Build(data, lshfamily.NewCrossPolytope(16), Params{K: 2, L: 2, Probes: 2}); err != nil {
		t.Fatalf("cross-polytope (angular) should be accepted: %v", err)
	}
}

func TestSelfQueryAndName(t *testing.T) {
	data := unitData(2, 300, 32)
	ix, err := Build(data, lshfamily.NewCrossPolytope(32), Params{K: 1, L: 6, Probes: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Name() != "FALCONN" {
		t.Fatal("name")
	}
	for id := 0; id < 300; id += 67 {
		res := ix.Search(data[id], 1)
		if len(res) == 0 || res[0].Dist > 1e-6 {
			t.Fatalf("id %d: %+v", id, res)
		}
	}
}

func TestMultiprobeExpandsCoverage(t *testing.T) {
	data := unitData(3, 600, 32)
	fam := lshfamily.NewCrossPolytope(32)
	one, err := Build(data, fam, Params{K: 2, L: 2, Probes: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Build(data, fam, Params{K: 2, L: 2, Probes: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var cOne, cMany int
	for i := 0; i < 10; i++ {
		_, s1 := one.SearchWithStats(data[i*59], 5)
		_, s2 := many.SearchWithStats(data[i*59], 5)
		cOne += s1.Candidates
		cMany += s2.Candidates
	}
	if cMany < cOne {
		t.Fatalf("multiprobe saw fewer candidates: %d < %d", cMany, cOne)
	}
}
