package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"lccs/internal/lshfamily"
	"lccs/internal/pqueue"
	"lccs/internal/rng"
	"lccs/internal/vec"
)

func randAlts(r *rand.Rand, m, maxLen int) [][]lshfamily.Alternative {
	alts := make([][]lshfamily.Alternative, m)
	for i := range alts {
		l := r.IntN(maxLen + 1)
		list := make([]lshfamily.Alternative, l)
		s := 0.0
		for j := range list {
			s += r.Float64()
			list[j] = lshfamily.Alternative{Value: int32(100*i + j), Score: s}
		}
		alts[i] = list
	}
	return alts
}

func TestGeneratePerturbationsAscendingScores(t *testing.T) {
	f := func(seed uint64, probesRaw, gapRaw uint8) bool {
		r := rand.New(rand.NewPCG(seed, 3))
		m := 4 + r.IntN(12)
		alts := randAlts(r, m, 4)
		probes := 1 + int(probesRaw%40)
		maxGap := 1 + int(gapRaw%3)
		perts := generatePerturbations(alts, probes, maxGap)
		if len(perts) > probes-1 {
			return false
		}
		for i := 1; i < len(perts); i++ {
			if perts[i].score < perts[i-1].score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratePerturbationsGapConstraint(t *testing.T) {
	f := func(seed uint64, gapRaw uint8) bool {
		r := rand.New(rand.NewPCG(seed, 5))
		m := 6 + r.IntN(10)
		alts := randAlts(r, m, 3)
		maxGap := 1 + int(gapRaw%3)
		perts := generatePerturbations(alts, 50, maxGap)
		for _, p := range perts {
			for j := 1; j < len(p.mods); j++ {
				gap := p.mods[j].pos - p.mods[j-1].pos
				if gap < 1 || gap > maxGap {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratePerturbationsUnique(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 9))
	alts := randAlts(r, 10, 4)
	perts := generatePerturbations(alts, 200, 2)
	seen := map[string]bool{}
	for _, p := range perts {
		key := ""
		for _, md := range p.mods {
			key += string(rune(md.pos)) + ":" + string(rune(md.alt)) + ","
		}
		if seen[key] {
			t.Fatalf("duplicate perturbation %v", p.mods)
		}
		seen[key] = true
	}
}

func TestGeneratePerturbationsScoresAreSums(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 3))
	alts := randAlts(r, 8, 4)
	perts := generatePerturbations(alts, 100, 2)
	for _, p := range perts {
		var want float64
		for _, md := range p.mods {
			want += alts[md.pos][md.alt].Score
		}
		if diff := p.score - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("score %v, want %v for %v", p.score, want, p.mods)
		}
	}
}

func TestGeneratePerturbationsEdgeCases(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 1))
	alts := randAlts(r, 6, 3)
	if got := generatePerturbations(alts, 1, 2); len(got) != 0 {
		t.Error("probes=1 should yield no perturbations")
	}
	if got := generatePerturbations(alts, 0, 2); len(got) != 0 {
		t.Error("probes=0 should yield no perturbations")
	}
	// All-empty alternative lists: nothing to perturb.
	empty := make([][]lshfamily.Alternative, 5)
	if got := generatePerturbations(empty, 10, 2); len(got) != 0 {
		t.Error("no alternatives should yield no perturbations")
	}
	// Exhaustion: tiny alphabet caps the number of vectors.
	one := [][]lshfamily.Alternative{
		{{Value: 1, Score: 0.5}},
		{{Value: 2, Score: 0.7}},
	}
	got := generatePerturbations(one, 100, 2)
	// Possible vectors: {0}, {1}, {0,1} → 3.
	if len(got) != 3 {
		t.Errorf("got %d perturbations, want 3", len(got))
	}
}

func TestGeneratePerturbationsFirstIsGlobalMin(t *testing.T) {
	r := rand.New(rand.NewPCG(17, 2))
	for trial := 0; trial < 30; trial++ {
		alts := randAlts(r, 8, 4)
		perts := generatePerturbations(alts, 2, 2)
		if len(perts) == 0 {
			continue
		}
		best := perts[0].score
		for i, list := range alts {
			if len(list) > 0 && list[0].Score < best-1e-12 {
				t.Fatalf("position %d has cheaper single mod %v < %v", i, list[0].Score, best)
			}
		}
	}
}

// noProbeFamily is a random-projection family whose hash functions do not
// implement lshfamily.ProbeFunc.
type noProbeFamily struct{ lshfamily.Family }

type noProbeFunc struct{ f lshfamily.Func }

func (h noProbeFunc) Hash(v []float32) int32          { return h.f.Hash(v) }
func (f noProbeFamily) New(g *rng.RNG) lshfamily.Func { return noProbeFunc{f.Family.New(g)} }

// probesOf reports the probing sequences one query on ix issues.
func probesOf(ix *Index, q []float32) int {
	var best pqueue.KBest
	best.Reset(1)
	return ix.Open(q, ix.HashQuery(q, nil), 0, nil).Verify(1, &best).Probes
}

func TestBuildMPValidation(t *testing.T) {
	g := rng.New(20)
	data := clusteredData(g, 50, 8, 4, 0.3)
	fam := lshfamily.NewRandomProjection(8, 8)
	if _, err := Build(data, fam, Params{M: 8, Probes: -1}); err == nil {
		t.Error("Probes=-1 should fail")
	}
	if _, err := Build(data, fam, Params{M: 8, Probes: 2, MaxGap: -1}); err == nil {
		t.Error("MaxGap=-1 should fail")
	}
	if _, err := Build(data, fam, Params{M: 0, Probes: 2}); err == nil {
		t.Error("M=0 should fail")
	}
	if _, err := Build(data, noProbeFamily{fam}, Params{M: 8, Probes: 3}); err == nil {
		t.Error("a family without probe functions should fail with Probes=3")
	}
	if _, err := Build(data, noProbeFamily{fam}, Params{M: 8, Probes: 1}); err != nil {
		t.Errorf("a family without probe functions builds single-probe: %v", err)
	}
	mp, err := Build(data, fam, Params{M: 8, Probes: 9})
	if err != nil {
		t.Fatal(err)
	}
	if got := probesOf(mp, data[0]); got != 9 {
		t.Errorf("Probes = %d, want 9", got)
	}
	if mp.maxGap != defaultMaxGap {
		t.Error("default MaxGap not applied")
	}
	for _, probes := range []int{0, 1} {
		ix, err := Build(data, fam, Params{M: 8, Probes: probes})
		if err != nil {
			t.Fatal(err)
		}
		if ix.pfuncs != nil || probesOf(ix, data[0]) != 1 {
			t.Errorf("Probes=%d should build single-probe LCCS-LSH", probes)
		}
	}
}

func TestMPSearchSelfQuery(t *testing.T) {
	g := rng.New(22)
	data := make([][]float32, 300)
	for i := range data {
		data[i] = g.UniformVector(12, -10, 10)
	}
	fam := lshfamily.NewRandomProjection(12, 2)
	mp, err := Build(data, fam, Params{M: 32, Seed: 1, Probes: 17})
	if err != nil {
		t.Fatal(err)
	}
	if !hashStringsDistinct(mp) {
		t.Skip("hash strings collided; self-query rank not guaranteed")
	}
	for id := 0; id < 300; id += 61 {
		res := mp.Search(data[id], 1, 4)
		if len(res) == 0 || res[0].Dist != 0 {
			t.Fatalf("id %d: self-query failed: %+v", id, res)
		}
	}
}

func TestMPSearchStatsProbes(t *testing.T) {
	g := rng.New(24)
	data := clusteredData(g, 200, 8, 4, 0.3)
	fam := lshfamily.NewRandomProjection(8, 8)
	mp, _ := Build(data, fam, Params{M: 16, Seed: 1, Probes: 9})
	var best pqueue.KBest
	best.Reset(5)
	st := mp.Open(data[0], mp.HashQuery(data[0], nil), 0, nil).Verify(20+5-1, &best)
	if st.Probes != 9 {
		t.Errorf("Probes = %d, want 9", st.Probes)
	}
	mp1, _ := Build(data, fam, Params{M: 16, Seed: 1, Probes: 1})
	st1 := mp1.Open(data[0], mp1.HashQuery(data[0], nil), 0, nil).Verify(20+5-1, &best)
	if st1.Probes != 1 {
		t.Errorf("Probes = %d, want 1", st1.Probes)
	}
}

// TestMPImprovesRecallAtSmallM: the headline property of MP-LCCS-LSH —
// with a small index (small m), probing recovers recall that the
// single-probe scheme misses (Figure 10 / §6.4 "Impact of #probes").
func TestMPImprovesRecallAtSmallM(t *testing.T) {
	g := rng.New(26)
	n, d, k := 2000, 16, 10
	data := clusteredData(g, n, d, 15, 0.8)
	fam := lshfamily.NewRandomProjection(d, 14)
	m := 16
	single, err := Build(data, fam, Params{M: m, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Build(data, fam, Params{M: m, Seed: 3, Probes: 4*m + 1})
	if err != nil {
		t.Fatal(err)
	}
	queries := queriesFrom(g, data, 25, 0.4)
	lambda := 30
	var rs, rm float64
	for _, q := range queries {
		want := bruteForceKNN(data, q, k, vec.Euclidean)
		rs += recallOf(single.Search(q, k, lambda), want)
		rm += recallOf(multi.Search(q, k, lambda), want)
	}
	rs /= float64(len(queries))
	rm /= float64(len(queries))
	if rm < rs-0.02 {
		t.Fatalf("multi-probe recall %.3f worse than single-probe %.3f", rm, rs)
	}
}

func TestMPSearchCrossPolytope(t *testing.T) {
	g := rng.New(28)
	n, d := 1000, 32
	data := clusteredData(g, n, d, 10, 0.5)
	for _, v := range data {
		vec.NormalizeInPlace(v)
	}
	fam := lshfamily.NewCrossPolytope(d)
	mp, err := Build(data, fam, Params{M: 32, Seed: 5, Probes: 33})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for i := 0; i < 10; i++ {
		q := data[i*13]
		want := bruteForceKNN(data, q, 5, vec.Angular)
		got := mp.Search(q, 5, 80)
		total += recallOf(got, want)
	}
	if avg := total / 10; avg < 0.6 {
		t.Fatalf("MP cross-polytope recall %.2f too low", avg)
	}
}

func TestMPConcurrentQueries(t *testing.T) {
	g := rng.New(30)
	data := make([][]float32, 300)
	for i := range data {
		data[i] = g.UniformVector(8, -10, 10)
	}
	fam := lshfamily.NewRandomProjection(8, 2)
	mp, _ := Build(data, fam, Params{M: 32, Seed: 4, Probes: 17})
	if !hashStringsDistinct(mp) {
		t.Skip("hash strings collided; self-query rank not guaranteed")
	}
	done := make(chan bool)
	for w := 0; w < 6; w++ {
		go func(w int) {
			for i := 0; i < 30; i++ {
				q := data[(w*30+i)%len(data)]
				res := mp.Search(q, 3, 15)
				if len(res) == 0 || res[0].Dist != 0 {
					t.Errorf("worker %d: self-query failed", w)
					break
				}
			}
			done <- true
		}(w)
	}
	for w := 0; w < 6; w++ {
		<-done
	}
}
