package eval

import (
	"math"
	"testing"
	"time"

	"lccs/internal/pqueue"
)

func nb(pairs ...float64) []pqueue.Neighbor {
	out := make([]pqueue.Neighbor, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, pqueue.Neighbor{ID: int(pairs[i]), Dist: pairs[i+1]})
	}
	return out
}

func TestRecall(t *testing.T) {
	want := nb(1, 0.1, 2, 0.2, 3, 0.3, 4, 0.4)
	if got := Recall(nb(1, 0.1, 3, 0.3), want); got != 0.5 {
		t.Errorf("Recall = %v, want 0.5", got)
	}
	if got := Recall(want, want); got != 1 {
		t.Errorf("perfect recall = %v", got)
	}
	if got := Recall(nil, want); got != 0 {
		t.Errorf("empty recall = %v", got)
	}
	if got := Recall(nb(9, 1), nil); got != 0 {
		t.Errorf("empty truth recall = %v", got)
	}
	// Order does not matter, only membership.
	if got := Recall(nb(4, 0.4, 1, 0.1), want); got != 0.5 {
		t.Errorf("unordered recall = %v", got)
	}
}

func TestRatio(t *testing.T) {
	want := nb(1, 1.0, 2, 2.0)
	if got := Ratio(nb(1, 1.0, 2, 2.0), want); got != 1 {
		t.Errorf("exact ratio = %v", got)
	}
	if got := Ratio(nb(5, 2.0, 6, 2.0), want); got != 1.5 {
		t.Errorf("ratio = %v, want (2/1 + 2/2)/2 = 1.5", got)
	}
	if got := Ratio(nil, want); !math.IsInf(got, 1) {
		t.Errorf("empty result ratio = %v, want +Inf", got)
	}
	// Short results pad with the worst observed ratio: (3/1 + 3) / 2.
	if got := Ratio(nb(5, 3.0), want); got != 3 {
		t.Errorf("short ratio = %v, want 3", got)
	}
	// Zero true distance handled without dividing by zero.
	wantZero := nb(1, 0.0, 2, 1.0)
	got := Ratio(nb(9, 0.5, 2, 1.0), wantZero)
	if math.IsInf(got, 1) || math.IsNaN(got) {
		t.Errorf("zero-distance ratio = %v", got)
	}
	if got := Ratio(nb(1, 0.0, 2, 1.0), wantZero); got != 1 {
		t.Errorf("exact zero-distance ratio = %v", got)
	}
}

func mkRunner(name string, recallDist float64) *Runner {
	return &Runner{
		MethodName: name,
		ConfigDesc: "cfg",
		IndexBytes: 1024,
		IndexTime:  5 * time.Millisecond,
		SearchFunc: func(q []float32, k int) []pqueue.Neighbor {
			return nb(1, recallDist)
		},
	}
}

func TestEvaluateAggregates(t *testing.T) {
	queries := [][]float32{{0}, {1}}
	truth := [][]pqueue.Neighbor{nb(1, 1.0), nb(2, 1.0)}
	r := Evaluate(mkRunner("M", 1.0), queries, truth, 1)
	if r.Method != "M" || r.Config != "cfg" || r.K != 1 {
		t.Fatalf("metadata: %+v", r)
	}
	if r.Recall != 0.5 {
		t.Errorf("Recall = %v, want 0.5 (one query hits, one misses)", r.Recall)
	}
	if r.IndexBytes != 1024 || r.IndexTimeMS != 5 {
		t.Errorf("index accounting: %+v", r)
	}
	if r.QueryTimeMS < 0 {
		t.Errorf("negative time")
	}
	if r.String() == "" {
		t.Error("String empty")
	}
}

func TestEvaluatePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Evaluate(mkRunner("M", 1), [][]float32{{0}}, nil, 1)
}

func res(recall, qtime float64, size int64) Result {
	return Result{Recall: recall, QueryTimeMS: qtime, IndexBytes: size}
}

func TestParetoFrontier(t *testing.T) {
	in := []Result{
		res(0.5, 10, 0),
		res(0.6, 5, 0), // dominates the previous point
		res(0.7, 20, 0),
		res(0.9, 50, 0),
		res(0.8, 60, 0), // dominated by 0.9@50
	}
	out := ParetoFrontier(in)
	wantRecalls := []float64{0.6, 0.7, 0.9}
	if len(out) != len(wantRecalls) {
		t.Fatalf("frontier size %d, want %d: %+v", len(out), len(wantRecalls), out)
	}
	for i, w := range wantRecalls {
		if out[i].Recall != w {
			t.Errorf("frontier[%d].Recall = %v, want %v", i, out[i].Recall, w)
		}
	}
	// Frontier must be ascending in both recall and time.
	for i := 1; i < len(out); i++ {
		if out[i].Recall < out[i-1].Recall || out[i].QueryTimeMS < out[i-1].QueryTimeMS {
			t.Fatal("frontier not monotone")
		}
	}
	if got := ParetoFrontier(nil); len(got) != 0 {
		t.Error("empty frontier should be empty")
	}
}

func TestBestAtRecall(t *testing.T) {
	in := []Result{
		res(0.4, 1, 0),
		res(0.55, 8, 0),
		res(0.60, 4, 0),
		res(0.95, 40, 0),
	}
	r, ok := BestAtRecall(in, 0.5)
	if !ok || r.QueryTimeMS != 4 {
		t.Fatalf("BestAtRecall = %+v, %v", r, ok)
	}
	if _, ok := BestAtRecall(in, 0.99); ok {
		t.Fatal("unreachable recall should report !ok")
	}
}

func TestBestAtRecallBySize(t *testing.T) {
	in := []Result{
		res(0.6, 10, 100),
		res(0.7, 6, 100), // better at same size
		res(0.3, 1, 200), // below recall floor
		res(0.8, 3, 400),
	}
	out := BestAtRecallBySize(in, 0.5)
	if len(out) != 2 {
		t.Fatalf("series length %d: %+v", len(out), out)
	}
	if out[0].IndexBytes != 100 || out[0].QueryTimeMS != 6 {
		t.Errorf("first point: %+v", out[0])
	}
	if out[1].IndexBytes != 400 {
		t.Errorf("second point: %+v", out[1])
	}
}
