package pqueue

// Tournament is a loser tree over S ascending-ordered Neighbor streams,
// used to merge per-shard top-k lists into a global top-k. Compared to a
// binary heap, a winner replay after Pop touches exactly ⌈log2 S⌉ internal
// nodes with no sift branching, which is the classic choice for k-way
// merges of short sorted runs.
//
// Streams are ordered by (Dist, ID): the id tie-break makes merges
// deterministic when equal distances occur in different shards.
type Tournament struct {
	lists  [][]Neighbor // the input runs, ascending (Dist, ID)
	pos    []int        // cursor into each run
	loser  []int32      // internal nodes: loser stream index; loser[0] is the winner
	winner []int32      // scratch for (re)initialisation, kept for reuse
	size   int          // number of leaves (power of two ≥ len(lists))
}

// zeroed resizes s to n zeroed entries, reusing its capacity.
func zeroed[T int | int32](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// exhausted reports whether stream s has no remaining element.
func (t *Tournament) exhausted(s int) bool {
	return s >= len(t.lists) || t.pos[s] >= len(t.lists[s])
}

// worse reports whether stream a's head loses against stream b's head
// (exhausted streams lose against everything; ties broken by ID, then by
// stream index for two exhausted streams).
func (t *Tournament) worse(a, b int) bool {
	ea, eb := t.exhausted(a), t.exhausted(b)
	if ea || eb {
		return ea && !eb || (ea && eb && a > b)
	}
	na, nb := t.lists[a][t.pos[a]], t.lists[b][t.pos[b]]
	if na.Dist != nb.Dist {
		return na.Dist > nb.Dist
	}
	return na.ID > nb.ID
}

// NewTournament builds a loser tree over the given runs. Each run must be
// sorted ascending by (Dist, ID); runs may be empty or nil.
func NewTournament(lists [][]Neighbor) *Tournament {
	t := &Tournament{}
	t.Reset(lists)
	return t
}

// Reset re-arms the tree over a fresh set of runs, reusing the internal
// buffers — the pooled-context path for repeated shard-merge queries.
// The previous runs are released.
func (t *Tournament) Reset(lists [][]Neighbor) {
	size := 1
	for size < len(lists) {
		size *= 2
	}
	t.lists = lists
	t.size = size
	t.pos = zeroed(t.pos, len(lists))
	t.loser = zeroed(t.loser, size)
	// Initialise bottom-up: play every leaf pair, propagate winners.
	t.winner = zeroed(t.winner, 2*size)
	winner := t.winner
	for i := 0; i < size; i++ {
		winner[size+i] = int32(i)
	}
	for i := size - 1; i >= 1; i-- {
		a, b := winner[2*i], winner[2*i+1]
		if t.worse(int(a), int(b)) {
			t.loser[i], winner[i] = a, b
		} else {
			t.loser[i], winner[i] = b, a
		}
	}
	t.loser[0] = winner[1]
}

// Pop removes and returns the smallest remaining element across all runs.
// ok is false when every run is exhausted.
func (t *Tournament) Pop() (Neighbor, bool) {
	w := int(t.loser[0])
	if t.exhausted(w) {
		return Neighbor{}, false
	}
	nb := t.lists[w][t.pos[w]]
	t.pos[w]++
	// Replay the winner's path to the root against stored losers.
	for node := (t.size + w) / 2; node >= 1; node /= 2 {
		if t.worse(w, int(t.loser[node])) {
			w, t.loser[node] = int(t.loser[node]), int32(w)
		}
	}
	t.loser[0] = int32(w)
	return nb, true
}

// AppendTopK pops up to k elements off the tree into dst, ascending,
// and returns the extended slice. Nothing is allocated when dst has
// capacity.
func (t *Tournament) AppendTopK(k int, dst []Neighbor) []Neighbor {
	for i := 0; i < k; i++ {
		nb, ok := t.Pop()
		if !ok {
			break
		}
		dst = append(dst, nb)
	}
	return dst
}

// MergeTopK merges ascending (Dist, ID) runs and returns the k smallest
// elements overall, ascending. k ≤ 0 returns nil.
func MergeTopK(lists [][]Neighbor, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	out := NewTournament(lists).AppendTopK(k, make([]Neighbor, 0, k))
	if len(out) == 0 {
		return nil
	}
	return out
}
