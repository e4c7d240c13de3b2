package core

import (
	"lccs/internal/lshfamily"
	"lccs/internal/pqueue"
)

// mod is one modification of a perturbation vector: replace position pos
// of the query's hash string with the alt-th alternative value at that
// position (alt indexes into the position's score-sorted alternative
// list).
type mod struct {
	pos int
	alt int
}

// perturbation is the paper's perturbation vector δ: a list of
// modifications in increasing position order with the inherited score
// (the sum of per-modification scores, as in Multi-Probe LSH).
type perturbation struct {
	score float64
	mods  []mod
}

// pShift implements p_shift(δ): replace the last modification's
// alternative with the next one at the same position (§4.2). ok=false if
// that position's alternative list is exhausted.
func pShift(p perturbation, alts [][]lshfamily.Alternative) (perturbation, bool) {
	last := p.mods[len(p.mods)-1]
	list := alts[last.pos]
	if last.alt+1 >= len(list) {
		return perturbation{}, false
	}
	mods := make([]mod, len(p.mods))
	copy(mods, p.mods)
	mods[len(mods)-1] = mod{pos: last.pos, alt: last.alt + 1}
	score := p.score - list[last.alt].Score + list[last.alt+1].Score
	return perturbation{score: score, mods: mods}, true
}

// pExpand implements p_expand(δ, gap): append a modification at position
// last.pos + gap using that position's first alternative (§4.2). ok=false
// if the position falls outside [0, m) or has no alternatives. Positions
// do not wrap: the perturbation vector is a list over 1..m as in the
// paper.
func pExpand(p perturbation, gap, m int, alts [][]lshfamily.Alternative) (perturbation, bool) {
	last := p.mods[len(p.mods)-1]
	pos := last.pos + gap
	if pos >= m || len(alts[pos]) == 0 {
		return perturbation{}, false
	}
	mods := make([]mod, len(p.mods)+1)
	copy(mods, p.mods)
	mods[len(p.mods)] = mod{pos: pos, alt: 0}
	return perturbation{score: p.score + alts[pos][0].Score, mods: mods}, true
}

// generatePerturbations runs Algorithm 3: it emits up to probes−1
// perturbation vectors in ascending score order, each with adjacent
// modification gaps ≤ maxGap. The empty perturbation ("no perturbation",
// the paper's first ∆ entry) is not emitted — the caller has already
// issued it via the initial LCCS search.
//
// alts[i] is the score-sorted alternative list for position i; positions
// with empty lists are never modified.
func generatePerturbations(alts [][]lshfamily.Alternative, probes, maxGap int) []perturbation {
	m := len(alts)
	want := probes - 1
	if want <= 0 {
		return nil
	}
	out := make([]perturbation, 0, want)
	pq := pqueue.NewWithCapacity[perturbation](m+4*want, func(a, b perturbation) bool {
		return a.score < b.score
	})
	// Seed: the single-modification vector {(i, h_i(q)^{(1)})} for every
	// position (Algorithm 3, lines 3–5).
	for i := 0; i < m; i++ {
		if len(alts[i]) == 0 {
			continue
		}
		pq.Push(perturbation{score: alts[i][0].Score, mods: []mod{{pos: i, alt: 0}}})
	}
	for len(out) < want && pq.Len() > 0 {
		p := pq.Pop()
		out = append(out, p)
		if s, ok := pShift(p, alts); ok {
			pq.Push(s)
		}
		for gap := 1; gap <= maxGap; gap++ {
			if e, ok := pExpand(p, gap, m, alts); ok {
				pq.Push(e)
			}
		}
	}
	return out
}

// issueProbes issues the probes−1 perturbed probes of Algorithm 3 into
// the CSA scan the caller has begun over hq = H(q); it returns how many
// it issued.
func (ix *Index) issueProbes(ctx *searchCtx, q []float32, hq []int32) int {
	alts := min(maxAlt, ix.probes)
	for i, pf := range ix.pfuncs {
		ctx.alts[i] = pf.Alternatives(q, alts, ctx.alts[i])
	}
	perts := generatePerturbations(ctx.alts, ix.probes, ix.maxGap)
	for _, p := range perts {
		copy(ctx.probeStr, hq)
		ctx.modPos = ctx.modPos[:0]
		for _, md := range p.mods {
			ctx.probeStr[md.pos] = ctx.alts[md.pos][md.alt].Value
			ctx.modPos = append(ctx.modPos, md.pos)
		}
		ctx.affected = ctx.s.Probe(ctx.probeStr, ctx.modPos, ctx.affected)
	}
	return len(perts)
}
