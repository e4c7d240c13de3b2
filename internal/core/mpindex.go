package core

import (
	"errors"
	"fmt"

	"lccs/internal/lshfamily"
)

// MPParams configures an MP-LCCS-LSH index (§4.2).
type MPParams struct {
	Params
	// Probes is the number of probing sequences per query, including
	// the unperturbed one. The paper evaluates
	// #probes ∈ {1, m+1, 2m+1, 4m+1, 8m+1}; Probes = 1 degenerates to
	// single-probe LCCS-LSH.
	Probes int
	// MaxGap bounds the gap between adjacent modified positions in a
	// perturbation vector. The paper sets MAX_GAP = 2 in practice;
	// 0 selects that default.
	MaxGap int
	// MaxAlt bounds the per-position alternative list length. 0 selects
	// a default of 16 (ample: a position is rarely re-perturbed more
	// than a few times before the score outgrows other positions).
	MaxAlt int
}

// DefaultMaxGap is the paper's practical MAX_GAP setting.
const DefaultMaxGap = 2

const defaultMaxAlt = 16

// Validate reports whether the parameters are usable.
func (p MPParams) Validate() error {
	if err := p.Params.Validate(); err != nil {
		return err
	}
	if p.Probes <= 0 {
		return fmt.Errorf("core: Probes must be positive, got %d", p.Probes)
	}
	if p.MaxGap < 0 || p.MaxAlt < 0 {
		return errors.New("core: MaxGap and MaxAlt must be non-negative")
	}
	return nil
}

// MPIndex is a multi-probe LCCS-LSH index: the base index plus the probe
// state — the probing hooks of the LSH functions and the Algorithm 3
// limits — that the base index's one search path begins its scan with.
// It is safe for concurrent queries; its per-query scratch rides in the
// base index's pooled searchCtx.
type MPIndex struct {
	*Index
	pfuncs []lshfamily.ProbeFunc
	probes int
	maxGap int
	maxAlt int
}

// BuildMP constructs an MP-LCCS-LSH index over row-slice data. The
// family's hash functions must implement lshfamily.ProbeFunc.
func BuildMP(data [][]float32, family lshfamily.Family, p MPParams) (*MPIndex, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	base, err := Build(data, family, p.Params)
	if err != nil {
		return nil, err
	}
	return WrapMP(base, p)
}

// WrapMP turns an existing single-probe index into a multi-probe one
// (used both by BuildMP and when loading a serialized index): the probe
// state is installed on base, so base itself searches multi-probe from
// then on. The base index's hash functions must implement
// lshfamily.ProbeFunc.
func WrapMP(base *Index, p MPParams) (*MPIndex, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if base.m != p.M {
		return nil, fmt.Errorf("core: base index has m=%d, params say %d", base.m, p.M)
	}
	pfuncs, ok := lshfamily.ProbeFuncs(base.funcs)
	if !ok {
		return nil, fmt.Errorf("core: family %q does not support multi-probe", base.family.Name())
	}
	mp := &MPIndex{
		Index:  base,
		pfuncs: pfuncs,
		probes: p.Probes,
		maxGap: p.MaxGap,
		maxAlt: p.MaxAlt,
	}
	if mp.maxGap == 0 {
		mp.maxGap = DefaultMaxGap
	}
	if mp.maxAlt == 0 {
		mp.maxAlt = defaultMaxAlt
	}
	base.mp = mp
	return mp, nil
}

// Probes returns the number of probing sequences per query (1 on a
// single-probe index).
func (ix *Index) Probes() int {
	if ix.mp == nil {
		return 1
	}
	return ix.mp.probes
}

// issueProbes issues the Probes−1 perturbed probes of Algorithm 3 into
// the CSA scan the caller has begun over hq = H(q); it returns how many
// it issued.
func (ix *MPIndex) issueProbes(ctx *searchCtx, q []float32, hq []int32) int {
	if ix.probes <= 1 {
		return 0
	}
	maxAlt := ix.maxAlt
	if maxAlt > ix.probes {
		maxAlt = ix.probes
	}
	for i, pf := range ix.pfuncs {
		ctx.alts[i] = pf.Alternatives(q, maxAlt, ctx.alts[i])
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
