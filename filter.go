package lccs

import (
	"errors"

	"lccs/internal/vec"
)

// Attrs is the optional typed metadata attached to one vector: a small
// key → value map with int64 and string values. A nil Attrs means "no
// metadata"; vectors without metadata cost nothing.
type Attrs = vec.Attrs

// AttrValue is one typed metadata value (int64 or string).
type AttrValue = vec.AttrValue

// IntAttr wraps an int64 as an attribute value.
func IntAttr(v int64) AttrValue { return vec.IntValue(v) }

// StrAttr wraps a string as an attribute value.
func StrAttr(s string) AttrValue { return vec.StrValue(s) }

// Filter is a conjunction (AND) of predicates over vector attributes:
// equality on int64 or string values, and inclusive numeric ranges. A
// nil or empty filter matches every vector. Filters are pushed into the
// candidate-verification loop: candidates failing the predicate are
// discarded before any distance computation and do not consume the
// verification budget, so the CSA stream keeps draining until enough
// matching candidates are verified — with an exhaustive budget the
// result is exactly the brute-force answer over matching live vectors.
type Filter = vec.Filter

// FilterTerm is one predicate of a Filter.
type FilterTerm = vec.FilterTerm

// FilterOp is the comparison a filter term applies.
type FilterOp = vec.FilterOp

// Filter term operators.
const (
	// FilterEq matches rows whose attribute equals the term's value.
	FilterEq = vec.FilterEq
	// FilterRange matches rows whose int64 attribute lies in the
	// inclusive [Min, Max] interval.
	FilterRange = vec.FilterRange
)

// EqInt builds an int64 equality term.
func EqInt(key string, v int64) FilterTerm {
	return FilterTerm{Key: key, Op: FilterEq, Value: vec.IntValue(v)}
}

// EqStr builds a string equality term.
func EqStr(key string, s string) FilterTerm {
	return FilterTerm{Key: key, Op: FilterEq, Value: vec.StrValue(s)}
}

// Range builds an inclusive int64 range term; nil bounds are open.
func Range(key string, min, max *int64) FilterTerm {
	t := FilterTerm{Key: key, Op: FilterRange}
	if min != nil {
		t.Min, t.HasMin = *min, true
	}
	if max != nil {
		t.Max, t.HasMax = *max, true
	}
	return t
}

// ErrInvalidFilter is returned (wrapped) when a filter is malformed.
var ErrInvalidFilter = errors.New("lccs: invalid filter")

// ErrAttrsMismatch is returned when a constructor receives an attribute
// slice whose length does not match the data.
var ErrAttrsMismatch = errors.New("lccs: attrs length does not match vectors")

// NewIndexWithAttrs is NewIndex with per-vector metadata: attrs[i]
// belongs to data[i]. attrs may be shorter than data (missing rows have
// no metadata) but not longer.
func NewIndexWithAttrs(data [][]float32, attrs []Attrs, cfg Config) (*Index, error) {
	if len(attrs) > len(data) {
		return nil, ErrAttrsMismatch
	}
	ix, err := NewIndex(data, cfg)
	if err != nil {
		return nil, err
	}
	if len(attrs) > 0 {
		ix.setAttrs(vec.MetaFromRows(append([]Attrs(nil), attrs...)))
	}
	return ix, nil
}
