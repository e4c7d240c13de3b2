package lccs

import "math/bits"

// slotSet is the tombstone set: one bit per store slot, n/8 bytes. The
// zero value is empty and Has answers false past the last word, so the
// set grows only when a slot beyond it is set. It is not synchronized:
// a DynamicIndex mutates its set under the write lock and hands
// snapshots a Clone; an Index never mutates its own. The query
// path probes the words directly, inside each segment's candidate
// stream (core.Index.Open).
type slotSet struct {
	words []uint64
	count int
}

// Has reports whether slot is in the set.
func (s *slotSet) Has(slot int) bool {
	w := uint(slot) >> 6
	return w < uint(len(s.words)) && s.words[w]>>(uint(slot)&63)&1 != 0
}

// Set adds slot, growing the set to cover it.
func (s *slotSet) Set(slot int) {
	if s.Has(slot) {
		return
	}
	for slot>>6 >= len(s.words) {
		s.words = append(s.words, 0)
	}
	s.words[slot>>6] |= 1 << (uint(slot) & 63)
	s.count++
}

// Count returns the number of slots in the set.
func (s *slotSet) Count() int { return s.count }

// CountRange returns the number of set slots in [lo, hi).
func (s *slotSet) CountRange(lo, hi int) int {
	n := 0
	for w := lo >> 6; w < len(s.words) && w<<6 < hi; w++ {
		word := s.words[w]
		if base := w << 6; base < lo {
			word &= ^uint64(0) << uint(lo-base)
		}
		if end := (w + 1) << 6; end > hi {
			word &= ^uint64(0) >> uint(end-hi)
		}
		n += bits.OnesCount64(word)
	}
	return n
}

// Each calls fn with every set slot in ascending order.
func (s *slotSet) Each(fn func(slot int)) {
	for w, word := range s.words {
		for ; word != 0; word &= word - 1 {
			fn(w<<6 + bits.TrailingZeros64(word))
		}
	}
}

// Truncate drops every slot ≥ n from the set (buffer compaction: the
// rows behind those slots are gone and the slots will be reissued).
func (s *slotSet) Truncate(n int) {
	s.count -= s.CountRange(n, len(s.words)<<6)
	if w := (n + 63) >> 6; w < len(s.words) {
		s.words = s.words[:w]
	}
	if n&63 != 0 && n>>6 < len(s.words) {
		s.words[n>>6] &= 1<<(uint(n)&63) - 1
	}
}

// Clone returns an independent copy.
func (s *slotSet) Clone() slotSet {
	return slotSet{words: append([]uint64(nil), s.words...), count: s.count}
}
