// Package hstring defines the hash-string primitives of the LCCS search
// framework (§3 of the paper): equal-length strings of int32 hash symbols,
// circular shifts, longest common prefixes, and a brute-force reference
// implementation of the Longest Circular Co-Substring (Definition 3.2).
//
// The package is the test oracle of the LCCS search: no production code
// imports it, and it stays because the csa and core tests compare the
// Circular Shift Array and the index against these direct, unoptimized
// definitions. The production index never materializes shifted copies.
package hstring

// Shift returns the circular string of t after shifting i positions:
// shift(T, i) = [t_{i+1}, ..., t_m, t_1, ..., t_i] in the paper's 1-based
// notation. i may be any non-negative value; it is reduced mod len(t).
func Shift(t []int32, i int) []int32 {
	m := len(t)
	if m == 0 {
		return nil
	}
	i %= m
	out := make([]int32, m)
	copy(out, t[i:])
	copy(out[m-i:], t[:i])
	return out
}

// LCP returns the length of the longest common prefix of a and b.
func LCP(a, b []int32) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// CircularLCP returns the length of the longest common prefix of
// shift(a, s) and shift(b, s) without materializing the shifted strings.
// a and b must have the same length m; the result is capped at m.
func CircularLCP(a, b []int32, s int) int {
	m := len(a)
	if len(b) != m {
		panic("hstring: length mismatch")
	}
	if m == 0 {
		return 0
	}
	s %= m
	for i := 0; i < m; i++ {
		p := s + i
		if p >= m {
			p -= m
		}
		if a[p] != b[p] {
			return i
		}
	}
	return m
}

// CompareCircular lexicographically compares shift(a, sa) with shift(b, sb)
// over their full length m, returning -1, 0, or +1. a and b must have the
// same length.
func CompareCircular(a []int32, sa int, b []int32, sb int) int {
	m := len(a)
	if len(b) != m {
		panic("hstring: length mismatch")
	}
	if m == 0 {
		return 0
	}
	sa %= m
	sb %= m
	pa, pb := sa, sb
	for i := 0; i < m; i++ {
		av, bv := a[pa], b[pb]
		if av != bv {
			if av < bv {
				return -1
			}
			return 1
		}
		pa++
		if pa >= m {
			pa = 0
		}
		pb++
		if pb >= m {
			pb = 0
		}
	}
	return 0
}

// LCCS returns |LCCS(a, b)|: the length of the Longest Circular
// Co-Substring of a and b (Definition 3.2). Because a circular co-substring
// occupies the same circularly contiguous positions in both strings, its
// length equals the longest circular run of positions where a and b agree,
// capped at m. This is the O(m) brute-force reference used to validate the
// CSA.
func LCCS(a, b []int32) int {
	m := len(a)
	if len(b) != m {
		panic("hstring: length mismatch")
	}
	if m == 0 {
		return 0
	}
	// Longest circular run of a[i] == b[i].
	best, run := 0, 0
	// Two passes over the doubled index space handle wrap-around runs;
	// cap at m keeps a full match from counting twice.
	for i := 0; i < 2*m; i++ {
		p := i
		if p >= m {
			p -= m
		}
		if a[p] == b[p] {
			run++
			if run > best {
				best = run
			}
		} else {
			run = 0
		}
	}
	if best > m {
		best = m
	}
	return best
}

// LCCSAt returns the length of the circular co-substring of a and b that
// starts exactly at position s, i.e. the circular run of matches beginning
// at s, capped at m. By Fact 3.1, LCCS(a,b) = max over s of LCCSAt(a,b,s).
func LCCSAt(a, b []int32, s int) int {
	return CircularLCP(a, b, s)
}
