// Package prefetch is the repository's one software-prefetch primitive.
//
// The query path is bound by memory latency, not arithmetic: a verified
// candidate is a scattered row of the vector block, a binary-search step
// a scattered rank entry and then a scattered hash string, and each is a
// cache miss the hardware prefetchers cannot predict. Wherever the code
// knows an address some hundred nanoseconds before it needs the data, it
// says so with T0, and the miss overlaps the work in between.
//
// A prefetch is a hint: it never faults, reads nothing the program can
// observe and changes no result, so it is no part of any bit-identity
// contract. It compiles to PREFETCHT0 on amd64 and to nothing under
// -tags noasm and on every other architecture. Callers pass the address
// of an element they reached through a bounds-checked slice expression.
package prefetch

import "unsafe"

// T0 asks for the cache line holding *p to be brought into every cache
// level.
func T0[T any](p *T) { t0(unsafe.Pointer(p)) }
