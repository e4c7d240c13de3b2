//go:build amd64 && !noasm

package vec

// AVX2 kernel bindings. The assembly in kernel_amd64.s mirrors the
// unrolled Go kernels operation for operation (see kernel_generic.go
// for the contract), so selecting it changes throughput, never results.
// Detection is hand-rolled CPUID/XGETBV — the module has no
// dependencies, so x/sys/cpu is not available.

//go:noescape
func sqBlockAVX2(block, q, out []float32)

//go:noescape
func dotNormBlockAVX2(block, q, outDot, outNorm []float32)

//go:noescape
func sqRowAVX2(a, b, next []float32, bound float32) (sum float32, n int)

//go:noescape
func dotRowAVX2(a, b, next []float32) float32

//go:noescape
func dot4RowAVX2(block, v []float32) (d0, d1, d2, d3 float32)

//go:noescape
func dotNormRowAVX2(a, q, next []float32) (dot, normSq float32)

//go:noescape
func sq8SqRowAVX2(codes []uint8, scale, adj []float32, next []uint8) float32

//go:noescape
func sq8DotRowAVX2(codes []uint8, adj []float32, next []uint8) float32

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU supports AVX2 and the OS has enabled
// YMM state saving (OSXSAVE + XCR0 bits 1-2), the conditions for the
// VEX-encoded kernels to be usable.
func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func init() {
	if hasAVX2() {
		sqBlock = sqBlockAVX2
		dotNormBlock = dotNormBlockAVX2
		sqRow = sqRowAVX2
		dotRow = dotRowAVX2
		dot4Row = dot4RowAVX2
		dotNormRow = dotNormRowAVX2
		sq8SqRow = sq8SqRowAVX2
		sq8DotRow = sq8DotRowAVX2
		kernelImpl = "avx2"
	}
}
