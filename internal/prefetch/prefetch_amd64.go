//go:build amd64 && !noasm

package prefetch

import "unsafe"

//go:noescape
func t0(p unsafe.Pointer)
