//go:build !amd64 || noasm

package prefetch

import "unsafe"

func t0(unsafe.Pointer) {}
