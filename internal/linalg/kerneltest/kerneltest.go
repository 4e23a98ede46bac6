// Package kerneltest lets the tests of packages built on linalg run under
// both bodies of its vector kernels — the portable Go loops and the AVX2
// assembly — on one host. Only test files import it.
package kerneltest

import (
	"testing"

	"isgc/internal/linalg"
)

// EachPath calls fn once with the portable kernels selected ("portable") and
// once with the assembly ("avx2"), then restores the host's own choice. fn
// runs in place, so a test's subtest names do not change; callers that want
// one subtest per path wrap tb.Run themselves. On a host that failed the
// probe only the portable half runs and the log says so (linalg's
// TestVectorKernelsProbed is the test that fails CI over it). Not for
// parallel tests: the selection is process-wide.
func EachPath(tb testing.TB, fn func(path string)) {
	tb.Helper()
	defer linalg.SetVectorKernels(linalg.SetVectorKernels(false))
	fn("portable")
	if !linalg.HasVectorKernels() {
		tb.Log("NOT RUN under avx2: this host has no AVX2 (or its OS does not save YMM state); only the portable kernels were exercised")
		return
	}
	linalg.SetVectorKernels(true)
	fn("avx2")
}
