// Package kerneltest lets the tests of packages built on linalg run under
// every body of its vector kernels — the portable Go loops, the AVX2 and the
// AVX-512 assembly — on one host. Only test files import it.
package kerneltest

import (
	"testing"

	"isgc/internal/linalg"
)

// EachPath calls fn once per body ("portable", "avx2", "avx512"), then
// restores the host's own choice. fn runs in place, so a test's subtest
// names do not change; callers that want one subtest per path wrap tb.Run
// themselves. A body the host failed the probe for is skipped and the log
// says NOT RUN (linalg's TestVectorKernelsProbed is the test that fails CI
// over a missing AVX2 body; TestWideKernelsProbed only reports on AVX-512,
// which runners may lack). Not for parallel tests: the selection is
// process-wide.
func EachPath(tb testing.TB, fn func(path string)) {
	tb.Helper()
	defer linalg.SetPath(linalg.SetPath(linalg.Portable))
	for p := linalg.Portable; p <= linalg.AVX512; p++ {
		if p > linalg.HostPath() {
			tb.Logf("NOT RUN under %v: this host (or its OS) does not support it; only the bodies before it were exercised", p)
			continue
		}
		linalg.SetPath(p)
		fn(p.String())
	}
}
