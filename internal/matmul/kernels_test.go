package matmul_test

// The blank import links the kernels built on this package into its
// test binary, so tests inside the package can run them through the
// clique registry (TestKernelTrafficModel).
import _ "github.com/paper-repo-growth/doryp20/internal/algo"
