package mpi

import (
	"fmt"
	"os"
	"strconv"
)

// Intra-rank parallelism: every rank can own a persistent worker pool
// (internal/pool) that the mangll kernel driver fans element batches out
// to. The worker count is resolved per run via RunOptions.Workers, per
// process via AMR_WORKERS, default 1 (serial, byte-identical to pre-pool
// builds). Ranks and workers are all goroutines on the Go scheduler, so
// ranks x workers may exceed the core count without pinning anything.

// DefaultWorkers is the per-rank worker count used when RunOptions.Workers
// is zero and AMR_WORKERS is unset: one, the serial kernel path.
const DefaultWorkers = 1

// EnvWorkers is the environment variable that sets the per-rank worker
// count process-wide — the CI matrix runs the suite under several values
// by exporting it.
const EnvWorkers = "AMR_WORKERS"

// ResolveWorkers resolves a per-rank worker count: n > 0 is taken as-is,
// n == 0 falls back to AMR_WORKERS and then DefaultWorkers. Negative or
// unparsable values are an error.
func ResolveWorkers(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("mpi: workers %d < 1", n)
	}
	if n > 0 {
		return n, nil
	}
	env := os.Getenv(EnvWorkers)
	if env == "" {
		return DefaultWorkers, nil
	}
	v, err := strconv.Atoi(env)
	if err != nil || v < 1 {
		return 0, fmt.Errorf("mpi: invalid %s=%q (want integer >= 1)", EnvWorkers, env)
	}
	return v, nil
}
