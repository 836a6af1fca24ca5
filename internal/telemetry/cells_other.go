//go:build !unix

package telemetry

import "sync/atomic"

// mapCells maps nothing where there is no anonymous mmap: every ring's cells
// come from newCells' make.
func mapCells[T cell](*Ring, int, *atomic.Int64) []T { return nil }
