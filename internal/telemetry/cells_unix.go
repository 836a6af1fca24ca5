//go:build unix

package telemetry

import (
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// mapCells returns n zeroed cells in an anonymous private mapping, outside
// the Go heap, or nil when they fill less than a page or the kernel refuses
// the mapping (newCells then makes them on the heap). The mapping lives until
// owner is unreachable, and its page-rounded size is counted in mapped (when
// non-nil) meanwhile. Whoever reads or writes the cells keeps owner reachable
// until its last access (runtime.KeepAlive): nothing else does.
func mapCells[T cell](owner *Ring, n int, mapped *atomic.Int64) []T {
	page := os.Getpagesize()
	size := n * int(unsafe.Sizeof(*new(T)))
	if size < page {
		return nil
	}
	size = (size + page - 1) &^ (page - 1)
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil
	}
	if mapped != nil {
		mapped.Add(int64(size))
	}
	runtime.AddCleanup(owner, unmap, mapping{mem, mapped})
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(mem))), n)
}

// mapping is what a ring's cleanup releases. It holds nothing that reaches
// the ring, or the ring would never become unreachable.
type mapping struct {
	mem    []byte
	mapped *atomic.Int64
}

func unmap(m mapping) {
	if syscall.Munmap(m.mem) == nil && m.mapped != nil {
		m.mapped.Add(-int64(len(m.mem)))
	}
}
