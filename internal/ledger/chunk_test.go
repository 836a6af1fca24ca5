package ledger

import (
	"testing"
	"unsafe"
)

// TestLeaseChunkIsSmall: a shard's lease storage follows its high-water mark
// a chunk at a time, and each step must stay a few kilobytes (leaseChunk).
func TestLeaseChunkIsSmall(t *testing.T) {
	if step := leaseChunk * unsafe.Sizeof(lease{}); step > 8<<10 {
		t.Fatalf("a chunk of %d leases is %d B, want at most 8 KiB", leaseChunk, step)
	}
}
