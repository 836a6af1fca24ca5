package ledger_test

import (
	"testing"
	"time"

	"harvest/internal/core"
	"harvest/internal/ledger"
)

// heldLeases is the standing state the ledger benchmarks run against.
const heldLeases = 30_000

// BenchmarkLedgerReserveRelease is one reservation and its release, buffers
// reused, beside heldLeases standing leases: the ledger's share of a reserving
// select and a release on the serving path, which allocates nothing.
func BenchmarkLedgerReserveRelease(b *testing.B) {
	const classes = 32
	l := ledger.New(1, classes)
	now := time.Now()
	var grants []ledger.Grant
	reqs := make([]ledger.Request, 1)
	reserve := func(i int) uint64 {
		reqs[0] = ledger.Request{Class: core.ClassID(i % classes), Cores: 1, Capacity: 1e9}
		lease, err := l.ReserveInto(grants, 1, reqs, time.Hour, now, ledger.Meta{})
		if err != nil {
			b.Fatal(err)
		}
		grants = lease.Grants
		return lease.ID
	}
	for i := range heldLeases {
		reserve(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		lease, err := l.ReleaseInto(grants, reserve(i))
		if err != nil {
			b.Fatal(err)
		}
		grants = lease.Grants
	}
}
