package blockledger_test

import (
	"math/rand"
	"testing"

	"harvest/internal/blockledger"
	"harvest/internal/tenant"
)

// The block ledger benchmarks run against heldBlocks standing blocks of three
// replicas each, spread over benchServers servers.
const (
	heldBlocks   = 30_000
	benchServers = 1_000
)

// heldState returns a ledger holding heldBlocks blocks and its exported state,
// which Reconcile trims the ledger back to.
func heldState(b *testing.B) (*blockledger.Ledger, blockledger.State) {
	rng := rand.New(rand.NewSource(1))
	led := blockledger.New(1)
	servers := make([]tenant.ServerID, 3)
	for range heldBlocks {
		for i, s := range rng.Perm(benchServers)[:3] {
			servers[i] = tenant.ServerID(s)
		}
		if _, err := led.Create(1, servers, false); err != nil {
			b.Fatal(err)
		}
	}
	return led, led.Export()
}

// BenchmarkBlockLedgerCreate is one block creation. Every heldBlocks creates
// the ledger is trimmed back to the blocks it started with, off the clock, so
// the held count stays between one and two times heldBlocks.
func BenchmarkBlockLedgerCreate(b *testing.B) {
	led, base := heldState(b)
	servers := make([]tenant.ServerID, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if i > 0 && i%heldBlocks == 0 {
			b.StopTimer()
			led.Reconcile(&base)
			b.StartTimer()
		}
		for j := range servers {
			servers[j] = tenant.ServerID((i + j*(benchServers/3)) % benchServers)
		}
		if _, err := led.Create(1, servers, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockLedgerReimage is one reimaging event, a scan of every held
// block. Once every server has been reimaged the ledger is reconciled back to
// its placed state, off the clock.
func BenchmarkBlockLedgerReimage(b *testing.B) {
	led, base := heldState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if i > 0 && i%benchServers == 0 {
			b.StopTimer()
			led.Reconcile(&base)
			b.StartTimer()
		}
		if led.Reimage(tenant.ServerID(i%benchServers)) == 0 {
			b.Fatalf("server %d held no replica", i%benchServers)
		}
	}
}
