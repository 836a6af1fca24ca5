//go:build unix

package telemetry

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harvest/internal/tenant"
	"harvest/internal/timeseries"
)

// TestRingMappingsOutliveEveryRead churns ring lifetimes while the GC runs
// flat out: writers ingest (on the slot grid and, every seventh slot, off it,
// so rings map a stamps table too) and every evictEvery slots evict every ring
// holding samples, so the next ingests map fresh ones; readers call every read
// method, both on a ring they hold across evictions and on one they drop
// mid-read. A ring unmapped while still read faults; a mapping reused by
// another ring shows as a value from the wrong tenant or the wrong slot.
func TestRingMappingsOutliveEveryRead(t *testing.T) {
	const (
		tenants    = 4
		capacity   = 1024 // 8 kB of cells: mapped, not made
		appendsPer = 3000
		evictEvery = 16 // slots a writer ingests between two eviction passes
		readers    = 4
	)
	interval := timeseries.SlotDuration
	ids := make([]tenant.ID, tenants)
	for i := range ids {
		ids[i] = tenant.ID(i)
	}
	st := NewStore(ids, interval, capacity)
	if st.RingBytes() == 0 {
		t.Fatal("a store of 8 kB rings maps nothing")
	}

	// A value names its tenant and its slot exactly: n/2^32 with
	// n = slot·tenants + tenant + 1.
	valueFor := func(id tenant.ID, slot int64) float64 {
		return float64(slot*tenants+int64(id)+1) / (1 << 32)
	}
	owner := func(v float64) (tenant.ID, int64) {
		n := int64(v*(1<<32)) - 1
		return tenant.ID(n % tenants), n / tenants
	}
	atOf := func(slot int64) time.Duration {
		at := time.Duration(slot) * interval
		if slot%7 == 0 {
			at += interval / 2
		}
		return at
	}

	var stop atomic.Bool
	var wg, writers sync.WaitGroup
	for _, id := range ids {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for slot := int64(1); slot <= appendsPer; slot++ {
				if _, err := st.Ingest(id, atOf(slot), valueFor(id, slot)); err != nil {
					t.Errorf("Ingest(%v, slot %d): %v", id, slot, err)
					return
				}
				if slot%evictEvery == 0 {
					st.EvictStale(time.Nanosecond, time.Now().Add(time.Second))
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			runtime.GC()
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := ids[r%tenants]
			// check reports a value that is not id's, or not slot's when
			// slot >= 0.
			check := func(what string, v float64, slot int64) bool {
				got, gotSlot := owner(v)
				if got != id || (slot >= 0 && gotSlot != slot) {
					t.Errorf("%s of tenant %v read %v: tenant %v's slot %d", what, id, v, got, gotSlot)
					return false
				}
				return true
			}
			var samples []Sample
			var values []float64
			held := st.Ring(id)
			for i := 0; !stop.Load(); i++ {
				if i%64 == 0 {
					held = st.Ring(id) // the old one may already be evicted
				}
				samples = held.Snapshot(samples[:0])
				for _, s := range samples {
					if !check("Snapshot", s.Value, int64(s.At/interval)) {
						return
					}
				}
				if last, ok := held.Last(); ok && !check("Last", last.Value, int64(last.At/interval)) {
					return
				}
				values = st.Ring(id).Values(values[:0])
				values, _ = st.AppendWindow(id, values)
				for _, v := range values {
					if !check("Values", v, -1) {
						return
					}
				}
				if s := st.SeriesFor(id); s != nil {
					for _, v := range s.Values {
						if !check("SeriesFor", v, -1) {
							return
						}
					}
				}
				if v := st.LastValue(id, -1); v != -1 && !check("LastValue", v, -1) {
					return
				}
				if n, _, _ := st.HistoryStats(id); n > 0 {
					if v := st.UtilizationAt(id, st.Horizon()/2); v != 0 && !check("UtilizationAt", v, -1) {
						return
					}
				}
			}
		}()
	}

	writers.Wait()
	stop.Store(true)
	wg.Wait()

}

// TestDroppedRingsUnmap holds the release side: an evicted ring's mapping, and
// then every mapping of a store nobody references, returns its bytes once the
// GC has found the rings unreachable.
func TestDroppedRingsUnmap(t *testing.T) {
	const capacity = 4096
	mapped := func() *atomic.Int64 {
		st := NewStore([]tenant.ID{1, 2}, time.Minute, capacity)
		for _, id := range []tenant.ID{1, 2} {
			for _, at := range []time.Duration{time.Minute, 2 * time.Minute, 150 * time.Second} {
				if _, err := st.Ingest(id, at, 0.5); err != nil {
					t.Fatalf("Ingest: %v", err)
				}
			}
		}
		if st.Ring(1).stamps.Load() == nil {
			t.Fatal("an off-grid ingest left the ring on its grid")
		}
		// Two rings, each with value bits and a stamps table.
		ringBytes := st.RingBytes() / 2
		if want := int64(2 * 8 * (capacity + 1)); ringBytes < want {
			t.Fatalf("a ring maps %d bytes, want at least %d", ringBytes, want)
		}
		if n := st.EvictStale(time.Nanosecond, time.Now().Add(time.Second)); n != 2 {
			t.Fatalf("EvictStale evicted %d rings, want 2", n)
		}
		if _, err := st.Ingest(1, 0, 0.5); err != nil { // regrows ring 1, on its grid
			t.Fatalf("Ingest: %v", err)
		}
		waitMapped(t, st.mapped, ringBytes/2, "tenant 2's evicted ring and tenant 1's old one")
		return st.mapped
	}()
	waitMapped(t, mapped, 0, "a dropped store's rings")
}

// waitMapped collects until mapped reads want.
func waitMapped(t *testing.T, mapped *atomic.Int64, want int64, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for mapped.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d bytes still mapped, want %d", what, mapped.Load(), want)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
