package striped

import (
	"math/rand/v2"
	"runtime"
	"testing"
)

// TestTableMatchesMap drives a table and a Go map through the same puts,
// removes and lookups — random ids, ids that differ only above one shard's
// low bits, and small ids from 0 up, which crowd a few homes — and walks the
// table now and then, removing part of what each walk is handed: both must
// always hold the same records, and a walk must hand each one over once.
func TestTableMatchesMap(t *testing.T) {
	ids := map[string]func(rng *rand.Rand, i int) uint64{
		"random":     func(rng *rand.Rand, _ int) uint64 { return rng.Uint64() },
		"one shard":  func(rng *rand.Rand, _ int) uint64 { return rng.Uint64N(1<<20)*NumShards | 5 },
		"small":      func(rng *rand.Rand, _ int) uint64 { return rng.Uint64N(600) },
		"sequential": func(_ *rand.Rand, i int) uint64 { return uint64(i) * NumShards },
	}
	for name, next := range ids {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(1, 2))
			var tab table[int]
			want := make(map[uint64]*int)
			check := func(step int) {
				t.Helper()
				if tab.len() != len(want) {
					t.Fatalf("step %d: table holds %d, map %d", step, tab.len(), len(want))
				}
				for id, v := range want {
					if got := tab.get(id); got != v {
						t.Fatalf("step %d: get(%d) = %p, want %p", step, id, got, v)
					}
				}
			}
			for step := range 20_000 {
				id := next(rng, step)
				switch op := rng.IntN(10); {
				case op < 5:
					if want[id] == nil {
						v := new(int)
						tab.put(id, v)
						want[id] = v
					}
				case op < 9:
					if got := tab.remove(id); got != want[id] {
						t.Fatalf("step %d: remove(%d) = %p, want %p", step, id, got, want[id])
					}
					delete(want, id)
				default:
					if got := tab.get(id); got != want[id] {
						t.Fatalf("step %d: get(%d) = %p, want %p", step, id, got, want[id])
					}
				}
				if step%2000 == 1999 {
					check(step)
					seen := make(map[uint64]bool)
					for id, v := range tab.all {
						if seen[id] {
							t.Fatalf("step %d: the walk handed over %d twice", step, id)
						}
						seen[id] = true
						if want[id] != v {
							t.Fatalf("step %d: the walk handed over %d → %p, want %p", step, id, v, want[id])
						}
						if rng.IntN(3) == 0 {
							tab.remove(id)
							delete(want, id)
						}
					}
					for id := range want {
						if !seen[id] {
							t.Fatalf("step %d: the walk missed %d", step, id)
						}
					}
					check(step)
				}
			}
		})
	}
}

// TestTableWalkStops: a walk whose body returns false ends there.
func TestTableWalkStops(t *testing.T) {
	var tab table[int]
	for id := range uint64(100) {
		tab.put(id, new(int))
	}
	n := 0
	for range tab.all {
		n++
		if n == 10 {
			break
		}
	}
	if n != 10 {
		t.Fatalf("walk ran %d steps after a break at 10", n)
	}
}

// TestTurnoverAtASteadyCountAllocatesNothing is the property the table exists
// for: a shard holding a steady number of records while they turn over — one
// removed, another added under a fresh id, as a ledger's releases and
// reserves do — allocates nothing. A Go map holding the same records
// reallocates its table during such a run to shed tombstones, at a time set
// by where the random ids hash, which a fleet-level heap counter reads as
// noise.
func TestTurnoverAtASteadyCountAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const held = 150
	rng := rand.New(rand.NewPCG(3, 4))
	sh := newStore().Shard(0)
	sh.Lock()
	defer sh.Unlock()
	ids := make([]uint64, held)
	for i := range ids {
		ids[i] = sh.NewID()
		sh.Add(ids[i])
	}
	turn := func() {
		i := rng.IntN(held)
		sh.Remove(ids[i])
		ids[i] = sh.NewID()
		sh.Add(ids[i])
	}
	turn() // gives the shard's free list its one slot
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 100_000 {
		turn()
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != 0 {
		t.Fatalf("100,000 turnovers at %d held: %d allocations (%d B), want 0", held, got, after.TotalAlloc-before.TotalAlloc)
	}
}

// TestTableSplitsKeepEveryRecord grows a table through segment doublings,
// splits and directory doublings, then empties it in a walk: every record is
// found at every step, and each segment's directory entries are the run its
// depth says.
func TestTableSplitsKeepEveryRecord(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	var tab table[int]
	want := make(map[uint64]*int)
	for n := range 20_000 {
		id := rng.Uint64()
		v := new(int)
		tab.put(id, v)
		want[id] = v
		if n%997 == 0 {
			for id, v := range want {
				if tab.get(id) != v {
					t.Fatalf("after %d puts: %d is not held", n+1, id)
				}
			}
			for d := 0; d < len(tab.dir); {
				s := tab.dir[d]
				span := 1 << (tab.depth - s.depth)
				if d%span != 0 {
					t.Fatalf("a segment of depth %d starts at entry %d of %d", s.depth, d, len(tab.dir))
				}
				for i := d; i < d+span; i++ {
					if tab.dir[i] != s {
						t.Fatalf("entry %d is not its run's segment", i)
					}
				}
				if len(s.slots) > maxSegment || 8*s.n > 7*len(s.slots) {
					t.Fatalf("a segment holds %d in %d slots", s.n, len(s.slots))
				}
				d += span
			}
		}
	}
	if tab.depth < 4 {
		t.Fatalf("20,000 records took a directory of depth %d: splits went untested", tab.depth)
	}
	for id := range tab.all {
		if tab.remove(id) != want[id] {
			t.Fatalf("the walk handed over %d, which remove did not find", id)
		}
		delete(want, id)
	}
	if len(want) != 0 || tab.len() != 0 {
		t.Fatalf("a removing walk left %d records (%d by the count)", len(want), tab.len())
	}
}
