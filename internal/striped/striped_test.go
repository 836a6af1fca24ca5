package striped

import (
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
)

type rec struct {
	id    uint64
	epoch uint64
}

func newStore() *Store[rec] { return New(func(r *rec) *uint64 { return &r.epoch }) }

// insert mints an id on shard i and holds a record under it.
func insert(s *Store[rec], i int) uint64 {
	sh := s.Shard(i)
	sh.Lock()
	defer sh.Unlock()
	id := sh.NewID()
	sh.Recs[id] = &rec{id: id}
	return id
}

func TestNewIDLayout(t *testing.T) {
	s := newStore()
	for i := range NumShards {
		sh := s.Shard(i)
		for range 100_000 {
			id := sh.NewID()
			switch {
			case id == 0:
				t.Fatalf("shard %d minted id 0", i)
			case id > 1<<53-1:
				t.Fatalf("shard %d minted %d, past 2^53-1", i, id)
			case ShardOf(id) != i:
				t.Fatalf("shard %d minted %d, which routes to shard %d", i, id, ShardOf(id))
			}
			if _, held := sh.Recs[id]; held {
				t.Fatalf("shard %d minted %d twice", i, id)
			}
			sh.Recs[id] = &rec{id: id}
		}
		clear(sh.Recs)
	}
}

// TestNewIDSkipsHeldIDs forces the collision retry: with the shard's stream
// replaced by one the test can replay, the next draws are all held already, so
// the id minted must be the first draw that is not.
func TestNewIDSkipsHeldIDs(t *testing.T) {
	s := newStore()
	seed := [32]byte{1, 2, 3}
	for i := range NumShards {
		sh := s.Shard(i)
		sh.idrng = rand.NewChaCha8(seed)
		replay := rand.NewChaCha8(seed)
		draw := func() uint64 { return replay.Uint64()&maxJSONSafeID&^shardMask | uint64(i) }
		const taken = 50
		for range taken {
			sh.Recs[draw()] = &rec{}
		}
		want := draw()
		if got := sh.NewID(); got != want {
			t.Fatalf("shard %d: minted %d, want draw %d of the stream, %d", i, got, taken+1, want)
		}
	}
}

func TestStoresDoNotShareAnIDStream(t *testing.T) {
	a, b := newStore(), newStore()
	seen := make(map[uint64]bool)
	for i := range NumShards {
		for range 1000 {
			seen[a.Shard(i).NewID()] = true
		}
	}
	for i := range NumShards {
		for range 1000 {
			if id := b.Shard(i).NewID(); seen[id] {
				t.Fatalf("two stores minted id %d", id)
			}
		}
	}
}

// TestLockAllQuiescesSingleShardTraffic runs one goroutine per shard doing
// what a ledger's hot operations do — take the shard's lock, insert or delete,
// move a counter under the lock — against a reader taking every lock: the
// reader must see a record count that matches the counters, and finish.
func TestLockAllQuiescesSingleShardTraffic(t *testing.T) {
	s := newStore()
	var inserted, deleted atomic.Int64
	var wg sync.WaitGroup
	for i := range NumShards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh := s.Shard(i)
			var mine []uint64 // at most 32 held, so the reader's walk stays short
			for n := range 5000 {
				sh.Lock()
				if len(mine) == 32 || len(mine) > 0 && n%3 == 2 {
					delete(sh.Recs, mine[len(mine)-1])
					mine = mine[:len(mine)-1]
					deleted.Add(1)
				} else {
					id := sh.NewID()
					sh.Recs[id] = &rec{id: id}
					mine = append(mine, id)
					inserted.Add(1)
				}
				sh.Unlock()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for round, running := 0, true; running; round++ {
		select {
		case <-done:
			running = false // one more reading, of the final state
		default:
		}
		s.LockAll()
		want := int(inserted.Load() - deleted.Load())
		ranged := 0
		for id, r := range s.All() {
			if r.id != id {
				t.Errorf("record %d is held under id %d", r.id, id)
			}
			ranged++
		}
		if got := s.Len(); got != want || ranged != want {
			t.Errorf("round %d: Len %d, All ranged %d, inserts minus deletes %d", round, got, ranged, want)
		}
		s.UnlockAll()
	}
}

// reconcile is a ledger's pass in miniature: make the held set equal to ids.
func reconcile(s *Store[rec], ids []uint64, drop func(*rec)) (applied, repeated int) {
	s.LockAll()
	defer s.UnlockAll()
	s.BeginPass()
	for _, id := range ids {
		recs := s.Shard(ShardOf(id)).Recs
		r := recs[id]
		if r != nil && s.Stamped(r) {
			repeated++
			continue
		}
		if r == nil {
			r = &rec{id: id}
			recs[id] = r
		}
		s.Stamp(r)
		applied++
	}
	s.Sweep(applied, drop)
	return applied, repeated
}

func TestSweepDeletesExactlyTheUnstamped(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	s := newStore()
	var held []uint64
	for range 2000 {
		held = append(held, insert(s, rng.IntN(NumShards)))
	}
	// The incoming state keeps a random half of what is held, names some of
	// those twice, and adds records the store has never seen.
	keep := make(map[uint64]bool)
	var incoming []uint64
	for _, id := range held {
		if rng.IntN(2) == 0 {
			keep[id] = true
			incoming = append(incoming, id)
		}
	}
	other := newStore()
	for range 300 {
		id := insert(other, rng.IntN(NumShards))
		keep[id] = true
		incoming = append(incoming, id)
	}
	twice := 0
	for _, id := range incoming[:100] {
		incoming = append(incoming, id)
		twice++
	}
	rng.Shuffle(len(incoming), func(i, j int) { incoming[i], incoming[j] = incoming[j], incoming[i] })

	dropped := make(map[uint64]int)
	applied, repeated := reconcile(s, incoming, func(r *rec) { dropped[r.id]++ })
	if applied != len(keep) || repeated != twice {
		t.Fatalf("applied %d records and skipped %d repeats, want %d and %d", applied, repeated, len(keep), twice)
	}
	for _, id := range held {
		if !keep[id] && dropped[id] != 1 {
			t.Fatalf("held record %d, absent from the state: drop called %d times, want once", id, dropped[id])
		}
	}
	for id := range dropped {
		if keep[id] {
			t.Fatalf("record %d is in the state and was dropped", id)
		}
	}
	if len(dropped) != len(held)+300-len(keep) {
		t.Fatalf("dropped %d records, want %d", len(dropped), len(held)+300-len(keep))
	}
	s.LockAll()
	if s.Len() != len(keep) {
		t.Fatalf("store holds %d records after the pass, want %d", s.Len(), len(keep))
	}
	for id := range s.All() {
		if !keep[id] {
			t.Fatalf("store still holds %d, which the state does not name", id)
		}
	}
	s.UnlockAll()

	// The same state again changes nothing, and a state that swaps one record
	// for another — as many records as before — still loses the one it dropped.
	reconcile(s, incoming, func(r *rec) { t.Fatalf("a state equal to the held set dropped %d", r.id) })
	gone := incoming[0]
	swapped := []uint64{insert(other, 0)}
	for id := range keep {
		if id != gone {
			swapped = append(swapped, id)
		}
	}
	var lost []uint64
	reconcile(s, swapped, func(r *rec) { lost = append(lost, r.id) })
	if len(lost) != 1 || lost[0] != gone {
		t.Fatalf("swapping %d out dropped %v", gone, lost)
	}
}

func TestCheckRecords(t *testing.T) {
	refused := errors.New("refused by check")
	check := func(recs ...rec) error {
		return CheckRecords("pkg: thing", recs, func(r *rec) (uint64, error) {
			if r.epoch != 0 {
				return r.id, refused
			}
			return r.id, nil
		})
	}
	if err := check(rec{id: 1}, rec{id: 2}, rec{id: 17}); err != nil {
		t.Fatalf("distinct non-zero ids: %v", err)
	}
	if err := check(rec{id: 1}, rec{id: 0}); err == nil || err.Error() != "pkg: thing id is zero" {
		t.Fatalf("zero id: %v", err)
	}
	if err := check(rec{id: 5}, rec{id: 6}, rec{id: 5}); err == nil || err.Error() != "pkg: thing id 5 is repeated" {
		t.Fatalf("repeated id: %v", err)
	}
	if err := check(rec{id: 5}, rec{id: 6, epoch: 1}); !errors.Is(err, refused) {
		t.Fatalf("record the check refuses: %v", err)
	}
}
