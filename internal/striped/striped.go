// Package striped is the lock-striped record store under both of the daemon's
// ledgers: internal/ledger keeps its leases in one, internal/blockledger its
// blocks. It owns what the two share and nothing else — the shard count and
// the id → shard routing, the unguessable ids, the lock order, the one
// consistent walk of every record, and the stamp-and-sweep that makes the held
// set equal to an incoming one. What a record is, which counters move with it
// and what else a shard's lock guards are the ledger's.
//
// Lock order: an operation on one record takes exactly that record's shard
// lock; a global operation takes every shard lock, in ascending index order
// (LockAll), and any lock of the ledger's own only after them. A ledger's
// counters move while the shard lock of the record they describe is held, so
// a reader holding every lock sees books that balance against the records: a
// counter lagging its record would persist a state that violates conservation
// across a restart.
//
// Storage: a shard hands its records out of chunks it allocates whole, of the
// length its store was made with, and Remove zeroes a record and keeps it for
// the next Add, so holding a record costs no heap object of its own. A shard's
// chunks stay at its high-water mark, and so does its id index (table), which
// records turning over at a steady count never grow. The one rule this buys: nothing keeps a
// pointer into a record, or a slice of its storage, after the shard lock is
// released — once it is, the record may be removed and reused under another
// id. What a caller needs past the lock it copies out first.
package striped

import (
	crand "crypto/rand"
	"fmt"
	"iter"
	"math/rand/v2"
	"sync"
)

// NumShards is the shard count: a power of two so the shard index is a mask
// of an id's low bits. 16 shards comfortably exceeds the per-record contention
// a single machine generates while keeping the lock-all operations cheap.
const (
	NumShards = 16
	shardMask = NumShards - 1
)

// ShardOf routes an id to its owning shard: the shard index rides in the id's
// low bits, stamped at issue time, so routing is O(1) with no global state,
// whatever process issued the id. It is also the spread for anything else a
// ledger stripes by number (a lease's first class, a block's first server).
func ShardOf(id uint64) int { return int(id & shardMask) }

// maxJSONSafeID bounds ids to 53 bits: the JSON API carries them as numbers,
// and float64-backed consumers (JavaScript, jq) silently round integers past
// 2^53 — a client would then release a lease id the server never issued. 2^53
// random values are still far beyond enumerable.
const maxJSONSafeID = 1<<53 - 1

// Shard is one lock-striped slice of the record map, guarded by the mutex it
// embeds. Each shard owns its id stream so issuing never crosses shards.
type Shard[V any] struct {
	sync.Mutex
	recs table[V]
	// free holds removed records, zeroed, for Add to reuse before it carves
	// the next record off carve, the unused tail of the newest chunk.
	free  []*V
	carve []V
	chunk int
	idx   uint64
	idrng *rand.ChaCha8
}

// Get returns the record held under id, nil if none is. Called with the
// shard's lock held.
func (sh *Shard[V]) Get(id uint64) *V { return sh.recs.get(id) }

// Add holds a zeroed record under id, which must not be held, and returns it
// for the caller to fill: a removed record if there is one, else the next of
// the newest chunk. Called with the shard's lock held.
func (sh *Shard[V]) Add(id uint64) *V {
	var v *V
	if n := len(sh.free); n > 0 {
		v = sh.free[n-1]
		sh.free = sh.free[:n-1]
	} else {
		if len(sh.carve) == 0 {
			sh.carve = make([]V, sh.chunk)
		}
		v = &sh.carve[0]
		sh.carve = sh.carve[1:]
	}
	sh.recs.put(id, v)
	return v
}

// Remove deletes the record held under id and zeroes it, so it pins no string
// or slice while it waits for Add to reuse it. An id not held is a no-op.
// Called with the shard's lock held.
func (sh *Shard[V]) Remove(id uint64) {
	v := sh.recs.remove(id)
	if v == nil {
		return
	}
	var zero V
	*v = zero
	sh.free = append(sh.free, v)
}

// All ranges over the shard's records, in no particular order; the loop body
// may Remove the record it was handed. Called with the shard's lock held.
func (sh *Shard[V]) All() iter.Seq2[uint64, *V] {
	return sh.recs.all
}

// NewID draws an unguessable nonzero id whose low bits carry the shard index,
// retrying the (vanishing) zero and collision cases. Ids double as
// capabilities once they cross process boundaries — a lease id releases the
// lease, and the binary wire protocol freezes ids as opaque 64-bit values — so
// the 49 bits above the shard index stay CSPRNG-random, never a counter.
// Records applied from a peer or a file are held under their issuer's ids,
// so a handoff cannot double-issue one. Called with the shard's lock held.
func (sh *Shard[V]) NewID() uint64 {
	for {
		id := sh.idrng.Uint64()&maxJSONSafeID&^shardMask | sh.idx
		if id == 0 {
			continue
		}
		if sh.recs.get(id) == nil {
			return id
		}
	}
}

// Store is NumShards shards of records.
type Store[V any] struct {
	shards [NumShards]Shard[V]
	// epoch numbers the reconcile passes; it moves with every shard lock held.
	epoch uint64
	// epochOf finds a record's stamp: the pass that last confirmed it, 0 for a
	// record its own ledger issued. Guarded by the record's shard lock.
	epochOf func(*V) *uint64
}

// New returns an empty store whose shards allocate records chunk at a time
// and whose records keep their stamp where epochOf says. A chunk is the step
// by which a shard's storage follows its high-water mark: records that only
// accumulate want a long one, records that turn over near a steady count a
// short one, so the mark creeping up as they move between shards costs a few
// kilobytes at a time.
func New[V any](chunk int, epochOf func(*V) *uint64) *Store[V] {
	s := &Store[V]{epochOf: epochOf}
	for i := range s.shards {
		var seed [32]byte
		if _, err := crand.Read(seed[:]); err != nil {
			// The platform CSPRNG failing is unrecoverable (crypto/rand panics
			// on its own read paths for the same reason): ids would be
			// guessable, which release turns into a capability.
			panic("striped: reading CSPRNG seed: " + err.Error())
		}
		s.shards[i] = Shard[V]{chunk: chunk, idx: uint64(i), idrng: rand.NewChaCha8(seed)}
	}
	return s
}

// Shard returns shard i, 0 <= i < NumShards, for the caller to lock.
func (s *Store[V]) Shard(i int) *Shard[V] { return &s.shards[i] }

// LockAll acquires every shard lock in ascending order — the store's global
// quiescence point: whatever holds one shard lock is ordered wholly before or
// after what runs between LockAll and UnlockAll.
func (s *Store[V]) LockAll() {
	for i := range s.shards {
		s.shards[i].Lock()
	}
}

// UnlockAll releases what LockAll acquired.
func (s *Store[V]) UnlockAll() {
	for i := range s.shards {
		s.shards[i].Unlock()
	}
}

// Len counts the records. Called between LockAll and UnlockAll.
func (s *Store[V]) Len() int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].recs.len()
	}
	return n
}

// All ranges over every record, in no particular order. Called between
// LockAll and UnlockAll, so the records belong to one instant.
func (s *Store[V]) All() iter.Seq2[uint64, *V] {
	return func(yield func(uint64, *V) bool) {
		for i := range s.shards {
			for id, v := range s.shards[i].All() {
				if !yield(id, v) {
					return
				}
			}
		}
	}
}

// BeginPass opens a reconcile pass: between LockAll and UnlockAll the caller
// visits the records an incoming state names, Stamps each one it applies
// (asking Stamped first, so an id the state repeats is applied once — the
// first one stands), and Sweeps the rest.
func (s *Store[V]) BeginPass() { s.epoch++ }

// Stamped reports whether this pass already confirmed the record.
func (s *Store[V]) Stamped(v *V) bool { return *s.epochOf(v) == s.epoch }

// Stamp confirms the record for this pass.
func (s *Store[V]) Stamp(v *V) { *s.epochOf(v) = s.epoch }

// Sweep closes the pass: it calls drop with every record the pass did not
// stamp, then Removes it. applied is how many records the pass stamped; all of
// them are held, so a store holding exactly that many has nothing unstamped
// and the walk is skipped — the steady state, a state naming what is held.
func (s *Store[V]) Sweep(applied int, drop func(*V)) {
	if s.Len() == applied {
		return
	}
	for i := range s.shards {
		sh := &s.shards[i]
		for id, v := range sh.All() {
			if !s.Stamped(v) {
				drop(v)
				sh.Remove(id)
			}
		}
	}
}

// CheckRecords is the door a persisted state comes through before a ledger
// reconciles to it. A file is held to more than a peer is: a zero or repeated
// id, which a reconcile pass would skip, or a record check finds fault with
// (one no replication frame could carry on to a follower) refuses the whole
// state. what names the record in the error ("ledger: lease").
func CheckRecords[R any](what string, recs []R, check func(*R) (id uint64, err error)) error {
	seen := make(map[uint64]struct{}, len(recs))
	for i := range recs {
		id, err := check(&recs[i])
		if id == 0 {
			return fmt.Errorf("%s id is zero", what)
		}
		if _, dup := seen[id]; dup {
			return fmt.Errorf("%s id %d is repeated", what, id)
		}
		if err != nil {
			return err
		}
		seen[id] = struct{}{}
	}
	return nil
}
