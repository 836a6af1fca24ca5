// Package blockledger tracks one datacenter's HDFS-H block placements as a
// live, conservation-checked ledger — the storage twin of internal/ledger's
// allocation books. A block is created with exactly R replicas placed by
// Algorithm 2 (internal/core.PlacementScheme); a reimaging event marks every
// replica on the reimaged server lost and enqueues its repair; re-clustering
// re-keys the ledger to the new generation and displaces replicas that
// violate the new grid. Through all of it the books balance exactly:
//
//	placed + pending == replica slots (R summed over live blocks)
//	lost == replaced + pending
//
// in whole replicas, where pending is the gauge of slots awaiting repair.
// The invariant is asserted the same way the allocation ledger's is — fuzzed
// locally, jq'd in CI — so a dropped repair or a double-counted loss is an
// arithmetic error, not a trend on a dashboard.
package blockledger

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"harvest/internal/core"
	"harvest/internal/striped"
	"harvest/internal/tenant"
	"harvest/internal/wire"
)

// ErrStaleGeneration is returned when a caller's snapshot generation does not
// match the ledger's: the placement it computed is against a grid that no
// longer exists, so it must re-place against the current snapshot and retry.
var ErrStaleGeneration = errors.New("blockledger: stale snapshot generation")

// ErrUnknownBlock is returned for operations on a block id never issued (or
// already deleted).
var ErrUnknownBlock = errors.New("blockledger: unknown block")

// ErrReplicaPlaced is returned when a repair lands on a replica slot that is
// no longer pending — a duplicate delivery of the same repair ref.
var ErrReplicaPlaced = errors.New("blockledger: replica already placed")

// inlineReplicas is how many replica slots a block record stores in itself:
// HDFS's default replication is 3, so a block's one home is its record; a
// larger factor spills its slots to a slice.
const inlineReplicas = 3

// block is one tracked block as the ledger holds it: the record Walk lends
// out. The replica slice never changes length after creation — a slot's index
// is its stable identity in repair refs.
type block struct {
	wire.ReplBlock
	// epoch is the store's stamp: the Reconcile pass that last confirmed the
	// block (0 for a block this ledger created itself).
	epoch uint64
	// inline backs Replicas for a block created or inserted here with at most
	// inlineReplicas slots.
	inline [inlineReplicas]wire.ReplBlockReplica
}

// room returns an empty slice with room for n replica slots: the record's own
// while they fit.
func (b *block) room(n int) []wire.ReplBlockReplica {
	if n <= inlineReplicas {
		return b.inline[:0]
	}
	return make([]wire.ReplBlockReplica, 0, n)
}

// Repair references one pending replica slot awaiting re-replication.
type Repair struct {
	Block   uint64
	Replica int
}

// maxStackEnvs is how many replica environments rekeyBlock tracks without a
// heap allocation; replication factors are single-digit (the API caps R at 64,
// and a block that large falls back to append's growth).
const maxStackEnvs = 8

// Ledger tracks one datacenter's block placements, under internal/striped's
// lock order: single-block operations take exactly one shard lock; global
// operations (Rekey, Walk, Reconcile) take all of them, then the queue lock if
// needed.
type Ledger struct {
	generation atomic.Uint64

	store *striped.Store[block]

	// queueMu guards the FIFO of repair refs. Queue membership is the
	// "awaiting repair, not yet in flight" subset of pending slots; the
	// pending gauge itself moves only under the owning shard's lock.
	queueMu sync.Mutex
	queue   []Repair

	// Books. Gauges and cumulative counters move while the owning shard's
	// lock is held, so a lock-all reader sees arithmetic that balances.
	blocks   atomic.Int64 // live blocks
	slots    atomic.Int64 // replica slots across live blocks (R summed)
	placed   atomic.Int64 // gauge: slots holding a live replica
	pending  atomic.Int64 // gauge: slots awaiting re-replication
	lost     atomic.Int64 // cumulative: replicas lost to reimaging or displaced by re-key
	replaced atomic.Int64 // cumulative: repairs that landed
	creates  atomic.Uint64
	reimages atomic.Uint64 // reimaging events that hit at least one replica
	stales   atomic.Uint64 // creates/replaces rejected for generation mismatch
}

// New creates an empty block ledger keyed to the given snapshot generation.
func New(generation uint64) *Ledger {
	// Blocks accumulate, so a shard's storage grows in long steps: 256
	// records, 24 kB.
	l := &Ledger{store: striped.New(256, func(b *block) *uint64 { return &b.epoch })}
	l.generation.Store(generation)
	return l
}

// Generation returns the snapshot generation the ledger is keyed to.
func (l *Ledger) Generation() uint64 { return l.generation.Load() }

// Create records a new block whose replicas were just placed on the given
// servers against the given snapshot generation. All replicas start placed —
// the caller runs Algorithm 2 first and only creates on success. envStrict
// records whether the environment constraint was enforced, so a later re-key
// knows which diversity rules this block's placement promised.
func (l *Ledger) Create(generation uint64, servers []tenant.ServerID, envStrict bool) (uint64, error) {
	if len(servers) == 0 {
		return 0, fmt.Errorf("blockledger: a block needs at least one replica")
	}
	for i, s := range servers {
		for _, prev := range servers[:i] {
			if s == prev {
				return 0, fmt.Errorf("blockledger: duplicate replica server %d", s)
			}
		}
	}
	// Pick the shard from the first server — any stable spread works; the
	// block id minted below carries the shard in its low bits from then on.
	sh := l.store.Shard(striped.ShardOf(uint64(servers[0])))
	sh.Lock()
	if l.generation.Load() != generation {
		sh.Unlock()
		l.stales.Add(1)
		return 0, ErrStaleGeneration
	}
	id := sh.NewID()
	b := sh.Add(id)
	b.ID, b.EnvStrict, b.Replicas = id, envStrict, b.room(len(servers))
	for _, s := range servers {
		b.Replicas = append(b.Replicas, wire.ReplBlockReplica{Server: int64(s), Placed: true})
	}
	l.blocks.Add(1)
	l.slots.Add(int64(len(servers)))
	l.placed.Add(int64(len(servers)))
	l.creates.Add(1)
	sh.Unlock()
	return id, nil
}

// Reimage marks every replica on the server lost and enqueues its repair,
// returning how many replicas the event hit. A reimaged server that held
// nothing returns 0 and moves no books. It scans every block, one shard at a
// time under that shard's lock, so traffic on the other shards runs on: a
// replica's state lives only in its slot, and a reimage is an operator event,
// rare beside the re-key that walks every block on each refresh anyway.
func (l *Ledger) Reimage(server tenant.ServerID) int {
	total := 0
	var refs []Repair
	for i := range striped.NumShards {
		sh := l.store.Shard(i)
		sh.Lock()
		n := 0
		for id, b := range sh.All() {
			for slot := range b.Replicas {
				if r := &b.Replicas[slot]; r.Placed && r.Server == int64(server) {
					r.Placed = false
					refs = append(refs, Repair{Block: id, Replica: slot})
					n++
				}
			}
		}
		if n > 0 {
			l.placed.Add(int64(-n))
			l.pending.Add(int64(n))
			l.lost.Add(int64(n))
			total += n
		}
		sh.Unlock()
	}
	if total > 0 {
		l.reimages.Add(1)
		l.queueMu.Lock()
		l.queue = append(l.queue, refs...)
		l.queueMu.Unlock()
	}
	return total
}

// TakeRepairs pops up to max repair refs off the queue. A taken ref is "in
// flight": the slot stays pending until Replace lands it or Requeue hands it
// back, and a crash in between is recovered by Restore rebuilding the queue
// from the pending slots themselves.
func (l *Ledger) TakeRepairs(max int) []Repair {
	l.queueMu.Lock()
	defer l.queueMu.Unlock()
	if max <= 0 || len(l.queue) == 0 {
		return nil
	}
	if max > len(l.queue) {
		max = len(l.queue)
	}
	taken := make([]Repair, max)
	copy(taken, l.queue[:max])
	n := copy(l.queue, l.queue[max:])
	l.queue = l.queue[:n]
	return taken
}

// Requeue hands an in-flight repair ref back (placement failed or was
// interrupted). A ref whose slot meanwhile landed is dropped.
func (l *Ledger) Requeue(r Repair) {
	sh := l.store.Shard(striped.ShardOf(r.Block))
	sh.Lock()
	b := sh.Get(r.Block)
	stillPending := b != nil && r.Replica >= 0 && r.Replica < len(b.Replicas) && !b.Replicas[r.Replica].Placed
	sh.Unlock()
	if !stillPending {
		return
	}
	l.queueMu.Lock()
	l.queue = append(l.queue, r)
	l.queueMu.Unlock()
}

// Replace lands a repair: the pending slot is re-placed on the given server,
// which must have been picked against the given snapshot generation. On
// ErrStaleGeneration the caller re-places against the current snapshot and
// retries with the same ref.
func (l *Ledger) Replace(generation uint64, r Repair, server tenant.ServerID) error {
	sh := l.store.Shard(striped.ShardOf(r.Block))
	sh.Lock()
	defer sh.Unlock()
	if l.generation.Load() != generation {
		l.stales.Add(1)
		return ErrStaleGeneration
	}
	b := sh.Get(r.Block)
	if b == nil || r.Replica < 0 || r.Replica >= len(b.Replicas) {
		return ErrUnknownBlock
	}
	if b.Replicas[r.Replica].Placed {
		return ErrReplicaPlaced
	}
	for _, held := range b.Replicas {
		if held.Placed && held.Server == int64(server) {
			return fmt.Errorf("blockledger: server %d already holds a replica of block %d", server, r.Block)
		}
	}
	b.Replicas[r.Replica] = wire.ReplBlockReplica{Server: int64(server), Placed: true}
	l.pending.Add(-1)
	l.placed.Add(1)
	l.replaced.Add(1)
	return nil
}

// Slots appends the block's replica servers to buf in slot order,
// core.NoServer where a slot is pending — the view
// core.PlacementScheme.PlaceSlot repairs a slot from, so a repair is
// constrained by the same slot positions rekeyBlock re-validates — and reports
// whether the block's placement promised environment diversity, which a repair
// must re-enforce. ok is false for an unknown block, and buf comes back as it
// went in.
func (l *Ledger) Slots(buf []tenant.ServerID, blockID uint64) (slots []tenant.ServerID, envStrict, ok bool) {
	sh := l.store.Shard(striped.ShardOf(blockID))
	sh.Lock()
	defer sh.Unlock()
	b := sh.Get(blockID)
	if b == nil {
		return buf, false, false
	}
	for _, r := range b.Replicas {
		s := core.NoServer
		if r.Placed {
			s = tenant.ServerID(r.Server)
		}
		buf = append(buf, s)
	}
	return buf, b.EnvStrict, true
}

// Servers returns the block's currently placed replica servers, compacted,
// and how many of its slots are pending. ok is false for an unknown block.
func (l *Ledger) Servers(blockID uint64) (placedServers []tenant.ServerID, pendingSlots int, ok bool) {
	slots, _, ok := l.Slots(nil, blockID)
	for _, s := range slots {
		if s == core.NoServer {
			pendingSlots++
		} else {
			placedServers = append(placedServers, s)
		}
	}
	return placedServers, pendingSlots, ok
}

// SiteOf resolves a server's grid cell and environment under a placement
// scheme — the resolver shape Rekey takes, so the service passes the new
// snapshot's scheme directly.
type SiteOf func(tenant.ServerID) (col, row int, env string, ok bool)

// Rekey moves the ledger to a new snapshot generation and re-validates every
// block's placement against the re-clustered grid via the resolver: replicas
// on servers the new scheme no longer knows are displaced, as are replicas
// that now violate the block's diversity promises — a duplicate environment
// (env-strict blocks only) or a shared row/column within a round of three.
// Displaced replicas move placed → pending, count as lost, and enqueue
// repairs, so the conservation equations keep balancing across the re-key
// exactly as allocation leases do across theirs. Returns the displaced count.
//
// Rekey with the ledger's current generation re-validates without moving it.
// Passing the same resolver the blocks were placed under displaces nothing
// only when every replica was placed under the full constraints: a replica
// Algorithm 2 placed relaxed (its grid cell was empty, so it shares a row or
// column) violates the very grid it was placed on, and is displaced at every
// re-key, re-placed relaxed by repair, and displaced again. That is the warm
// refresh's case, not a corner: assembleSnapshot shares the previous
// generation's scheme, so the service passes the same resolver every time.
// The walk is nevertheless not skipped when the resolver is unchanged —
// whether an unchanged grid may keep a relaxed replica is a decision about
// what a legal block is (ROADMAP, "Algorithm 2's fallback and the
// re-validator disagree"), not a performance detail, and it is not made here.
func (l *Ledger) Rekey(newGeneration uint64, site SiteOf) int {
	l.store.LockAll()
	displacedTotal := 0
	var refs []Repair
	for _, b := range l.store.All() {
		displacedTotal += l.rekeyBlock(b, site, &refs)
	}
	l.generation.Store(newGeneration)
	l.store.UnlockAll()
	if len(refs) > 0 {
		l.queueMu.Lock()
		l.queue = append(l.queue, refs...)
		l.queueMu.Unlock()
	}
	return displacedTotal
}

// rekeyBlock re-validates one block under the new scheme with its shard lock
// held, displacing violating replicas. Constraint state is rebuilt in slot
// order, mirroring Algorithm 2's placement walk: environments accumulate for
// the whole block, row/column history resets every PlacementGridSize slots.
// Pending slots keep their position in the round but contribute no
// constraints — their site is decided at repair time. The environment set
// lives on the stack up to maxStackEnvs replicas, so re-validating a block
// allocates nothing at any replication factor in use.
func (l *Ledger) rekeyBlock(b *block, site SiteOf, refs *[]Repair) int {
	displaced := 0
	var usedCols, usedRows uint32
	var envBuf [maxStackEnvs]string
	usedEnvs := envBuf[:0]
	for slot := range b.Replicas {
		if slot%core.PlacementGridSize == 0 {
			usedCols, usedRows = 0, 0
		}
		r := &b.Replicas[slot]
		if !r.Placed {
			continue
		}
		col, row, env, ok := site(tenant.ServerID(r.Server))
		violates := !ok
		if !violates && b.EnvStrict {
			for _, e := range usedEnvs {
				if e == env {
					violates = true
					break
				}
			}
		}
		if !violates && (usedCols&(1<<uint(col)) != 0 || usedRows&(1<<uint(row)) != 0) {
			violates = true
		}
		if violates {
			r.Placed = false
			*refs = append(*refs, Repair{Block: b.ID, Replica: slot})
			l.placed.Add(-1)
			l.pending.Add(1)
			l.lost.Add(1)
			displaced++
			continue
		}
		usedEnvs = append(usedEnvs, env)
		usedCols |= 1 << uint(col)
		usedRows |= 1 << uint(row)
	}
	return displaced
}

// Stats is the ledger's section of /metrics, in both expositions (see
// obs.WriteMetrics for the tags). All counts are whole replicas, read with every
// shard lock held, so the durability invariants
//
//	placed + pending == replica_slots
//	lost == replaced + pending
//
// hold exactly at every reading; ConservationErrorSlots is their residue, and
// anything but zero is a bug.
type Stats struct {
	Generation   uint64 `json:"generation"`
	Blocks       int64  `json:"blocks" prom:"harvestd_blocks,gauge" help:"Blocks tracked by the block-placement ledger."`
	ReplicaSlots int64  `json:"replica_slots" prom:"harvestd_block_replica_slots,gauge" help:"Replica slots across all tracked blocks."`
	Placed       int64  `json:"placed" prom:"harvestd_block_replicas_placed,gauge" help:"Replica slots currently holding a live replica."`
	Pending      int64  `json:"pending" prom:"harvestd_block_replicas_pending,gauge" help:"Replica slots awaiting re-replication."`
	Lost         int64  `json:"lost" prom:"harvestd_block_replicas_lost_total,counter" help:"Replicas ever lost to reimaging."`
	Replaced     int64  `json:"replaced" prom:"harvestd_block_replicas_replaced_total,counter" help:"Lost replicas re-placed by the repair loop."`
	// ConservationErrorSlots is |placed + pending − replica_slots| +
	// |lost − replaced − pending|.
	ConservationErrorSlots int64  `json:"conservation_error_slots" prom:"harvestd_block_conservation_error_slots,gauge" help:"Replica slots by which the block ledger's books fail to balance; anything but 0 is a bug."`
	Creates                uint64 `json:"creates" prom:"harvestd_block_creates_total,counter" help:"Blocks created."`
	Reimages               uint64 `json:"reimages" prom:"harvestd_block_reimages_total,counter" help:"Reimaging events ingested."`
	// StaleRetries counts creates and replaces refused because they were
	// computed against another generation than the ledger's; in the service,
	// which keys them under the generation it moves them with, anything but 0
	// is a bug.
	StaleRetries uint64 `json:"stale_retries" prom:"harvestd_block_stale_retries_total,counter" help:"Block writes refused as computed against another snapshot generation; anything but 0 is a bug."`
	RepairQueue  int    `json:"repair_queue" prom:"harvestd_block_repair_queue,gauge" help:"Replica slots queued for the re-replicator."`
}

// Snapshot returns a consistent reading of the books: taken under all shard
// locks so the gauges balance against the cumulative counters exactly.
func (l *Ledger) Snapshot() Stats {
	l.store.LockAll()
	st := Stats{
		Generation:   l.generation.Load(),
		Blocks:       l.blocks.Load(),
		ReplicaSlots: l.slots.Load(),
		Placed:       l.placed.Load(),
		Pending:      l.pending.Load(),
		Lost:         l.lost.Load(),
		Replaced:     l.replaced.Load(),
		Creates:      l.creates.Load(),
		Reimages:     l.reimages.Load(),
		StaleRetries: l.stales.Load(),
	}
	l.store.UnlockAll()
	st.ConservationErrorSlots = abs(st.Placed+st.Pending-st.ReplicaSlots) + abs(st.Lost-st.Replaced-st.Pending)
	l.queueMu.Lock()
	st.RepairQueue = len(l.queue)
	l.queueMu.Unlock()
	return st
}

func abs(n int64) int64 {
	if n < 0 {
		return -n
	}
	return n
}

// State is the full exported ledger: every block plus the generation and the
// cumulative books — the record the persistence file and a replication frame
// both carry. The repair queue is not part of it: it is exactly the pending
// slots, rebuilt on restore/apply.
type State = wire.ReplBlocks

// Walk is the ledger's one consistent read of its whole state: with every
// shard lock held it calls begin once with the books (a State with no blocks)
// and the block count, then visit once per block, in no particular order, so
// the books and the blocks belong to one instant. Each block's Replicas is the
// ledger's own slice, lent for the duration of the call: visit may read it
// (encode it, copy it) but must not keep or modify it. Neither callback may
// call back into the ledger.
func (l *Ledger) Walk(begin func(books State, blocks int), visit func(wire.ReplBlock)) {
	l.store.LockAll()
	defer l.store.UnlockAll()
	begin(State{
		Generation: l.generation.Load(),
		Lost:       l.lost.Load(),
		Replaced:   l.replaced.Load(),
		Creates:    l.creates.Load(),
		Reimages:   l.reimages.Load(),
	}, l.store.Len())
	for _, b := range l.store.All() {
		visit(b.ReplBlock)
	}
}

// Export returns a consistent copy of the full ledger state: one Walk,
// copying each block's replica slots out.
func (l *Ledger) Export() State {
	var st State
	l.Walk(func(books State, blocks int) {
		st = books
		st.Blocks = make([]wire.ReplBlock, 0, blocks)
	}, func(b wire.ReplBlock) {
		b.Replicas = slices.Clone(b.Replicas)
		st.Blocks = append(st.Blocks, b)
	})
	return st
}

// Changed counts what one Reconcile did to the block map: blocks it did not
// hold and inserted, blocks whose replica slots differed and were rewritten,
// and held blocks absent from the new state and deleted.
type Changed struct {
	Inserted, Rewritten, Deleted int
}

// Reconcile makes the ledger's contents equal to st, in place: the one
// function that turns a state into live books, behind the follower's apply of
// every replication frame, ApplyState, and Restore at boot. st is only read,
// and may be storage the caller reuses: Reconcile copies what it keeps. The
// caller must have validated the whole state first, because the first block
// may already mutate: that is how a frame stays all-or-nothing.
//
// A block already held with identical replica slots is left alone, so a
// steady-state beat allocates nothing; a block that is new takes its slots
// into its record, one whose slots differ is rewritten in place, and the
// repair queue is re-derived only when a pending slot appeared, moved or went
// away. Blocks with a malformed shape (zero id, no replicas) and repeated ids
// are skipped rather than trusted; the gauges are recomputed from what was
// actually applied so the invariant holds even against a lying peer.
func (l *Ledger) Reconcile(st *State) Changed {
	l.store.LockAll()
	l.store.BeginPass()
	var ch Changed
	blocks := 0
	var slots, pending int64
	requeue := false // some pending slot appeared, moved or went away
	for i := range st.Blocks {
		in := &st.Blocks[i]
		if in.ID == 0 || len(in.Replicas) == 0 {
			continue
		}
		sh := l.store.Shard(striped.ShardOf(in.ID))
		blk := sh.Get(in.ID)
		if blk != nil && l.store.Stamped(blk) {
			continue // the state names this id twice; the first one stands
		}
		awaiting := pendingSlots(in.Replicas)
		switch {
		case blk == nil:
			blk = sh.Add(in.ID)
			blk.ID, blk.Replicas = in.ID, append(blk.room(len(in.Replicas)), in.Replicas...)
			ch.Inserted++
			requeue = requeue || awaiting > 0
		case !slices.Equal(blk.Replicas, in.Replicas):
			blk.Replicas = append(blk.Replicas[:0], in.Replicas...)
			ch.Rewritten++
			requeue = true
		}
		blk.EnvStrict = in.EnvStrict
		l.store.Stamp(blk)
		blocks++
		slots += int64(len(in.Replicas))
		pending += awaiting
	}
	l.store.Sweep(blocks, func(blk *block) {
		ch.Deleted++
		requeue = requeue || pendingSlots(blk.Replicas) > 0
	})
	l.blocks.Store(int64(blocks))
	l.slots.Store(slots)
	l.placed.Store(slots - pending)
	l.pending.Store(pending)
	l.lost.Store(st.Lost)
	l.replaced.Store(st.Replaced)
	l.creates.Store(st.Creates)
	l.reimages.Store(st.Reimages)
	l.generation.Store(st.Generation)
	l.store.UnlockAll()
	if requeue {
		l.rebuildQueue()
	}
	return ch
}

func pendingSlots(replicas []wire.ReplBlockReplica) (n int64) {
	for _, r := range replicas {
		if !r.Placed {
			n++
		}
	}
	return n
}

// ApplyState is Reconcile on an exported State.
func (l *Ledger) ApplyState(st State) { l.Reconcile(&st) }

// rebuildQueue re-derives the repair queue from the pending slots — the
// restore/apply path, and the promoted follower's recovery of repairs that
// were in flight on the old primary when it died.
func (l *Ledger) rebuildQueue() {
	var refs []Repair
	l.store.LockAll()
	for _, b := range l.store.All() {
		for slot := range b.Replicas {
			if !b.Replicas[slot].Placed {
				refs = append(refs, Repair{Block: b.ID, Replica: slot})
			}
		}
	}
	l.store.UnlockAll()
	l.queueMu.Lock()
	l.queue = refs
	l.queueMu.Unlock()
}

// Restore builds a ledger from persisted state, re-keyed to the current
// snapshot generation (the caller re-validates placements via Rekey if the
// generation moved): a fresh ledger, reconciled to the state. A file is held
// to more than a peer is: what striped.CheckRecords refuses, or a block with
// no replica slots, refuses the whole state. A block Reconcile skipped would
// leave its pending slots out of books that still count them lost, and the
// conservation residue would last as long as the process; a refused file
// starts empty and conserved.
func Restore(st State, generation uint64) (*Ledger, error) {
	err := striped.CheckRecords("blockledger: block", st.Blocks, func(b *wire.ReplBlock) (uint64, error) {
		if len(b.Replicas) == 0 {
			return b.ID, fmt.Errorf("blockledger: block %d has no replica slots", b.ID)
		}
		return b.ID, b.Encodable()
	})
	if err != nil {
		return nil, err
	}
	l := New(generation)
	st.Generation = generation
	l.Reconcile(&st)
	return l, nil
}
