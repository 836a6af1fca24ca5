package service

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"harvest/internal/blockledger"
	"harvest/internal/core"
	"harvest/internal/ledger"
	"harvest/internal/obs"
	"harvest/internal/wire"
)

// Replica read fan-out: a primary harvestd streams (snapshot, ledger-occupancy)
// generations to read-only followers over the binary wire's replication
// opcodes, so a router can spread the read path (classes, server-class,
// dry-run select, place) across machines while writes stay pinned to the
// primary.
//
// The stream is a one-way push per follower connection:
//
//	follower           primary
//	   | --- OpReplHello --->|   follower id + held generations
//	   | <- OpReplHelloResp -|   primary id
//	   | <---- OpReplSnap ---|   a generation the follower does not hold: every class in full
//	   | <---- OpReplBeat ---|   same generation: refreshed usage + ledger books
//
// A snapshot frame carries the class records <dc>.snapshot.json carries
// (classRecords), and a follower installs them through the function boot
// restores that file with (snapshotFromRecords): a join is a restart whose
// state arrives over a socket. A frame the follower cannot apply — a beat for
// a generation it does not hold, a reserved opcode — drops the connection; the
// rejoin handshake then gets a full snapshot.
//
// Both ledgers ride along in full on every frame (bounded by live leases and
// blocks), which is what makes promotion safe: the follower's books are a
// prefix of the primary's, and conservation holds on whatever frame applied
// last. They are not copied to get there. The primary walks each ledger once
// under all of its shard locks — the books and every lease or block read in
// one cut — and encodes straight into the connection's reused frame buffer
// (appendLedgerSection, appendBlocksSection). The follower decodes into one
// long-lived message per connection and, only once the whole frame has
// decoded cleanly, reconciles its two sections — the records the ledgers
// themselves hold — into the ledgers it already has (reconcileBooks): what is
// already equal is left alone, so a
// steady-state beat costs a handful of heap objects at either end however
// many leases it carries. A frame's two sections must be keyed to the frame's
// own generation; the sender waits out a refresh that has re-keyed the books
// but not yet published the snapshot, and the receiver refuses a frame that
// pairs them wrongly.
type replState struct {
	// Follower side.
	primaryID   atomic.Pointer[string]
	stopFollow  chan struct{}
	promoteOnce sync.Once
	conn        atomic.Pointer[net.Conn]
	// followAddr overrides cfg.FollowAddr when the primary moves: the router
	// learns the promoted primary's replication address from registration
	// beats and the announcer retargets orphaned followers here (nil until
	// the first retarget).
	followAddr atomic.Pointer[string]
	// applyMu serializes frame application and is the promotion barrier:
	// Promote flips the role and then takes the mutex, so no frame mutates
	// the books after Promote returns.
	applyMu      sync.Mutex
	applyLag     obs.Histogram
	connected    atomic.Bool
	snapsApplied atomic.Uint64
	beatsApplied atomic.Uint64
	reconnects   atomic.Uint64
	promotions   atomic.Uint64

	// Primary side: srv accepts the followers (wire.Server's contract).
	srv wire.Server
	// pendingLn, under mu, is a replication listener a follower holds in
	// reserve: Promote begins ServeReplication on it, so a promoted primary can
	// feed the surviving followers without a restart.
	mu            sync.Mutex
	pendingLn     net.Listener
	followers     atomic.Int64
	framesShipped atomic.Uint64
	shipErrors    atomic.Uint64
}

// shutdown closes the reserve listener and the stream to the primary so the
// follow loop unblocks for Close's wg.Wait, then stops serving followers.
func (r *replState) shutdown() {
	r.mu.Lock()
	if r.pendingLn != nil {
		r.pendingLn.Close()
	}
	r.mu.Unlock()
	if c := r.conn.Load(); c != nil {
		(*c).Close()
	}
	r.srv.Close()
}

// replHandshakeTimeout bounds the hello exchange on both ends;
// replWriteTimeout bounds each shipped frame so one stuck follower cannot
// wedge its sender goroutine.
const (
	replHandshakeTimeout = 5 * time.Second
	replWriteTimeout     = 5 * time.Second
)

// readLiveness is how long a follower waits for the next frame before
// declaring the stream dead: generous against one missed tick, far under a
// refresh interval.
func (s *Service) readLiveness() time.Duration {
	d := 10 * s.cfg.ReplInterval
	if d < 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// ArmReplicationListener hands a follower a replication listener to hold in
// reserve: it accepts nothing until Promote, which starts ServeReplication on
// it — the headline failover fix, letting a promoted primary feed the
// surviving followers (and survive a second failover) without a restart. On a
// node that is already the primary it starts serving immediately.
func (s *Service) ArmReplicationListener(ln net.Listener) {
	if !s.follower.Load() {
		s.ServeReplication(ln)
		return
	}
	s.repl.mu.Lock()
	s.repl.pendingLn = ln
	s.repl.mu.Unlock()
	// Promote may have raced the flag check above; re-check and serve so the
	// listener can never be stranded un-served on a primary.
	if !s.follower.Load() {
		s.serveArmedListener()
	}
}

// serveArmedListener starts replication on the reserve listener, exactly once.
func (s *Service) serveArmedListener() {
	s.repl.mu.Lock()
	ln := s.repl.pendingLn
	s.repl.pendingLn = nil
	s.repl.mu.Unlock()
	if ln != nil {
		s.ServeReplication(ln)
		slogger.Info("replication listener live after promotion", "node", s.cfg.NodeID, "addr", ln.Addr())
	}
}

// SetFollowAddr retargets a follower's replication stream at a new primary
// address — what the announcer calls when the router reports a promoted
// primary. The live connection (if any) is closed so the follow loop re-dials
// immediately. No-op on a primary, on an empty address, or when the address
// is unchanged.
func (s *Service) SetFollowAddr(addr string) {
	if addr == "" || !s.follower.Load() || addr == s.followAddr() {
		return
	}
	s.repl.followAddr.Store(&addr)
	slogger.Info("retargeting replication stream", "node", s.cfg.NodeID, "primary_addr", addr)
	if c := s.repl.conn.Load(); c != nil {
		(*c).Close()
	}
}

// followAddr is the address the follow loop dials: the retargeted primary
// when the router has reported one, the configured address otherwise.
func (s *Service) followAddr() string {
	if p := s.repl.followAddr.Load(); p != nil {
		return *p
	}
	return s.cfg.FollowAddr
}

// ServeReplication starts streaming replication frames to every follower
// that connects on ln. The listener is owned by the service from here on:
// Close shuts it down. Call on a primary only; a follower serving replication
// would re-ship second-hand state (followers use ArmReplicationListener).
func (s *Service) ServeReplication(ln net.Listener) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := s.repl.srv.Serve(ln, s.serveReplConn); err != nil {
			// Followers can no longer join; the node keeps serving its clients.
			slogger.Error("replication accept loop died", "addr", ln.Addr(), "err", err)
		}
	}()
}

// serveReplConn handles one follower: handshake, then an unacknowledged push
// of every shard's state each ReplInterval. Any error drops the connection;
// the follower reconnects and re-handshakes.
func (s *Service) serveReplConn(nc net.Conn) {
	var scratch []byte
	br := bufio.NewReaderSize(nc, 16<<10)
	nc.SetReadDeadline(time.Now().Add(replHandshakeTimeout))
	h, payload, err := wire.ReadFrame(br, &scratch)
	if err != nil || h.Op != wire.OpReplHello {
		return
	}
	var hello wire.ReplHello
	if err := hello.Decode(payload); err != nil {
		return
	}
	nc.SetWriteDeadline(time.Now().Add(replHandshakeTimeout))
	if _, err := nc.Write(wire.AppendReplHelloResp(nil, h.ID, &wire.ReplHelloResp{PrimaryID: s.cfg.NodeID})); err != nil {
		return
	}

	// A follower already holding a shard's current generation (reconnect
	// without a refresh in between) starts on beats instead of a full resend:
	// generations are immutable, so holding the number means holding the state.
	shipped := make(map[string]*Snapshot, len(s.order))
	for _, d := range hello.DCs {
		if sh, ok := s.shards[d.DC]; ok {
			if snap := sh.snap.Load(); snap.Generation == d.Generation {
				shipped[d.DC] = snap
			}
		}
	}
	slogger.Info("replication follower connected", "follower", hello.FollowerID)
	s.repl.followers.Add(1)
	defer s.repl.followers.Add(-1)

	ticker := time.NewTicker(s.cfg.ReplInterval)
	defer ticker.Stop()
	var snd replSender
	for {
		for _, dc := range s.order {
			frame, next, ok := s.buildReplFrame(&snd, s.shards[dc], shipped[dc])
			if !ok {
				continue // a refresh is mid-publish; this shard skips the tick
			}
			nc.SetWriteDeadline(time.Now().Add(replWriteTimeout))
			if _, err := nc.Write(frame); err != nil {
				s.repl.shipErrors.Add(1)
				slogger.Warn("replication ship failed, dropping follower", "follower", hello.FollowerID, "err", err)
				return
			}
			s.repl.framesShipped.Add(1)
			shipped[dc] = next
		}
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
	}
}

// replSender is one follower connection's encode state, replApplier's mirror:
// the frame buffer and the beat's usage list every tick reuses.
type replSender struct {
	frame []byte
	usage []wire.ReplClassUsage
}

// buildReplFrame encodes the next frame for one shard given the snapshot the
// follower last received: a beat when the generation is unchanged, a full
// snapshot otherwise. Returns the frame, built in snd's buffer and valid until
// the next build, and the snapshot it brings the follower to.
//
// A frame must pair a snapshot with books keyed to the same generation, and
// refreshShard re-keys both ledgers to N+1 before it publishes snapshot N+1.
// A walk that finds the books ahead of the snapshot it loaded waits for the
// publish and builds once more; if that still does not pair, ok is false,
// nothing is to be sent, and the next tick tries again.
func (s *Service) buildReplFrame(snd *replSender, sh *shard, prev *Snapshot) (frame []byte, next *Snapshot, ok bool) {
	start := time.Now()
	var waitUntil time.Time
	for attempt := 0; attempt < 2; attempt++ {
		snap := sh.snap.Load()
		frame, mark := s.beginReplFrame(snd, sh, snap, prev == snap)
		frame, booksGen := appendLedgerSection(frame, sh.led)
		if booksGen == snap.Generation {
			frame, booksGen = appendBlocksSection(frame, sh.blocks)
		}
		snd.frame = frame // keep what the appends grew, sent or not
		if booksGen == snap.Generation {
			frame = wire.EndFrame(frame, mark)
			sh.replBuild.Observe(time.Since(start))
			if prev == snap {
				sh.replBeatBytes.Store(int64(len(frame)))
			}
			return frame, snap, true
		}
		if !sh.awaitPublish(booksGen, &waitUntil) {
			break
		}
	}
	return nil, prev, false
}

// beginReplFrame appends the frame's header and everything before its ledger
// section: usage for a beat, the class records for a snapshot.
func (s *Service) beginReplFrame(snd *replSender, sh *shard, snap *Snapshot, beat bool) ([]byte, int) {
	now := time.Now().UnixNano()
	usage := s.UsageFor(snap)
	dst := snd.frame[:0]

	if beat {
		snd.usage = snd.usage[:0]
		for _, cls := range snap.Clustering.Classes {
			snd.usage = append(snd.usage, wire.ReplClassUsage{ID: uint32(cls.ID), Current: usage[cls.ID].CurrentUtilization})
		}
		return wire.BeginReplBeat(dst, 0, &wire.ReplBeat{
			DC:           sh.dc,
			Generation:   snap.Generation,
			SentUnixNano: now,
			AsOfSeconds:  sh.rings.Horizon().Seconds(),
			Usage:        snd.usage,
		})
	}

	return wire.BeginReplSnapshot(dst, 0, &wire.ReplSnapshot{
		DC:              sh.dc,
		Generation:      snap.Generation,
		SentUnixNano:    now,
		AsOfSeconds:     snap.AsOf.Seconds(),
		BuiltAtUnixNano: snap.BuiltAt.UnixNano(),
		Classes:         classRecords(snap, usage),
	})
}

// appendLedgerSection streams the allocation ledger's books and every live
// lease into the frame from one Walk — read under all of the ledger's shard
// locks, so the section conserves — and returns the generation the books are
// keyed to. Each record is encoded as the ledger lends it; nothing borrowed
// outlives the walk.
func appendLedgerSection(dst []byte, led *ledger.Ledger) ([]byte, uint64) {
	var gen uint64
	led.Walk(func(books ledger.State, leases int) {
		gen = books.Generation
		dst = wire.AppendReplLedgerHead(dst, &books, leases)
	}, func(ls wire.ReplLease) {
		dst = wire.AppendReplLease(dst, &ls)
	})
	return dst, gen
}

// appendBlocksSection is appendLedgerSection for the block ledger.
func appendBlocksSection(dst []byte, blocks *blockledger.Ledger) ([]byte, uint64) {
	var gen uint64
	blocks.Walk(func(books blockledger.State, n int) {
		gen = books.Generation
		dst = wire.AppendReplBlocksHead(dst, &books, n)
	}, func(b wire.ReplBlock) {
		dst = wire.AppendReplBlock(dst, &b)
	})
	return dst, gen
}

// followLoop is the follower's outer loop: dial the primary, run the stream,
// reconnect with backoff until promoted or closed.
func (s *Service) followLoop() {
	defer s.wg.Done()
	backoff := 200 * time.Millisecond
	for {
		select {
		case <-s.stop:
			return
		case <-s.repl.stopFollow:
			return
		default:
		}
		addr := s.followAddr()
		nc, err := net.DialTimeout("tcp", addr, replHandshakeTimeout)
		if err == nil {
			s.repl.conn.Store(&nc)
			s.repl.connected.Store(true)
			err = s.runFollower(nc, addr)
			s.repl.connected.Store(false)
			nc.Close()
		}
		if err != nil && !s.stopping() {
			slogger.Warn("replication stream lost; reconnecting", "primary", addr, "err", err)
		}
		if s.followAddr() != addr {
			// Retargeted mid-backoff: dial the new primary without waiting.
			backoff = 200 * time.Millisecond
		}
		s.repl.reconnects.Add(1)
		select {
		case <-s.stop:
			return
		case <-s.repl.stopFollow:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

func (s *Service) stopping() bool {
	select {
	case <-s.stop:
		return true
	case <-s.repl.stopFollow:
		return true
	default:
		return false
	}
}

// runFollower performs the handshake and applies frames until the stream
// breaks, the liveness deadline passes, or the node is promoted.
func (s *Service) runFollower(nc net.Conn, addr string) error {
	hello := wire.ReplHello{FollowerID: s.cfg.NodeID, DCs: make([]wire.ReplDCGen, 0, len(s.order))}
	for _, dc := range s.order {
		// Announce only generations actually applied from a primary (zero on
		// first join): the boot snapshot is self-built and claiming its
		// generation number could suppress the full resend that replaces it.
		hello.DCs = append(hello.DCs, wire.ReplDCGen{DC: dc, Generation: s.shards[dc].replGen.Load()})
	}
	nc.SetWriteDeadline(time.Now().Add(replHandshakeTimeout))
	if _, err := nc.Write(wire.AppendReplHello(nil, 1, &hello)); err != nil {
		return err
	}

	var scratch []byte
	br := bufio.NewReaderSize(nc, 64<<10)
	nc.SetReadDeadline(time.Now().Add(replHandshakeTimeout))
	h, payload, err := wire.ReadFrame(br, &scratch)
	if err != nil {
		return err
	}
	if h.Op != wire.OpReplHelloResp {
		return fmt.Errorf("service: replication handshake got %v, want %v", h.Op, wire.OpReplHelloResp)
	}
	var resp wire.ReplHelloResp
	if err := resp.Decode(payload); err != nil {
		return err
	}
	pid := resp.PrimaryID
	s.repl.primaryID.Store(&pid)
	slogger.Info("following primary", "primary", pid, "addr", addr)

	var ap replApplier
	for {
		nc.SetReadDeadline(time.Now().Add(s.readLiveness()))
		h, payload, err := wire.ReadFrame(br, &scratch)
		if err != nil {
			return err
		}
		if err := s.applyReplFrame(&ap, h.Op, payload); err != nil {
			return err
		}
	}
}

// replApplier is one follower connection's decode state: the message every
// beat decodes into. Its storage keeps what it holds and grows by powers of
// two (wire's growth rule), so decoding allocates for records that are new and
// nothing else, and the ledgers reconcile its two sections as they are.
type replApplier struct {
	beat wire.ReplBeat
}

// applyReplFrame decodes and applies one pushed frame, observing the
// end-to-end ship+apply lag against the sender's timestamp (the intended
// deployment shape is scale-out on one machine, so the clocks agree). The
// frame is decoded completely, trailing-byte check included, before anything
// is applied: a truncated frame or a lying count changes nothing.
func (s *Service) applyReplFrame(ap *replApplier, op wire.Op, payload []byte) error {
	var sent int64
	switch op {
	case wire.OpReplSnap:
		// The snapshot message itself is fresh — the installed snapshot keeps
		// its centroid slices — but its two ledger sections, by far the larger
		// part, decode into the connection's buffers.
		m := wire.ReplSnapshot{Ledger: ap.beat.Ledger, Blocks: ap.beat.Blocks}
		err := m.Decode(payload)
		if err == nil {
			err = s.applyReplSnapshot(&m)
		}
		ap.beat.Ledger, ap.beat.Blocks = m.Ledger, m.Blocks
		if err != nil {
			return err
		}
		sent = m.SentUnixNano
		s.repl.snapsApplied.Add(1)
	case wire.OpReplBeat:
		m := &ap.beat
		if err := m.Decode(payload); err != nil {
			return err
		}
		sent = m.SentUnixNano
		if err := s.applyReplBeat(m, wire.HeaderSize+len(payload)); err != nil {
			return err
		}
		s.repl.beatsApplied.Add(1)
	default:
		return fmt.Errorf("service: unexpected replication opcode %v", op)
	}
	if sent > 0 {
		if lag := time.Since(time.Unix(0, sent)); lag > 0 {
			s.repl.applyLag.Observe(lag)
		}
	}
	return nil
}

// checkBooksGeneration refuses a frame whose ledger or block section is keyed
// to a generation other than the frame's own: applied, its grants would be
// checked against the wrong generation's class count.
func checkBooksGeneration(dc string, frame, led, blocks uint64) error {
	if led != frame || blocks != frame {
		return fmt.Errorf("service: %s: frame for generation %d carries books keyed to %d (leases) and %d (blocks)", dc, frame, led, blocks)
	}
	return nil
}

// applyReplSnapshot installs a snapshot frame: the stream's policy — the books
// keyed to the frame's generation, one frame at a time, not after a promotion
// — around the reassembly boot uses, then the shipped ledger state reconciled
// in place.
func (s *Service) applyReplSnapshot(m *wire.ReplSnapshot) error {
	sh, ok := s.shards[m.DC]
	if !ok {
		return fmt.Errorf("service: replicated snapshot for unknown datacenter %q", m.DC)
	}
	if err := checkBooksGeneration(m.DC, m.Generation, m.Ledger.Generation, m.Blocks.Generation); err != nil {
		return err
	}
	s.repl.applyMu.Lock()
	defer s.repl.applyMu.Unlock()
	if !s.follower.Load() {
		return ErrFollower // promoted mid-frame: drop the stream
	}
	snap, err := s.snapshotFromRecords(sh, m.Generation, m.AsOfSeconds, time.Unix(0, m.BuiltAtUnixNano), m.Classes, sh.snap.Load())
	if err != nil {
		return fmt.Errorf("service: %s: replicated snapshot: %w", m.DC, err)
	}
	reconcileBooks(sh, &m.Ledger, &m.Blocks, len(snap.Clustering.Classes))
	sh.snap.Store(snap)
	s.buildUsageView(sh, snap, snap.Usage, sh.rings.TotalSamples())
	sh.replGen.Store(m.Generation)
	sh.replAppliedAt.Store(time.Now().UnixNano())
	return nil
}

// applyReplBeat refreshes a shard's usage view and ledger books without
// touching the clustering: same generation, new numbers.
func (s *Service) applyReplBeat(m *wire.ReplBeat, frameBytes int) error {
	sh, ok := s.shards[m.DC]
	if !ok {
		return fmt.Errorf("service: replicated beat for unknown datacenter %q", m.DC)
	}
	if err := checkBooksGeneration(m.DC, m.Generation, m.Ledger.Generation, m.Blocks.Generation); err != nil {
		return err
	}
	s.repl.applyMu.Lock()
	defer s.repl.applyMu.Unlock()
	if !s.follower.Load() {
		return ErrFollower
	}
	snap := sh.snap.Load()
	if snap.Generation != m.Generation {
		return fmt.Errorf("service: %s: beat for generation %d, have %d", m.DC, m.Generation, snap.Generation)
	}
	sh.rings.AdvanceClock(time.Duration(m.AsOfSeconds * float64(time.Second)))
	reconcileBooks(sh, &m.Ledger, &m.Blocks, len(snap.Clustering.Classes))
	// Between telemetry posts a beat's usage is the view already live: keep it,
	// and the select index and admission floors derived from it.
	if samples := sh.rings.TotalSamples(); !beatUsageIsLive(sh.liveUsage.Load(), snap, samples, m.Usage) {
		usage := make(map[core.ClassID]core.ClassUsage, len(snap.Clustering.Classes))
		for _, u := range m.Usage {
			usage[core.ClassID(u.ID)] = core.ClassUsage{CurrentUtilization: u.Current}
		}
		for _, cls := range snap.Clustering.Classes {
			if _, ok := usage[cls.ID]; !ok {
				usage[cls.ID] = snap.Usage[cls.ID]
			}
		}
		s.buildUsageView(sh, snap, usage, samples)
	}
	sh.replBeatBytes.Store(int64(frameBytes))
	sh.replAppliedAt.Store(time.Now().UnixNano())
	return nil
}

// beatUsageIsLive reports whether the view applyReplBeat would build from a
// beat's usage list is the one v already is: the same generation and sample
// count, and the list naming each of the snapshot's classes once, in order,
// with the utilization v holds. Anything else — a class missing or repeated,
// a view a racing reader rebuilt from the snapshot — rebuilds.
func beatUsageIsLive(v *usageView, snap *Snapshot, samples uint64, usage []wire.ReplClassUsage) bool {
	classes := snap.Clustering.Classes
	if v == nil || v.generation != snap.Generation || v.samples != samples ||
		len(usage) != len(classes) || len(v.usage) != len(classes) {
		return false
	}
	for i, cls := range classes {
		held, ok := v.usage[cls.ID]
		if !ok || usage[i].ID != uint32(cls.ID) || held != (core.ClassUsage{CurrentUtilization: usage[i].Current}) {
			return false
		}
	}
	return true
}

// reconcileBooks brings the shard's two ledgers to the state of a frame's
// decoded sections, in place — the Reconcile boot reaches through Restore —
// and accounts for the time and the changes. The ledgers copy what they keep.
func reconcileBooks(sh *shard, led *wire.ReplLedger, blocks *wire.ReplBlocks, numClasses int) {
	start := time.Now()
	lc := sh.led.Reconcile(led, numClasses)
	bc := sh.blocks.Reconcile(blocks)
	sh.replApply.Observe(time.Since(start))
	sh.replInserted.Add(uint64(lc.Inserted + bc.Inserted))
	sh.replRewritten.Add(uint64(lc.Rewritten + bc.Rewritten))
	sh.replDeleted.Add(uint64(lc.Deleted + bc.Deleted))
}

// ReplicationStats is the node's replication role and stream health: the
// "replication" section of /metrics, in both expositions (see obs.Prom.Walk
// for the tags).
type ReplicationStats struct {
	Role      string `json:"role"`
	NodeID    string `json:"node_id"`
	PrimaryID string `json:"primary_id,omitempty"`
	// Follower side: stream liveness, applied-frame counters, and the
	// end-to-end ship+apply lag distribution (the gate: p99 under one
	// refresh interval means reads are never more than a beat stale).
	Connected        bool           `json:"connected" prom:"harvestd_replication_connected,gauge" help:"1 when the follower's stream to its primary is up."`
	Reconnects       uint64         `json:"reconnects"`
	Promotions       uint64         `json:"promotions" prom:"harvestd_replication_promotions_total,counter" help:"Follower-to-primary promotions on this node."`
	SnapshotsApplied uint64         `json:"snapshots_applied" prom:"harvestd_replication_snapshots_applied_total,counter" help:"Full replication snapshots applied."`
	BeatsApplied     uint64         `json:"beats_applied" prom:"harvestd_replication_beats_applied_total,counter" help:"Replication ledger beats applied."`
	ApplyLagMeanUs   float64        `json:"apply_lag_mean_us"`
	ApplyLagP99Us    uint64         `json:"apply_lag_p99_us"`
	ApplyLagMaxUs    uint64         `json:"apply_lag_max_us"`
	ApplyLag         *obs.Histogram `json:"-" prom:"harvestd_replication_apply_lag_microseconds,histogram" help:"Primary-send to follower-applied lag per replication frame, in microseconds."`
	// AppliedGenerations is each shard's last replicated generation (follower
	// role; nil on a never-followed primary).
	AppliedGenerations map[string]uint64 `json:"applied_generations,omitempty" prom:"harvestd_replication_generation,gauge" labels:"dc" help:"Last replication generation applied, by datacenter (follower side)."`
	// LastApplySeconds is the time since any frame applied (zero before the first).
	LastApplySeconds float64 `json:"last_apply_seconds"`
	// Primary side: connected followers and cumulative ship counters.
	Followers     int    `json:"followers" prom:"harvestd_replication_followers,gauge" help:"Follower connections currently attached (primary side)."`
	FramesShipped uint64 `json:"frames_shipped" prom:"harvestd_replication_frames_shipped_total,counter" help:"Replication frames shipped to followers."`
	ShipErrors    uint64 `json:"ship_errors" prom:"harvestd_replication_ship_errors_total,counter" help:"Replication frame ship failures."`
}

// ReplicationStats reports the node's replication state.
func (s *Service) ReplicationStats() ReplicationStats {
	st := ReplicationStats{
		Role:             s.Role(),
		NodeID:           s.cfg.NodeID,
		PrimaryID:        s.PrimaryID(),
		Connected:        s.repl.connected.Load(),
		Reconnects:       s.repl.reconnects.Load(),
		Promotions:       s.repl.promotions.Load(),
		SnapshotsApplied: s.repl.snapsApplied.Load(),
		BeatsApplied:     s.repl.beatsApplied.Load(),
		ApplyLagMeanUs:   s.repl.applyLag.MeanMicros(),
		ApplyLagP99Us:    s.repl.applyLag.QuantileMicros(0.99),
		ApplyLagMaxUs:    s.repl.applyLag.MaxMicros(),
		ApplyLag:         &s.repl.applyLag,
		Followers:        int(s.repl.followers.Load()),
		FramesShipped:    s.repl.framesShipped.Load(),
		ShipErrors:       s.repl.shipErrors.Load(),
	}
	var latest int64
	for _, dc := range s.order {
		sh := s.shards[dc]
		if gen := sh.replGen.Load(); gen > 0 {
			if st.AppliedGenerations == nil {
				st.AppliedGenerations = make(map[string]uint64, len(s.order))
			}
			st.AppliedGenerations[dc] = gen
		}
		if at := sh.replAppliedAt.Load(); at > latest {
			latest = at
		}
	}
	if latest > 0 {
		st.LastApplySeconds = time.Since(time.Unix(0, latest)).Seconds()
	}
	return st
}
