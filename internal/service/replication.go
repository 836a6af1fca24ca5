package service

import (
	"bufio"
	"context"
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
//	   | --- OpReplHello --->|   follower id
//	   | <- OpReplHelloResp -|   primary id
//	   | <---- OpReplSnap ---|   first frame of each datacenter, and each new generation: every class in full
//	   | <---- OpReplBeat ---|   same generation: refreshed usage + ledger books
//
// A snapshot frame carries the class records <dc>.snapshot.json carries
// (classRecords), and a follower installs them through the function boot
// restores that file with (snapshotFromRecords): a join is a restart whose
// state arrives over a socket. A frame the follower cannot apply — a beat for
// a generation it does not hold, a reserved opcode — drops the connection; the
// rejoin, like every join, starts on full snapshots.
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
// own generation: the sender builds under the shard's gate, and the receiver
// refuses a frame that pairs them wrongly.
type replState struct {
	// Follower side.
	primaryID atomic.Pointer[string]
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
	srv           wire.Server
	followers     atomic.Int64
	framesShipped atomic.Uint64
	shipErrors    atomic.Uint64
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

// ArmReplicationListener serves replication on ln for as long as the service
// runs. A primary streams to every follower that says hello; a follower
// refuses each hello until Promote makes it the primary, so a promoted node
// feeds the surviving followers (and survives a second failover) on the
// address it already announced, without a restart. The listener is owned by
// the service from here on: Close shuts it down.
func (s *Service) ArmReplicationListener(ln net.Listener) {
	s.jobs.spawn(job{name: "accept", now: true, run: func(context.Context) time.Duration {
		if err := s.repl.srv.Serve(ln, s.serveReplConn); err != nil {
			// Followers can no longer join; the node keeps serving its clients.
			slogger.Error("replication accept loop died", "addr", ln.Addr(), "err", err)
		}
		return jobEnds
	}})
}

// SetFollowAddr retargets a follower's replication stream at a new primary
// address — what the announcer calls when the router reports a promoted
// primary. The follow job is restarted, closing the live connection, and the
// new one dials the new address at once. No-op on a primary, on an empty
// address, or when the address is unchanged.
func (s *Service) SetFollowAddr(addr string) {
	if addr == "" || !s.follower.Load() || addr == s.followAddr() {
		return
	}
	// A copy made past the checks: storing &addr would move addr to the heap
	// on every call, and every follower beat makes one.
	next := addr
	s.repl.followAddr.Store(&next)
	slogger.Info("retargeting replication stream", "node", s.cfg.NodeID, "primary_addr", addr)
	s.jobs.restart()
}

// followAddr is the address the follow job dials: the retargeted primary
// when the router has reported one, the configured address otherwise.
func (s *Service) followAddr() string {
	if p := s.repl.followAddr.Load(); p != nil {
		return *p
	}
	return s.cfg.FollowAddr
}

// serveReplConn handles one follower: handshake, then the connection's ship
// job, an unacknowledged push of every shard's state each ReplInterval. Any
// error drops the connection;
// the follower reconnects and re-handshakes. A follower closes the connection
// once the hello is read: re-shipping second-hand state would make it a
// primary nobody promoted.
func (s *Service) serveReplConn(nc net.Conn) {
	br := bufio.NewReaderSize(nc, 16<<10)
	nc.SetReadDeadline(time.Now().Add(replHandshakeTimeout))
	// The header alone decides whether to read on, and a hello fits the
	// reader's buffer: nothing is allocated for the length a peer claims.
	hdr, err := br.Peek(wire.HeaderSize)
	if err != nil || s.follower.Load() {
		return
	}
	h, err := wire.ParseHeader(hdr)
	if err != nil || h.Op != wire.OpReplHello || h.Len > wire.MaxReplHelloPayload {
		return
	}
	frame, err := br.Peek(wire.HeaderSize + int(h.Len))
	var hello wire.ReplHello
	if err != nil || hello.Decode(frame[wire.HeaderSize:]) != nil {
		return
	}
	nc.SetWriteDeadline(time.Now().Add(replHandshakeTimeout))
	if _, err := nc.Write(wire.AppendReplHelloResp(nil, h.ID, &wire.ReplHelloResp{PrimaryID: s.cfg.NodeID})); err != nil {
		return
	}

	// Every join starts each datacenter on a full snapshot: a generation
	// number names a generation only under the primary that built it.
	shipped := make(map[string]*Snapshot, len(s.order))
	slogger.Info("replication follower connected", "follower", hello.FollowerID)
	s.repl.followers.Add(1)
	defer s.repl.followers.Add(-1)

	var snd replSender
	s.jobs.run(s.jobs.ctx, job{name: "ship " + hello.FollowerID, every: s.cfg.ReplInterval, now: true, run: func(context.Context) time.Duration {
		for _, dc := range s.order {
			frame, next := s.buildReplFrame(&snd, s.shards[dc], shipped[dc])
			nc.SetWriteDeadline(time.Now().Add(replWriteTimeout))
			if _, err := nc.Write(frame); err != nil {
				s.repl.shipErrors.Add(1)
				slogger.Warn("replication ship failed, dropping follower", "follower", hello.FollowerID, "err", err)
				return jobEnds
			}
			s.repl.framesShipped.Add(1)
			shipped[dc] = next
		}
		return 0
	}}, nil)
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
// the next build, and the snapshot it brings the follower to. The build holds
// the shard's gate from loading the snapshot through both walks, so the books
// it carries are keyed to the frame's generation.
func (s *Service) buildReplFrame(snd *replSender, sh *shard, prev *Snapshot) (frame []byte, next *Snapshot) {
	start := time.Now()
	sh.gate.RLock()
	snap := sh.snap.Load()
	frame, mark := s.beginReplFrame(snd, sh, snap, prev == snap)
	frame = appendLedgerSection(frame, sh.led, nil)
	frame = appendBlocksSection(frame, sh.blocks, nil)
	sh.gate.RUnlock()
	snd.frame = frame // keep what the appends grew
	frame = wire.EndFrame(frame, mark)
	sh.replBuild.Observe(time.Since(start))
	if prev == snap {
		sh.replBeatBytes.Store(int64(len(frame)))
	}
	return frame, snap
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

	classes, _ := classRecords(nil, nil, snap, usage)
	return wire.BeginReplSnapshot(dst, 0, &wire.ReplSnapshot{
		DC:              sh.dc,
		Generation:      snap.Generation,
		SentUnixNano:    now,
		AsOfSeconds:     snap.AsOf.Seconds(),
		BuiltAtUnixNano: snap.BuiltAt.UnixNano(),
		Classes:         classes,
	})
}

// appendLedgerSection streams the allocation ledger's books and every live
// lease into dst from one Walk — read under all of the ledger's shard locks,
// so the section conserves. Each record is encoded as the ledger lends it;
// nothing borrowed outlives the walk. A frame passes a nil room; a persist
// stage passes its section's, which is handed dst before each record and
// returns where the record goes (see section.room).
func appendLedgerSection(dst []byte, led *ledger.Ledger, room func([]byte) []byte) []byte {
	led.Walk(func(books ledger.State, leases int) {
		dst = wire.AppendReplLedgerHead(dst, &books, leases)
	}, func(ls wire.ReplLease) {
		if room != nil {
			dst = room(dst)
		}
		dst = wire.AppendReplLease(dst, &ls)
	})
	return dst
}

// appendBlocksSection is appendLedgerSection for the block ledger.
func appendBlocksSection(dst []byte, blocks *blockledger.Ledger, room func([]byte) []byte) []byte {
	blocks.Walk(func(books blockledger.State, n int) {
		dst = wire.AppendReplBlocksHead(dst, &books, n)
	}, func(b wire.ReplBlock) {
		if room != nil {
			dst = room(dst)
		}
		dst = wire.AppendReplBlock(dst, &b)
	})
	return dst
}

// followJob is the follower's one job: dial the primary, apply its stream
// until it breaks, back off, again — until a promotion, a retarget or Close
// ends the job, which closes the stream. The backoff starts short, so a
// follower that boots before its primary listens joins within a few dials,
// and starts over once a stream has applied a frame.
func (s *Service) followJob() job {
	const firstBackoff = 25 * time.Millisecond
	backoff := firstBackoff
	return job{name: "follow", now: true, run: func(ctx context.Context) time.Duration {
		addr := s.followAddr()
		applied := false
		if err := s.runFollower(ctx, addr, &applied); err != nil && ctx.Err() == nil {
			slogger.Warn("replication stream lost; reconnecting", "primary", addr, "err", err)
		}
		s.repl.reconnects.Add(1)
		if applied {
			backoff = firstBackoff
		}
		after := backoff
		backoff = min(2*backoff, 2*time.Second)
		return after
	}}
}

// runFollower dials addr, performs the handshake and applies frames until the
// stream breaks, the liveness deadline passes, or ctx ends. It sets applied
// once a frame is.
func (s *Service) runFollower(ctx context.Context, addr string, applied *bool) error {
	d := net.Dialer{Timeout: replHandshakeTimeout}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	// The job's end closes the stream: that is what unblocks a read.
	stop := context.AfterFunc(ctx, func() { nc.Close() })
	defer stop()
	s.repl.connected.Store(true)
	defer s.repl.connected.Store(false)

	hello := wire.ReplHello{FollowerID: s.cfg.NodeID}
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
	if old := s.repl.primaryID.Swap(&resp.PrimaryID); old == nil || *old != resp.PrimaryID {
		// The announcers tell the router of a new primary at once, not a beat later.
		s.jobs.wake()
	}
	slogger.Info("following primary", "primary", resp.PrimaryID, "addr", addr)

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
		*applied = true
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
	// Under the gate, as a refresh moves a primary: a write that starts just
	// after Promote, while this apply finishes, waits until the books and the
	// snapshot agree.
	sh.gate.Lock()
	reconcileBooks(sh, &m.Ledger, &m.Blocks, len(snap.Clustering.Classes))
	sh.snap.Store(snap)
	sh.gate.Unlock()
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
	// and the select index built from it.
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
// "replication" section of /metrics, in both expositions (see obs.WriteMetrics
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
	var st ReplicationStats
	s.readReplicationStats(&st)
	return st
}

// readReplicationStats is ReplicationStats into st, reusing the storage of
// the generations map it holds.
func (s *Service) readReplicationStats(st *ReplicationStats) {
	gens := st.AppliedGenerations
	clear(gens)
	*st = ReplicationStats{
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
			if gens == nil {
				gens = make(map[string]uint64, len(s.order))
			}
			gens[dc] = gen
			st.AppliedGenerations = gens
		}
		if at := sh.replAppliedAt.Load(); at > latest {
			latest = at
		}
	}
	if latest > 0 {
		st.LastApplySeconds = time.Since(time.Unix(0, latest)).Seconds()
	}
}
