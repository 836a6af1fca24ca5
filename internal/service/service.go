package service

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"harvest/internal/blockledger"
	"harvest/internal/core"
	"harvest/internal/experiments"
	"harvest/internal/ledger"
	"harvest/internal/obs"
	"harvest/internal/signalproc"
	"harvest/internal/telemetry"
	"harvest/internal/tenant"
	"harvest/internal/timeseries"
	"harvest/internal/trace"
)

// slogger is the serving layer's structured logger: every line carries
// component=service plus dc/err fields per call site.
var slogger = obs.NewLogger("service")

// Config parameterizes the characterization service.
type Config struct {
	// Datacenters lists the profiles to serve. Empty means every built-in
	// profile (DC-0 … DC-9).
	Datacenters []string
	// Scale sizes the generated populations, exactly as in the experiment
	// harnesses. The zero value normalizes to quick scale.
	Scale experiments.Scale
	// RefreshPeriod is the wall-clock interval between snapshot rebuilds
	// (hours in the paper's deployment; seconds in tests). Zero disables the
	// background refresher — snapshots then only change via Refresh.
	RefreshPeriod time.Duration
	// RingSlots is the per-tenant telemetry ring capacity in samples (one
	// sample per 2-minute slot). Zero means one month — the paper's full
	// characterization window.
	RingSlots int
	// FullRebuildEvery forces every Nth refresh to re-cluster from scratch
	// instead of warm-starting from the previous generation — the
	// correctness backstop for incremental drift. Zero means 24; negative
	// disables full rebuilds (warm-start always).
	FullRebuildEvery int
	// PersistDir, when non-empty, persists each published snapshot to
	// <dir>/<dc>.snapshot.json (atomic rename) and restores the last good
	// one at construction instead of paying the boot re-clustering. The
	// allocation ledger rides along in <dir>/<dc>.ledger.json, so leases
	// survive a restart.
	PersistDir string
	// LeaseTTL is the default lifetime of a select reservation before the
	// expiry sweep reclaims it from a client that never released. Zero means
	// 2 minutes; negative disables expiry (leases live until released).
	LeaseTTL time.Duration
	// SweepPeriod is how often the background sweeper scans for expired
	// leases once Start is called. Zero derives it from LeaseTTL (a quarter,
	// clamped to [100ms, 10s]).
	SweepPeriod time.Duration
	// TenantStaleAfter, when positive, evicts the telemetry ring of any
	// tenant whose last sample (bootstrap included) is older than this at
	// refresh time: the tenant stops pinning a full history window in memory
	// and drops out of the next re-clustering until it reports again.
	TenantStaleAfter time.Duration
	// Clustering and Selector configure the core algorithms.
	Clustering core.ClusteringConfig
	Selector   core.SelectorConfig
	// Seed drives population generation and the per-request RNG pool.
	Seed int64
	// NodeID names this node in replication handshakes and registration
	// beats. Empty defaults to "harvestd".
	NodeID string
	// FollowAddr, when non-empty, runs the service as a read-only follower:
	// instead of refreshing snapshots from its own rings, it dials the
	// primary's replication listener at this address and applies shipped
	// (snapshot, ledger-occupancy) generations. Writes (reserving select,
	// release, renew, telemetry ingest) are rejected with ErrFollower until
	// Promote. The follower must be configured with the same datacenters,
	// scale and seed as its primary — the clustering it applies only makes
	// sense over the identical population.
	FollowAddr string
	// ReplInterval is the cadence the primary ships replication frames at
	// (and the follower's liveness expectation). Zero means 250ms.
	ReplInterval time.Duration
	// RepairInterval is how often the background re-replicator drains the
	// block ledger's repair queue (a compressed stand-in for the paper's
	// 10-minute repair detection delay). Zero means 250ms; negative disables
	// the loop — repairs then only happen via RepairBlocks.
	RepairInterval time.Duration
	// RepairBatch bounds how many repairs one re-replicator tick attempts per
	// datacenter. Zero means 64.
	RepairBatch int
}

// DefaultConfig serves every datacenter at quick scale, refreshing every
// 30 seconds (a compressed stand-in for the paper's every-few-hours cadence).
func DefaultConfig() Config {
	return Config{
		Scale:         experiments.QuickScale(),
		RefreshPeriod: 30 * time.Second,
		Clustering:    core.DefaultClusteringConfig(),
		Selector:      core.DefaultSelectorConfig(),
		Seed:          1,
	}
}

// usageView is one computation of a shard's live per-class usage, cached
// behind an atomic pointer and invalidated by generation or ingest progress.
// src overlays the cached utilization with the ledger's live allocation
// counters, so selections read current AllocatedCores without a rebuild.
// idx is the headroom index built over the same view: per-class capacity
// bounds are fixed for the view's lifetime, so every select against the view
// shares one index and only reads live occupancy through src.
type usageView struct {
	generation uint64
	samples    uint64 // rings.TotalSamples() at build time
	usage      map[core.ClassID]core.ClassUsage
	src        *ledgerUsage
	idx        *core.SelectIndex
}

// ledgerUsage is the core.UsageSource the query path runs against:
// CurrentUtilization from the cached view (recomputed on ingest progress),
// AllocatedCores loaded live from the ledger's atomic counters. Immutable
// after construction; reads are two pointer loads and an atomic load.
type ledgerUsage struct {
	generation uint64
	base       map[core.ClassID]core.ClassUsage
	led        *ledger.Ledger
}

// UsageOf implements core.UsageSource.
func (u *ledgerUsage) UsageOf(id core.ClassID) core.ClassUsage {
	cu := u.base[id]
	if a, ok := u.led.AllocatedCores(u.generation, id); ok {
		cu.AllocatedCores = a
	}
	return cu
}

// AllocatedCoresOf implements core.AllocSource for the indexed select path:
// one atomic load per class, no base-map composition. A generation mismatch
// (re-key racing the read) reads as zero, same as UsageOf's fallback.
func (u *ledgerUsage) AllocatedCoresOf(id core.ClassID) float64 {
	if a, ok := u.led.AllocatedCores(u.generation, id); ok {
		return a
	}
	return u.base[id].AllocatedCores
}

// shard is one datacenter's slot: the published snapshot, the telemetry
// rings, and the private rebuild state. Only the shard's refresher goroutine
// (or Refresh callers serialized by mu) touches pop and sinceFull; readers
// only ever Load pointers.
type shard struct {
	dc     string
	snap   atomic.Pointer[Snapshot]
	rings  *telemetry.Store
	led    *ledger.Ledger
	blocks *blockledger.Ledger

	liveUsage atomic.Pointer[usageView]

	mu        sync.Mutex // serializes rebuilds and persists; never held on the query path
	pop       *tenant.Population
	sinceFull int          // warm refreshes since the last full rebuild (guarded by mu)
	stage     persistStage // what persistShard builds the ledger files in (guarded by mu)

	refreshes     atomic.Uint64
	refreshErrors atomic.Uint64
	warmRefreshes atomic.Uint64
	fullRebuilds  atomic.Uint64
	ingested      atomic.Uint64 // live samples accepted via Ingest
	persistErrors atomic.Uint64
	// persistLastBytes and persistLastNanos describe the most recent persist:
	// what its files came to and how long encoding and writing them took.
	persistLastBytes atomic.Int64
	persistLastNanos atomic.Int64
	staleRetries     atomic.Uint64 // SelectReserve retries due to a re-key in flight

	// repairFailures counts re-replicator attempts that could not land (no
	// eligible server, or the placement kept racing) and went back on the
	// queue — the signal that a datacenter is too depleted to restore R.
	repairFailures atomic.Uint64

	// driftThr is the auto-tuned warm-recluster drift threshold (float64
	// bits): every full rebuild measures how often the incremental path's
	// assignments agreed with the from-scratch oracle and feeds the result
	// back — high agreement relaxes the threshold (fewer reclassifications),
	// disagreement tightens it. Bounded to [base/4, base*8].
	driftThr atomic.Uint64

	// replGen and replAppliedAt record the last replication frame applied to
	// this shard (follower role): the generation and the wall-clock nanos of
	// the apply, for lag exposition and router staleness gating.
	replGen       atomic.Uint64
	replAppliedAt atomic.Int64

	// The replication loop's cost for this shard: how long the primary takes
	// to build a frame and the follower to reconcile one into its ledgers
	// (applyLag, per node, measures ship+apply), the size of the last beat,
	// and what the follower's reconciles changed — leases and blocks together.
	replBuild     obs.Histogram
	replApply     obs.Histogram
	replBeatBytes atomic.Int64
	replInserted  atomic.Uint64
	replRewritten atomic.Uint64
	replDeleted   atomic.Uint64

	// refreshLatency observes every successful refreshShard's end-to-end
	// duration (recluster + assemble + rekey + publish) — the scale metric
	// the incremental snapshot path exists to hold down.
	refreshLatency obs.Histogram
	// lastRecluster is the most recent warm refresh's stats: how much of the
	// pipeline the incremental path skipped (drift, splice, reuse counters).
	lastRecluster atomic.Pointer[core.ReclusterStats]
}

// Service is the characterization service: per-datacenter snapshot shards
// fed by live telemetry rings, a background refresher per shard, and a pool
// of per-request RNGs.
type Service struct {
	cfg    Config
	order  []string
	shards map[string]*shard

	rngs    sync.Pool
	rngSeed atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	started  atomic.Bool

	// follower is the node's role: true while the service applies replicated
	// generations instead of building its own. Promote flips it exactly once.
	follower atomic.Bool
	repl     replState

	// testHookAfterRekey, nil outside tests, runs in refreshShard between the
	// ledgers' re-key and the snapshot's publication.
	testHookAfterRekey func()
}

// ErrFollower rejects write-path calls (reserving select, release, renew,
// ingest) on a follower: only the primary may move the books, or a promoted
// follower's ledger would diverge from the replicated stream.
var ErrFollower = errors.New("service: node is a follower; writes go to the primary")

// ErrUnknownDatacenter is wrapped by every call naming a datacenter this node
// does not serve.
var ErrUnknownDatacenter = errors.New("unknown datacenter")

func unknownDC(dc string) error {
	return fmt.Errorf("service: %w %q", ErrUnknownDatacenter, dc)
}

// errCreateRaced ends a CreateBlock that used up its attempts re-placing
// behind snapshot refreshes: a conflict, to be sent again.
var errCreateRaced = errors.New("block create kept racing snapshot refreshes")

// New builds every datacenter's boot state synchronously, so a service that
// returns without error is immediately queryable: the tenant population is
// generated, its telemetry rings are bootstrapped from the trace (the
// trailing ring-capacity window, so a full analysis window exists before the
// first live sample arrives), and the boot snapshot is either restored from
// PersistDir or clustered from the rings. Call Start to launch the
// background refreshers and Close to stop them.
func New(cfg Config) (*Service, error) {
	if len(cfg.Datacenters) == 0 {
		for _, p := range trace.BuiltinProfiles() {
			cfg.Datacenters = append(cfg.Datacenters, p.Name)
		}
	}
	if cfg.RingSlots <= 0 {
		cfg.RingSlots = timeseries.SlotsPerMonth
	}
	if cfg.FullRebuildEvery == 0 {
		cfg.FullRebuildEvery = 24
	}
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 2 * time.Minute
	}
	if cfg.SweepPeriod <= 0 {
		cfg.SweepPeriod = cfg.LeaseTTL / 4
		if cfg.SweepPeriod < 100*time.Millisecond {
			cfg.SweepPeriod = 100 * time.Millisecond
		}
		if cfg.SweepPeriod > 10*time.Second {
			cfg.SweepPeriod = 10 * time.Second
		}
	}
	// Fill unset fields individually so a caller customizing one knob (say,
	// Thresholds) keeps it; only the genuinely zero pieces take defaults.
	// ReserveFraction is left alone — zero is a legitimate "no reserve".
	defSel := core.DefaultSelectorConfig()
	if cfg.Selector.CoresPerServer <= 0 {
		cfg.Selector.CoresPerServer = defSel.CoresPerServer
	}
	if cfg.Selector.Weights == nil {
		cfg.Selector.Weights = defSel.Weights
	}
	if cfg.Selector.Thresholds == (core.LengthThresholds{}) {
		cfg.Selector.Thresholds = defSel.Thresholds
	}
	if cfg.Clustering.Classifier == (signalproc.ClassifierConfig{}) {
		cfg.Clustering.Classifier = signalproc.DefaultClassifierConfig()
	}
	if cfg.NodeID == "" {
		cfg.NodeID = "harvestd"
	}
	if cfg.ReplInterval <= 0 {
		cfg.ReplInterval = 250 * time.Millisecond
	}
	if cfg.RepairInterval == 0 {
		cfg.RepairInterval = 250 * time.Millisecond
	}
	if cfg.RepairBatch <= 0 {
		cfg.RepairBatch = 64
	}

	s := &Service{
		cfg:    cfg,
		shards: make(map[string]*shard, len(cfg.Datacenters)),
		stop:   make(chan struct{}),
	}
	s.follower.Store(cfg.FollowAddr != "")
	s.repl.stopFollow = make(chan struct{})
	s.rngSeed.Store(cfg.Seed)
	s.rngs.New = func() any {
		return rand.New(rand.NewSource(s.rngSeed.Add(1)))
	}

	for _, dc := range cfg.Datacenters {
		if _, dup := s.shards[dc]; dup {
			return nil, fmt.Errorf("service: duplicate datacenter %q", dc)
		}
		// Each boot phase is timed for the one log line below: what a restart
		// costs, split by what it was spent on.
		began := time.Now()
		pop, _, err := experiments.BuildPopulation(dc, cfg.Scale)
		if err != nil {
			return nil, err
		}
		populated := time.Now()
		sh := &shard{dc: dc, pop: pop}
		sh.driftThr.Store(math.Float64bits(baseDriftThreshold(cfg.Clustering)))
		if err := s.bootstrapRings(sh); err != nil {
			return nil, err
		}
		ringsFilled := time.Now()
		snap, restored := s.restoreSnapshot(sh)
		if snap == nil {
			snap, err = buildSnapshot(dc, pop, sh.rings, cfg, 1)
			if err != nil {
				return nil, err
			}
			s.persistShard(sh, snap)
		}
		snapshotReady := time.Now()
		// The ledger starts empty at the boot generation unless a persisted
		// one matches the restored snapshot — then outstanding leases (minus
		// the ones that expired while the daemon was down) carry over.
		sh.led = s.restoreLedger(sh, snap)
		if sh.led == nil {
			sh.led = ledger.New(snap.Generation, len(snap.Clustering.Classes))
		}
		// The block ledger rides the same persistence lifecycle: restored
		// blocks (and their pending repairs, rebuilt from the pending slots)
		// survive a restart; otherwise the books start empty at the boot
		// generation.
		sh.blocks = s.restoreBlocks(sh, snap)
		if sh.blocks == nil {
			sh.blocks = blockledger.New(snap.Generation)
		}
		sh.snap.Store(snap)
		s.order = append(s.order, dc)
		s.shards[dc] = sh
		ms := func(from, to time.Time) float64 { return float64(to.Sub(from).Microseconds()) / 1e3 }
		slogger.Info("datacenter booted", "dc", dc, "tenants", len(pop.Tenants),
			"generation", snap.Generation, "restored", restored,
			"population_ms", ms(began, populated), "rings_ms", ms(populated, ringsFilled),
			"snapshot_ms", ms(ringsFilled, snapshotReady), "ledgers_ms", ms(snapshotReady, time.Now()))
	}
	return s, nil
}

// bootstrapRings seeds the shard's telemetry rings from the generated trace:
// the trailing window of each tenant's one-month series, ending at the trace
// horizon, so the first characterization analyses the same data the old
// trace-backed path would have.
func (s *Service) bootstrapRings(sh *shard) error {
	ids := make([]tenant.ID, len(sh.pop.Tenants))
	for i, t := range sh.pop.Tenants {
		ids[i] = t.ID
	}
	sh.rings = telemetry.NewStore(ids, timeseries.SlotDuration, s.cfg.RingSlots)
	for _, t := range sh.pop.Tenants {
		if t.Utilization == nil || t.Utilization.Len() == 0 {
			return fmt.Errorf("service: %s: tenant %v has no trace to bootstrap from", sh.dc, t.ID)
		}
		if err := sh.rings.Bootstrap(t.ID, t.Utilization, t.Utilization.Duration()); err != nil {
			return fmt.Errorf("service: %s: %w", sh.dc, err)
		}
	}
	return nil
}

// Start launches one refresher goroutine per shard (when RefreshPeriod is
// positive) and the lease-expiry sweeper (when LeaseTTL is positive). It is
// a no-op when the service is already started.
func (s *Service) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	if s.follower.Load() {
		// A follower neither refreshes nor sweeps: both would move the books
		// independently of the primary's stream. Promote starts them.
		s.wg.Add(1)
		go s.followLoop()
		return
	}
	s.startPrimaryLoops()
}

// startPrimaryLoops launches the primary-role background work: one refresher
// per shard and the lease-expiry sweeper. Called by Start on a primary and by
// Promote on a follower taking over.
func (s *Service) startPrimaryLoops() {
	if s.cfg.RefreshPeriod > 0 {
		for _, dc := range s.order {
			sh := s.shards[dc]
			s.wg.Add(1)
			go s.refreshLoop(sh)
		}
	}
	// The sweeper always runs: even with the server-side default TTL
	// disabled (negative LeaseTTL), clients can arm per-lease deadlines via
	// hold_seconds, and those must still be reclaimed.
	s.wg.Add(1)
	go s.sweepLoop()
	if s.cfg.RepairInterval > 0 {
		s.wg.Add(1)
		go s.repairLoop()
	}
}

// IsFollower reports whether the node currently rejects writes.
func (s *Service) IsFollower() bool { return s.follower.Load() }

// Role is the node's current role string for registration beats and metrics.
func (s *Service) Role() string {
	if s.follower.Load() {
		return "follower"
	}
	return "primary"
}

// PrimaryID identifies the primary this node believes in: its own NodeID when
// it is the primary, the ID learned from the replication handshake when it is
// a follower (empty before the first successful handshake).
func (s *Service) PrimaryID() string {
	if !s.follower.Load() {
		return s.cfg.NodeID
	}
	if p := s.repl.primaryID.Load(); p != nil {
		return *p
	}
	return ""
}

// NodeID returns the configured node identity.
func (s *Service) NodeID() string { return s.cfg.NodeID }

// Promote flips a follower into the primary role exactly once: the
// replication apply loop is stopped (and any in-flight apply waited out, so a
// late frame can never clobber post-promotion reservations), then the refresh
// and sweep loops start over the books as last replicated. Lease conservation
// survives the handoff because the applied ledger state carries the full
// conservation counters, not just live leases. Returns false when the node is
// already a primary.
func (s *Service) Promote() bool {
	if !s.follower.CompareAndSwap(true, false) {
		return false
	}
	s.repl.promoteOnce.Do(func() { close(s.repl.stopFollow) })
	if c := s.repl.conn.Load(); c != nil {
		(*c).Close()
	}
	// Barrier: an apply that loaded follower=true before the CAS may still be
	// holding applyMu; taking it here guarantees no apply mutates the books
	// after Promote returns.
	s.repl.applyMu.Lock()
	s.repl.applyMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	s.repl.promotions.Add(1)
	if s.started.Load() {
		s.startPrimaryLoops()
	}
	// Begin serving replication on the reserve listener (when the follower
	// was armed with one), so the surviving followers can re-dial the new
	// primary and a second failover has somewhere to promote from.
	s.serveArmedListener()
	slogger.Info("promoted to primary", "node", s.cfg.NodeID)
	return true
}

// sweepLoop periodically reclaims expired leases across every shard — the
// safety net for clients that died holding a reservation.
func (s *Service) sweepLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.SweepPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.SweepLeases(time.Now())
		}
	}
}

// SweepLeases reclaims every lease expired as of now, across all shards, and
// returns how many leases and cores were reclaimed. The background sweeper
// calls this on its ticker; tests and operational tooling may call it
// directly.
func (s *Service) SweepLeases(now time.Time) (leases int, cores float64) {
	var millis int64
	for _, dc := range s.order {
		n, m := s.shards[dc].led.ExpireBefore(now)
		leases += n
		millis += m
	}
	return leases, ledger.CoresOf(millis)
}

// Close stops the refreshers and waits for them to exit, then persists each
// shard's two ledgers (when persistence is configured) so leases and blocks
// taken since the last refresh survive the restart. Queries remain valid after
// Close; they simply stop seeing new generations.
func (s *Service) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.repl.shutdown()
	s.wg.Wait()
	for _, dc := range s.order {
		sh := s.shards[dc]
		// Under the rebuild lock: a Refresh from another goroutine may still be
		// persisting through the shard's stage.
		sh.mu.Lock()
		s.persistShard(sh, nil)
		sh.mu.Unlock()
	}
}

func (s *Service) refreshLoop(sh *shard) {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.RefreshPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			// On failure the previous snapshot keeps serving; refreshShard
			// counts the error, and the log line makes the staleness visible
			// without watching /metrics.
			if err := s.refreshShard(sh); err != nil {
				slogger.Warn("refresh failed, serving previous snapshot", "dc", sh.dc, "err", err)
			}
		}
	}
}

// refreshShard builds the shard's next snapshot from the telemetry rings off
// to the side and publishes it with one atomic swap. Readers racing with the
// swap see either the old or the new snapshot, both fully built. The
// clustering warm-starts from the previous generation (core.Recluster);
// every FullRebuildEvery-th refresh re-clusters from scratch as the
// correctness backstop.
func (s *Service) refreshShard(sh *shard) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	start := time.Now()
	prev := sh.snap.Load()
	// Evict rings of tenants that stopped reporting before re-clustering
	// reads them, so a stale window neither skews a class nor keeps the
	// tenant's servers in the serving set.
	if s.cfg.TenantStaleAfter > 0 {
		if n := sh.rings.EvictStale(s.cfg.TenantStaleAfter, start); n > 0 {
			slogger.Info("evicted stale tenant rings", "dc", sh.dc, "rings", n)
		}
	}
	full := s.cfg.FullRebuildEvery > 0 && sh.sinceFull >= s.cfg.FullRebuildEvery-1

	// Warm rounds run with the shard's auto-tuned drift threshold; the base
	// configuration is never mutated, only overridden per refresh.
	ccfg := s.cfg.Clustering
	ccfg.DriftThreshold = sh.driftThreshold()
	clusterer := core.NewClusteringService(ccfg)
	var clustering *core.Clustering
	var rst core.ReclusterStats
	var err error
	if full {
		clustering, err = clusterer.ClusterFrom(sh.pop, sh.rings)
		rst.FullRebuild = true
		rst.Tenants = len(sh.pop.Tenants)
		rst.FullAgreement = -1
		rst.DriftThreshold = ccfg.DriftThreshold
		if err == nil && prev != nil {
			// The full rebuild is the incremental path's oracle: measure how
			// often the warm generations' pattern assignments agreed with a
			// from-scratch run, and feed the disagreement back into the drift
			// threshold. Consistently high agreement means the threshold can
			// relax (fewer expensive reclassifications); disagreement means
			// drift is slipping past it and it must tighten.
			rst.FullAgreement = clusteringAgreement(prev.Clustering, clustering)
			sh.tuneDriftThreshold(baseDriftThreshold(s.cfg.Clustering), rst.FullAgreement)
			rst.DriftThreshold = sh.driftThreshold()
		}
	} else {
		clustering, rst, err = clusterer.Recluster(prev.Clustering, sh.pop, sh.rings)
	}
	if err == nil {
		var next *Snapshot
		next, err = assembleSnapshot(sh.dc, sh.pop, sh.rings, s.cfg, prev.Generation+1, clustering, start, prev)
		if err == nil {
			// Carry the allocation ledger into the new generation before the
			// snapshot is visible: re-key each lease's grants to where its old
			// class's servers landed (conserving totals), so reservations made
			// against the previous clustering keep holding real cores in the
			// new one. A reservation racing the swap detects the generation
			// change and retries (SelectReserve).
			rekeyLedger(sh.led, sh.pop, prev.Clustering, next.Clustering, next.Generation)
			// The block ledger re-keys the same way: every placement is
			// re-validated against the new generation's grid, and replicas
			// that now violate their block's diversity promises are displaced
			// into the repair queue (counted as lost, so the conservation
			// books keep balancing). A block create racing the swap detects
			// the generation change and re-places (CreateBlock).
			if displaced := sh.blocks.Rekey(next.Generation, next.Scheme().ReplicaSite); displaced > 0 {
				slogger.Info("re-key displaced block replicas", "dc", sh.dc, "replicas", displaced)
			}
			if s.testHookAfterRekey != nil {
				s.testHookAfterRekey()
			}
			sh.snap.Store(next)
			sh.refreshes.Add(1)
			if rst.FullRebuild {
				sh.fullRebuilds.Add(1)
				sh.sinceFull = 0
			} else {
				sh.warmRefreshes.Add(1)
				sh.sinceFull++
			}
			sh.lastRecluster.Store(&rst)
			sh.refreshLatency.Observe(time.Since(start))
			s.persistShard(sh, next)
			return nil
		}
	}
	sh.refreshErrors.Add(1)
	return err
}

// Drift auto-tuning bounds: the feedback loop nudges the threshold by small
// multiplicative steps and clamps it to a window around the configured base,
// so a pathological run can neither freeze reclassification entirely nor thrash
// every tenant every round.
const (
	driftAgreeRelax   = 0.99 // agreement at or above this relaxes the threshold
	driftAgreeTighten = 0.95 // agreement below this tightens it
	driftRelaxFactor  = 1.25
	driftTightenFact  = 0.8
	driftClampLow     = 0.25 // base/4
	driftClampHigh    = 8.0  // base*8
)

// baseDriftThreshold resolves the configured drift threshold with the same
// fallback core.Recluster applies.
func baseDriftThreshold(cfg core.ClusteringConfig) float64 {
	if cfg.DriftThreshold > 0 {
		return cfg.DriftThreshold
	}
	return core.DefaultDriftThreshold
}

// driftThreshold is the shard's current (auto-tuned) warm drift threshold.
func (sh *shard) driftThreshold() float64 {
	return math.Float64frombits(sh.driftThr.Load())
}

// tuneDriftThreshold applies one feedback step from a full rebuild's measured
// agreement. Negative agreement (not measured) is a no-op.
func (sh *shard) tuneDriftThreshold(base, agreement float64) {
	if agreement < 0 {
		return
	}
	thr := sh.driftThreshold()
	switch {
	case agreement >= driftAgreeRelax:
		thr *= driftRelaxFactor
	case agreement < driftAgreeTighten:
		thr *= driftTightenFact
	default:
		return
	}
	thr = math.Min(math.Max(thr, base*driftClampLow), base*driftClampHigh)
	sh.driftThr.Store(math.Float64bits(thr))
}

// clusteringAgreement measures, over the tenants present in both generations,
// the fraction whose pattern assignment the full rebuild kept. Pattern (not
// class id) is compared because K-Means is free to renumber classes between
// runs; a pattern flip is the signal that warm drift checks missed real
// change. Returns -1 when nothing is comparable.
func clusteringAgreement(prev, next *core.Clustering) float64 {
	if prev == nil || next == nil {
		return -1
	}
	compared, agreed := 0, 0
	for _, cls := range next.Classes {
		for _, tid := range cls.Tenants {
			pid, ok := prev.ClassOfTenant(tid)
			if !ok {
				continue
			}
			pc := prev.Class(pid)
			if pc == nil {
				continue
			}
			compared++
			if pc.Pattern == cls.Pattern {
				agreed++
			}
		}
	}
	if compared == 0 {
		return -1
	}
	return float64(agreed) / float64(compared)
}

// publishWait bounds how long an operation waits, in total, for a refresh
// that has re-keyed the ledgers to publish its snapshot: the gap is the block
// ledger's re-key plus one pointer store, milliseconds even at full scale,
// so a second means the refresher is not coming.
const publishWait = time.Second

// awaitPublish is what an operation does when a ledger turned it away as
// stale: refreshShard re-keys both ledgers to generation N+1 before it
// publishes snapshot N+1, and in between no retry can succeed, because the
// only snapshot there is to load is the one the ledger just refused. Yield
// until the published snapshot has reached gen, the ledger's generation;
// true means it has and a retry is worthwhile. The first call starts the
// operation's budget in *deadline and later calls share it, so an operation
// waits publishWait in total however many refreshes it meets.
func (sh *shard) awaitPublish(gen uint64, deadline *time.Time) bool {
	if deadline.IsZero() {
		*deadline = time.Now().Add(publishWait)
	}
	for spins := 0; ; spins++ {
		// The budget is checked first so that it also bounds a caller whose
		// retries keep failing although the snapshot has caught up.
		if !time.Now().Before(*deadline) {
			return false
		}
		if sh.snap.Load().Generation >= gen {
			return true
		}
		if spins < 32 {
			runtime.Gosched()
		} else {
			time.Sleep(50 * time.Microsecond) // the refresher needs the CPU more than we do
		}
	}
}

// rekeyLedger carries the allocation ledger from one clustering generation
// to the next: each old class's allocation follows its servers — the shares
// are how many of the class's servers landed in each new class. A tenant's
// servers always move together (class membership is per tenant), so the
// shares are accumulated per member tenant — O(tenants), not O(servers) —
// weighting each destination by the tenant's server count. Tenants that left
// the serving set entirely (e.g. an evicted telemetry ring) contribute no
// share; an old class whose servers all left forfeits its grants, which the
// ledger counts rather than hides.
func rekeyLedger(led *ledger.Ledger, pop *tenant.Population, prev, next *core.Clustering, nextGeneration uint64) {
	remap := make(map[core.ClassID][]ledger.Share, len(prev.Classes))
	for _, cls := range prev.Classes {
		counts := make(map[core.ClassID]int)
		for _, tid := range cls.Tenants {
			nid, ok := next.ClassOfTenant(tid)
			if !ok {
				continue
			}
			if t := pop.ByID(tid); t != nil {
				counts[nid] += t.NumServers()
			}
		}
		shares := make([]ledger.Share, 0, len(counts))
		for nid, n := range counts {
			shares = append(shares, ledger.Share{Class: nid, Weight: float64(n)})
		}
		remap[cls.ID] = shares
	}
	led.Rekey(nextGeneration, len(next.Classes), remap)
}

// Refresh synchronously rebuilds one datacenter's snapshot (tests and
// operational tooling; the background refresher normally does this).
func (s *Service) Refresh(dc string) error {
	sh, ok := s.shards[dc]
	if !ok {
		return unknownDC(dc)
	}
	if s.follower.Load() {
		return ErrFollower
	}
	return s.refreshShard(sh)
}

// Datacenters returns the served datacenter names in configuration order.
func (s *Service) Datacenters() []string { return s.order }

// Generations reports each datacenter's current snapshot generation — what a
// registration beat announces to the router, so operators can spot a shard
// whose characterization stopped advancing from the router's /metrics alone.
func (s *Service) Generations() map[string]uint64 {
	out := make(map[string]uint64, len(s.order))
	for _, dc := range s.order {
		out[dc] = s.shards[dc].snap.Load().Generation
	}
	return out
}

// Snapshot returns the current snapshot for a datacenter. The result is
// immutable and remains valid (if stale) indefinitely.
func (s *Service) Snapshot(dc string) (*Snapshot, bool) {
	sh, ok := s.shards[dc]
	if !ok {
		return nil, false
	}
	return sh.snap.Load(), true
}

// dcName turns a datacenter name from a binary payload into a string without
// allocating: the served datacenter's own. Only an unknown name is copied.
func (s *Service) dcName(b []byte) string {
	if sh, ok := s.shards[string(b)]; ok {
		return sh.dc
	}
	return string(b)
}

// IngestSample is one utilization observation handed to Ingest. Exactly one
// of Tenant or Server identifies the subject (set the other to a negative
// value) — samples naming both, or neither, are rejected; a sample
// addressed by server is credited to the owning tenant's "average server"
// history. A non-positive At means one slot after the tenant's latest
// sample.
type IngestSample struct {
	Tenant tenant.ID
	Server tenant.ServerID
	At     time.Duration
	Value  float64
}

// IngestResult summarizes one Ingest call.
type IngestResult struct {
	Accepted int
	Rejected int
	// Horizon is the store's telemetry clock after the call — what the next
	// snapshot's AsOf will be.
	Horizon time.Duration
}

// Ingest appends live telemetry samples to a datacenter's rings. Samples
// naming an unknown tenant/server (or carrying a NaN value) are counted as
// rejected; the rest are appended. Never blocks queries or snapshot builds.
func (s *Service) Ingest(dc string, samples []IngestSample) (IngestResult, error) {
	sh, ok := s.shards[dc]
	if !ok {
		return IngestResult{}, unknownDC(dc)
	}
	if s.follower.Load() {
		// A follower's rings are frozen at bootstrap: its usage view comes
		// from the primary's stream, and local samples would silently diverge
		// the two. Clients must post telemetry to the primary.
		return IngestResult{}, ErrFollower
	}
	var res IngestResult
	for _, sample := range samples {
		if sample.Tenant >= 0 && sample.Server >= 0 {
			// Ambiguous subject: silently picking one would hide a client
			// bug (the server may belong to a different tenant).
			res.Rejected++
			continue
		}
		id := sample.Tenant
		if id < 0 {
			if sample.Server < 0 {
				res.Rejected++
				continue
			}
			owner := sh.pop.OwnerOf(sample.Server)
			if owner == nil {
				res.Rejected++
				continue
			}
			id = owner.ID
		}
		if _, err := sh.rings.Ingest(id, sample.At, sample.Value); err != nil {
			res.Rejected++
			continue
		}
		res.Accepted++
	}
	sh.ingested.Add(uint64(res.Accepted))
	res.Horizon = sh.rings.Horizon()
	return res, nil
}

// usageViewFor returns the shard's cached live usage view for a snapshot,
// recomputing it when the snapshot generation or ingest progress moved: the
// base map carries CurrentUtilization from each tenant's most recent ring
// sample, and the src overlay adds the ledger's live AllocatedCores on every
// read. Nil for snapshots of an unknown shard (e.g. a superseded service's).
func (s *Service) usageViewFor(snap *Snapshot) *usageView {
	sh, ok := s.shards[snap.Datacenter]
	if !ok || sh.rings == nil {
		return nil
	}
	total := sh.rings.TotalSamples()
	if v := sh.liveUsage.Load(); v != nil && v.generation == snap.Generation && v.samples == total {
		return v
	}
	if s.follower.Load() {
		// A follower's live usage is whatever the primary shipped — its own
		// rings are frozen at bootstrap. The apply loop publishes the view;
		// a cache miss here is a reader racing an apply, so rebuild from the
		// snapshot's shipped usage rather than the stale rings.
		return s.buildUsageView(sh, snap, snap.Usage, total)
	}
	usage := weightedClassUsage(snap.Clustering.Classes, sh.pop, func(cls *core.UtilizationClass, tid tenant.ID) float64 {
		return sh.rings.LastValue(tid, snap.Usage[cls.ID].CurrentUtilization)
	})
	// Concurrent recomputes race benignly: both views are equally current,
	// the last store wins.
	return s.buildUsageView(sh, snap, usage, total)
}

// buildUsageView assembles and publishes the shard's live usage view, and
// refreshes the ledger's admission floors from it: for every class whose live
// utilization rose above the snapshot's build-time view, the lost capacity
// becomes a reserve floor the ledger subtracts from the admission bound — so
// a utilization spike tightens admitted capacity immediately, between
// refreshes, instead of waiting for the next snapshot. The follower apply
// path shares this so replicated usage carries the same protection.
func (s *Service) buildUsageView(sh *shard, snap *Snapshot, usage map[core.ClassID]core.ClassUsage, samples uint64) *usageView {
	v := &usageView{
		generation: snap.Generation,
		samples:    samples,
		usage:      usage,
		src:        &ledgerUsage{generation: snap.Generation, base: usage, led: sh.led},
		idx:        snap.BuildSelectIndex(usage),
	}
	floors := make([]int64, len(snap.Clustering.Classes))
	for _, cls := range snap.Clustering.Classes {
		buildCap := snap.CapacityCores(core.JobMedium, cls.ID, snap.Usage[cls.ID])
		liveCap := snap.CapacityCores(core.JobMedium, cls.ID, usage[cls.ID])
		if d := buildCap - liveCap; d > 0 {
			floors[cls.ID] = int64(math.Floor(d * ledger.MillisPerCore))
		}
	}
	sh.led.SetFloors(snap.Generation, floors)
	sh.liveUsage.Store(v)
	return v
}

// UsageFor returns the per-class usage view queries should run against:
// CurrentUtilization recomputed from each tenant's most recent ring sample,
// so posted telemetry moves select decisions between refreshes instead of
// being frozen at the snapshot's AsOf. AllocatedCores in the returned map is
// the build-time value; the query path overlays the live ledger counters via
// usageViewFor's src. Snapshots from an unknown shard fall back to their
// build-time view.
func (s *Service) UsageFor(snap *Snapshot) map[core.ClassID]core.ClassUsage {
	if v := s.usageViewFor(snap); v != nil {
		return v.usage
	}
	return snap.Usage
}

// ShardStats is one shard's entry under "datacenters" on /metrics, in both
// expositions (see obs.Prom.Walk for the tags). Staleness of the live path is
// readable directly: generation + snapshot age say how old the
// characterization is, last_ingest_age_seconds how long ago live telemetry
// last arrived.
type ShardStats struct {
	Generation    uint64  `json:"generation" prom:"harvestd_snapshot_generation,gauge" help:"Current snapshot generation."`
	AgeSeconds    float64 `json:"age_seconds" prom:"harvestd_snapshot_age_seconds,gauge" help:"Age of the serving snapshot."`
	AsOfSeconds   float64 `json:"as_of_seconds"`
	BuildMs       float64 `json:"build_ms"`
	Refreshes     uint64  `json:"refreshes" prom:"harvestd_snapshot_refreshes_total,counter" help:"Snapshot refreshes."`
	RefreshErrors uint64  `json:"refresh_errors" prom:"harvestd_snapshot_refresh_errors_total,counter" help:"Snapshot refresh failures."`
	WarmRefreshes uint64  `json:"warm_refreshes"`
	FullRebuilds  uint64  `json:"full_rebuilds"`
	Classes       int     `json:"classes" prom:"harvestd_classes,gauge" help:"Utilization classes in the serving snapshot."`
	Servers       int     `json:"servers" prom:"harvestd_servers,gauge" help:"Servers in the serving snapshot."`
	Tenants       int     `json:"tenants" prom:"harvestd_tenants,gauge" help:"Tenants in the serving snapshot."`
	// IngestedSamples counts live samples accepted since boot (bootstrap
	// fills excluded); LastIngestAgeSeconds is the age of the newest one, -1
	// when live telemetry has never arrived and the shard is still serving
	// the bootstrap window.
	IngestedSamples      uint64  `json:"ingested_samples" prom:"harvestd_ingested_samples_total,counter" help:"Telemetry samples accepted."`
	LastIngestAgeSeconds float64 `json:"last_ingest_age_seconds"`
	PersistErrors        uint64  `json:"persist_errors"`
	// PersistLastBytes and PersistLastSeconds are the most recent persist —
	// a refresh's three files, or the two ledger files Close writes: what was
	// written, and how long copying, encoding and writing it took.
	PersistLastBytes   int64   `json:"persist_last_bytes" prom:"harvestd_persist_last_bytes,gauge" help:"Bytes the most recent persist wrote across the shard's state files."`
	PersistLastSeconds float64 `json:"persist_last_seconds" prom:"harvestd_persist_last_seconds,gauge" help:"Duration of the most recent persist (copy, encode and write of every file)."`
	// EvictedTenants counts telemetry rings reclaimed by the staleness
	// eviction since boot.
	EvictedTenants uint64 `json:"evicted_tenants"`
	// Refresh latency over successful snapshot refreshes since boot (recluster
	// + rekey + publish, excluding persistence I/O) — the latency the
	// incremental snapshot path is sized by, and the scale gate: steady-state
	// warm refreshes must hold their p99 under the refresh interval.
	RefreshMeanUs  float64        `json:"refresh_mean_us"`
	RefreshP99Us   uint64         `json:"refresh_p99_us"`
	RefreshMaxUs   uint64         `json:"refresh_max_us"`
	RefreshLatency *obs.Histogram `json:"-" prom:"harvestd_snapshot_refresh_microseconds,histogram" help:"Successful snapshot refresh latency (recluster + rekey + publish), in microseconds."`
	// Recluster is the most recent warm refresh's incremental work.
	Recluster core.ReclusterStats `json:"recluster"`
	// Ledger is the allocation ledger's books, StaleRetries filled in here.
	Ledger ledger.Stats `json:"ledger"`
	// Blocks is the block-placement ledger's books.
	Blocks blockledger.Stats `json:"blocks"`
	// PlacementRelaxed counts replica picks (initial and repair) that fell
	// back to ignoring row/column diversity because the constraint could not
	// be met — the previously-silent degradation of §7, now on the books.
	PlacementRelaxed uint64 `json:"placement_relaxed_total" prom:"harvestd_placement_relaxed_total,counter" help:"Replica picks that fell back to relaxed (non-diverse) placement."`
	// RepairFailures counts re-replicator attempts that went back on the
	// queue without landing.
	RepairFailures uint64 `json:"repair_failures" prom:"harvestd_block_repair_failures_total,counter" help:"Repair attempts that requeued without placing a replica."`
	// Repl is the replication loop's cost for this shard.
	Repl ShardReplStats `json:"repl"`
}

// ShardReplStats is one shard's view of the ship/apply loop: what a frame
// costs the primary to build and the follower to reconcile, how big the last
// beat was, and how little of it was news. The build fields move on a primary
// with followers attached, the apply fields and the change counters on a
// follower; BeatBytes is the last beat built or applied.
type ShardReplStats struct {
	BuildMeanUs float64        `json:"build_mean_us"`
	BuildP99Us  uint64         `json:"build_p99_us"`
	BuildMaxUs  uint64         `json:"build_max_us"`
	Build       *obs.Histogram `json:"-" prom:"harvestd_repl_build_seconds,histogram,seconds" help:"Time to build one replication frame (primary side)."`
	ApplyMeanUs float64        `json:"apply_mean_us"`
	ApplyP99Us  uint64         `json:"apply_p99_us"`
	ApplyMaxUs  uint64         `json:"apply_max_us"`
	Apply       *obs.Histogram `json:"-" prom:"harvestd_repl_apply_seconds,histogram,seconds" help:"Time to reconcile one replication frame into the ledgers (follower side)."`
	BeatBytes   int64          `json:"beat_bytes" prom:"harvestd_repl_beat_bytes,gauge" help:"Size of the last replication beat built or applied."`
	// Inserted, Rewritten and Deleted count, since boot, the leases and blocks
	// the follower's reconciles found new, changed and gone; everything else
	// a beat carried was already held as shipped.
	Inserted  uint64 `json:"apply_inserted" prom:"harvestd_repl_apply_changed_total,counter" labels:"kind=inserted" help:"Leases and blocks a reconcile inserted, rewrote or deleted (follower side)."`
	Rewritten uint64 `json:"apply_rewritten" prom:"harvestd_repl_apply_changed_total" labels:"kind=rewritten"`
	Deleted   uint64 `json:"apply_deleted" prom:"harvestd_repl_apply_changed_total" labels:"kind=deleted"`
}

// Stats reads one datacenter's counters, once, for both /metrics expositions.
// Books that fail to balance are logged here, with the books.
func (s *Service) Stats(dc string) (ShardStats, bool) {
	sh, ok := s.shards[dc]
	if !ok {
		return ShardStats{}, false
	}
	snap := sh.snap.Load()
	servers := 0
	for _, cls := range snap.Clustering.Classes {
		servers += cls.NumServers()
	}
	st := ShardStats{
		Generation:           snap.Generation,
		AgeSeconds:           snap.Age().Seconds(),
		AsOfSeconds:          snap.AsOf.Seconds(),
		BuildMs:              float64(snap.BuildDuration.Microseconds()) / 1000,
		Refreshes:            sh.refreshes.Load(),
		RefreshErrors:        sh.refreshErrors.Load(),
		WarmRefreshes:        sh.warmRefreshes.Load(),
		FullRebuilds:         sh.fullRebuilds.Load(),
		Classes:              len(snap.Clustering.Classes),
		Servers:              servers,
		Tenants:              len(sh.pop.Tenants),
		IngestedSamples:      sh.ingested.Load(),
		LastIngestAgeSeconds: -1,
		PersistErrors:        sh.persistErrors.Load(),
		PersistLastBytes:     sh.persistLastBytes.Load(),
		PersistLastSeconds:   time.Duration(sh.persistLastNanos.Load()).Seconds(),
		EvictedTenants:       sh.rings.Evictions(),
		RefreshMeanUs:        sh.refreshLatency.MeanMicros(),
		RefreshP99Us:         sh.refreshLatency.QuantileMicros(0.99),
		RefreshMaxUs:         sh.refreshLatency.MaxMicros(),
		RefreshLatency:       &sh.refreshLatency,
		Ledger:               sh.ledgerStats(),
		Blocks:               sh.blocks.Snapshot(),
		// The scheme is shared across generations (it is a pure function of
		// the population), so the relaxed counter accumulates per shard.
		PlacementRelaxed: snap.Scheme().RelaxedCount(),
		RepairFailures:   sh.repairFailures.Load(),
		Repl: ShardReplStats{
			BuildMeanUs: sh.replBuild.MeanMicros(),
			BuildP99Us:  sh.replBuild.QuantileMicros(0.99),
			BuildMaxUs:  sh.replBuild.MaxMicros(),
			Build:       &sh.replBuild,
			ApplyMeanUs: sh.replApply.MeanMicros(),
			ApplyP99Us:  sh.replApply.QuantileMicros(0.99),
			ApplyMaxUs:  sh.replApply.MaxMicros(),
			Apply:       &sh.replApply,
			BeatBytes:   sh.replBeatBytes.Load(),
			Inserted:    sh.replInserted.Load(),
			Rewritten:   sh.replRewritten.Load(),
			Deleted:     sh.replDeleted.Load(),
		},
	}
	if rst := sh.lastRecluster.Load(); rst != nil {
		st.Recluster = *rst
	}
	if at, ok := sh.rings.LastIngestAt(); ok {
		st.LastIngestAgeSeconds = time.Since(at).Seconds()
	}
	if st.Ledger.ConservationErrorMillis != 0 {
		slogger.Error("lease books do not balance", "dc", dc, "books", st.Ledger)
	}
	if st.Blocks.ConservationErrorSlots != 0 {
		slogger.Error("block books do not balance", "dc", dc, "books", st.Blocks)
	}
	return st, true
}

// ledgerStats is the allocation ledger's books plus the one counter of
// theirs the service keeps: select attempts that raced a re-key and re-ran.
func (sh *shard) ledgerStats() ledger.Stats {
	st := sh.led.Snapshot()
	st.StaleRetries = sh.staleRetries.Load()
	return st
}

// scratch is one caller's reusable working memory for the data-plane
// operations: select's candidate buffers and its result, a reservation's
// requests and grants, a placement's replicas. What an operation returns may
// alias it, and is valid until the same scratch's next operation. The binary
// server keeps one per connection and the JSON front one per pooled response
// writer, which is what makes the serving path allocation-free; the exported
// methods hand each call a fresh one, so their results are the caller's to
// keep. The zero value is ready.
type scratch struct {
	sel      core.SelectScratch
	reqs     []ledger.Request
	grants   []ledger.Grant
	granted  []float64
	replicas []tenant.ServerID
	reply    replyScratch
}

// selectOn runs class selection (Alg. 1) against a snapshot the caller
// already holds, with a pooled RNG and the live usage view — utilization
// from recent ring samples, AllocatedCores from the ledger's atomic
// counters. This is the advisory (non-reserving) path: it sees live
// allocations but does not create one.
func (s *Service) selectOn(sc *scratch, snap *Snapshot, job core.JobRequest) core.Selection {
	rng := s.rngs.Get().(*rand.Rand)
	var sel core.Selection
	if v := s.usageViewFor(snap); v != nil {
		sel = snap.selector.SelectIndexedInto(&sc.sel, rng, job, v.idx, v.src)
	} else {
		sel = snap.Select(rng, job)
	}
	s.rngs.Put(rng)
	return sel
}

// Grant is the outcome of a reserving select: the selection plus, when it was
// satisfiable, the lease holding the reserved cores.
type Grant struct {
	Selection core.Selection
	// Lease identifies the reservation for Release; zero when the selection
	// was unsatisfiable (nothing was reserved).
	Lease     uint64
	ExpiresAt time.Time // zero when the lease never expires
	// Granted is the cores actually reserved per Selection.Classes entry; it
	// sums to (at most a rounding millicore under) the job's demand.
	Granted []float64
}

// Reserved reports whether the select actually reserved cores.
func (g Grant) Reserved() bool { return g.Lease != 0 }

// selectReserveAttempts bounds the re-select loop: each retry means the
// class's headroom was concurrently claimed (or a re-key landed) between
// selection and CAS admission, so a fresh selection against the now-current
// counters is the correct response. Past the bound the datacenter is
// genuinely contended and "unsatisfiable right now" is the honest answer.
const selectReserveAttempts = 8

// SelectReserve runs class selection and atomically reserves the selected
// cores in the allocation ledger, returning a lease the caller must release
// (or let expire after ttl). ttl zero means the configured LeaseTTL;
// negative means no expiry. Concurrent SelectReserve calls can never jointly
// over-promise a class: admission is a CAS bounded by the class's capacity
// at the same usage view the selection ran against. An unsatisfiable job
// returns an empty selection and no lease, not an error.
func (s *Service) SelectReserve(dc string, job core.JobRequest, ttl time.Duration) (Grant, *Snapshot, error) {
	return s.SelectReserveTraced(dc, job, ttl, ledger.Meta{}, nil)
}

// SelectReserveTraced is SelectReserve with operator metadata on the
// resulting lease and optional span recording into tr (nil skips all trace
// bookkeeping — the untraced path pays only nil checks).
func (s *Service) SelectReserveTraced(dc string, job core.JobRequest, ttl time.Duration, meta ledger.Meta, tr *obs.Trace) (Grant, *Snapshot, error) {
	return s.selectReserve(new(scratch), dc, job, ttl, meta, tr)
}

func (s *Service) selectReserve(sc *scratch, dc string, job core.JobRequest, ttl time.Duration, meta ledger.Meta, tr *obs.Trace) (Grant, *Snapshot, error) {
	sh, ok := s.shards[dc]
	if !ok {
		return Grant{}, nil, unknownDC(dc)
	}
	if s.follower.Load() {
		return Grant{}, nil, ErrFollower
	}
	if ttl == 0 {
		ttl = s.cfg.LeaseTTL
	}
	if ttl < 0 {
		ttl = 0 // ledger: no expiry
	}
	var snap *Snapshot
	var waitUntil time.Time
	for attempt := 0; attempt < selectReserveAttempts; attempt++ {
		var spanStart time.Time
		if tr != nil {
			spanStart = time.Now()
		}
		snap = sh.snap.Load()
		v := s.usageViewFor(snap)
		rng := s.rngs.Get().(*rand.Rand)
		sel := snap.selector.SelectIndexedInto(&sc.sel, rng, job, v.idx, v.src)
		s.rngs.Put(rng)
		if tr != nil {
			tr.Span("snapshot_read", spanStart)
		}
		if sel.Empty() {
			return Grant{Selection: sel}, snap, nil
		}
		reqs := sc.reqs[:0]
		granted := append(sc.granted[:0], make([]float64, len(sel.Classes))...)
		remaining := job.MaxConcurrentCores
		for i, id := range sel.Classes {
			want := sel.Headrooms[i]
			if want > remaining {
				want = remaining
			}
			// Floor to the ledger's fixed point so a demand equal to the full
			// headroom cannot round up past the capacity bound. A
			// sub-millicore demand rounds *up* to one millicore instead —
			// flooring everything to zero would leave nothing to reserve and
			// turn a well-formed request into an error.
			want = math.Floor(want*ledger.MillisPerCore) / ledger.MillisPerCore
			if want <= 0 {
				if len(reqs) == 0 && remaining > 0 {
					want = 1.0 / ledger.MillisPerCore
				} else {
					continue
				}
			}
			reqs = append(reqs, ledger.Request{
				Class:    id,
				Cores:    want,
				Capacity: snap.CapacityCores(job.Type, id, v.src.UsageOf(id)),
			})
			granted[i] = want
			remaining -= want
		}
		sc.reqs, sc.granted = reqs, granted
		var reserveStart time.Time
		if tr != nil {
			reserveStart = time.Now()
		}
		lease, err := sh.led.ReserveInto(sc.grants, snap.Generation, reqs, ttl, time.Now(), meta)
		if tr != nil {
			tr.Span("ledger_reserve", reserveStart)
		}
		if err == nil {
			sc.grants = lease.Grants
			return Grant{Selection: sel, Lease: lease.ID, ExpiresAt: lease.ExpiresAt, Granted: granted}, snap, nil
		}
		if errors.Is(err, ledger.ErrStaleGeneration) {
			// A refresh re-keyed the ledger between selection and admission:
			// wait for its snapshot and re-run. That is the refresh's doing,
			// not contention, so it does not use up an attempt.
			sh.staleRetries.Add(1)
			if sh.awaitPublish(sh.led.Generation(), &waitUntil) {
				attempt--
			}
			continue
		}
		var ie *ledger.InsufficientError
		if !errors.As(err, &ie) {
			return Grant{}, snap, err
		}
		// Concurrent reservations claimed the headroom first; re-select
		// against the now-current counters.
	}
	return Grant{}, snap, nil
}

// Release returns a lease's cores to their classes. The returned lease
// reports what was actually released (grants may have been re-keyed across
// snapshot generations since the reservation).
func (s *Service) Release(dc string, id uint64) (ledger.Lease, error) {
	sh, ok := s.shards[dc]
	if !ok {
		return ledger.Lease{}, unknownDC(dc)
	}
	if s.follower.Load() {
		return ledger.Lease{}, ErrFollower
	}
	return sh.led.Release(id)
}

// Renew extends a live lease's expiry deadline without moving any cores:
// the grants and the conservation books are untouched, only the deadline the
// sweeper enforces is rescheduled. ttl zero means the configured LeaseTTL;
// negative means the lease never expires. Unknown (or already released or
// expired) leases return ledger.ErrUnknownLease.
func (s *Service) Renew(dc string, id uint64, ttl time.Duration) (ledger.Lease, error) {
	return s.renew(new(scratch), dc, id, ttl)
}

func (s *Service) renew(sc *scratch, dc string, id uint64, ttl time.Duration) (ledger.Lease, error) {
	sh, ok := s.shards[dc]
	if !ok {
		return ledger.Lease{}, unknownDC(dc)
	}
	if s.follower.Load() {
		return ledger.Lease{}, ErrFollower
	}
	if ttl == 0 {
		ttl = s.cfg.LeaseTTL
	}
	if ttl < 0 {
		ttl = 0 // ledger: no expiry
	}
	lease, err := sh.led.RenewInto(sc.grants, id, ttl, time.Now())
	if err == nil {
		sc.grants = lease.Grants
	}
	return lease, err
}

// Leases returns one page of dc's live leases (ordered by id) plus the total
// live count; ok is false for an unknown datacenter.
func (s *Service) Leases(dc string, offset, limit int) (page []ledger.Lease, total int, ok bool) {
	sh, found := s.shards[dc]
	if !found {
		return nil, 0, false
	}
	page, total = sh.led.List(offset, limit)
	return page, total, true
}

// LedgerStats returns the allocation ledger's counters for a datacenter.
func (s *Service) LedgerStats(dc string) (ledger.Stats, bool) {
	sh, ok := s.shards[dc]
	if !ok {
		return ledger.Stats{}, false
	}
	return sh.ledgerStats(), true
}

// LedgerOccupancy returns the ledger's generation and per-class occupancy
// without touching the lease mutex — what the hot /classes and
// /servers/{id}/class paths read, so they never serialize against
// reservation bookkeeping.
func (s *Service) LedgerOccupancy(dc string) (generation uint64, allocMillisByClass []int64, ok bool) {
	sh, found := s.shards[dc]
	if !found {
		return 0, nil, false
	}
	generation, allocMillisByClass = sh.led.Occupancy()
	return generation, allocMillisByClass, true
}

// placeOn runs replica placement (Alg. 2) against a snapshot the caller
// already holds, with a pooled RNG, into the scratch's replica buffer.
func (s *Service) placeOn(sc *scratch, snap *Snapshot, c core.PlacementConstraints) ([]tenant.ServerID, error) {
	rng := s.rngs.Get().(*rand.Rand)
	replicas, err := snap.placeInto(sc.replicas, rng, c)
	s.rngs.Put(rng)
	if err == nil {
		sc.replicas = replicas
	}
	return replicas, err
}

// Select answers a class-selection query (Alg. 1) against the datacenter's
// current snapshot, and returns that snapshot so the caller can report the
// generation it was answered at.
func (s *Service) Select(dc string, job core.JobRequest) (core.Selection, *Snapshot, error) {
	snap, ok := s.Snapshot(dc)
	if !ok {
		return core.Selection{}, nil, unknownDC(dc)
	}
	return s.selectOn(new(scratch), snap, job), snap, nil
}

// Place answers a replica-placement query (Alg. 2) against the datacenter's
// current snapshot.
func (s *Service) Place(dc string, c core.PlacementConstraints) ([]tenant.ServerID, *Snapshot, error) {
	return s.place(new(scratch), dc, c)
}

func (s *Service) place(sc *scratch, dc string, c core.PlacementConstraints) ([]tenant.ServerID, *Snapshot, error) {
	snap, ok := s.Snapshot(dc)
	if !ok {
		return nil, nil, unknownDC(dc)
	}
	replicas, err := s.placeOn(sc, snap, c)
	return replicas, snap, err
}

// BlockPlacement is the outcome of CreateBlock: the issued block id, the
// servers holding its replicas, and the snapshot generation the placement was
// validated against.
type BlockPlacement struct {
	Block      uint64
	Generation uint64
	Replicas   []tenant.ServerID
}

// CreateBlock places a block's replicas via Alg. 2 against the current
// snapshot and records them in the block ledger — the durable twin of Place,
// which only advises. A placement racing a snapshot refresh detects the
// generation change at the ledger (blockledger.ErrStaleGeneration) and
// re-places against the published snapshot, exactly like SelectReserve's
// re-select loop. c.Replication is the block's R; c.EnforceEnvironment
// becomes the block's recorded diversity promise for later re-keys.
func (s *Service) CreateBlock(dc string, c core.PlacementConstraints) (BlockPlacement, error) {
	return s.createBlock(new(scratch), dc, c)
}

func (s *Service) createBlock(sc *scratch, dc string, c core.PlacementConstraints) (BlockPlacement, error) {
	sh, ok := s.shards[dc]
	if !ok {
		return BlockPlacement{}, unknownDC(dc)
	}
	if s.follower.Load() {
		return BlockPlacement{}, ErrFollower
	}
	var waitUntil time.Time
	for attempt := 0; attempt < selectReserveAttempts; attempt++ {
		snap := sh.snap.Load()
		replicas, err := s.placeOn(sc, snap, c)
		if err != nil {
			return BlockPlacement{}, err
		}
		id, err := sh.blocks.Create(snap.Generation, replicas, c.EnforceEnvironment)
		if err == nil {
			return BlockPlacement{Block: id, Generation: snap.Generation, Replicas: replicas}, nil
		}
		if errors.Is(err, blockledger.ErrStaleGeneration) {
			// A refresh re-keyed the block ledger between placement and
			// recording: the replicas were picked against a grid that no
			// longer exists, so re-place against the new snapshot once it is
			// published; the wait does not use up an attempt.
			if sh.awaitPublish(sh.blocks.Generation(), &waitUntil) {
				attempt--
			}
			continue
		}
		return BlockPlacement{}, err
	}
	return BlockPlacement{}, fmt.Errorf("service: %s: %w", dc, errCreateRaced)
}

// ReimageServer ingests one reimaging event: every block replica on the
// server is marked lost and its repair enqueued for the background
// re-replicator. Returns how many replicas the event hit (zero when the
// server held nothing — still a valid event).
func (s *Service) ReimageServer(dc string, server tenant.ServerID) (lost int, err error) {
	sh, ok := s.shards[dc]
	if !ok {
		return 0, unknownDC(dc)
	}
	if s.follower.Load() {
		return 0, ErrFollower
	}
	return sh.blocks.Reimage(server), nil
}

// BlockStats returns the block ledger's counters for a datacenter.
func (s *Service) BlockStats(dc string) (blockledger.Stats, bool) {
	sh, ok := s.shards[dc]
	if !ok {
		return blockledger.Stats{}, false
	}
	return sh.blocks.Snapshot(), true
}

// repairLoop is the background re-replicator (primary role only): each tick
// it drains one batch of repair refs per datacenter and re-places them via
// Alg. 2 with the surviving replicas' constraints carried over.
func (s *Service) repairLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.RepairInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			for _, dc := range s.order {
				s.RepairBlocks(dc, s.cfg.RepairBatch)
			}
		}
	}
}

// RepairBlocks attempts up to max queued repairs for one datacenter and
// returns how many landed. The background re-replicator calls this on its
// ticker; tests and operational tooling may call it directly to drain
// synchronously. Repairs that cannot land (no eligible server under the
// current grid) go back on the queue and count as repair failures.
func (s *Service) RepairBlocks(dc string, max int) int {
	sh, ok := s.shards[dc]
	if !ok || s.follower.Load() {
		return 0
	}
	landed := 0
	for _, ref := range sh.blocks.TakeRepairs(max) {
		if s.repairOne(sh, ref) {
			landed++
		} else {
			sh.blocks.Requeue(ref)
			sh.repairFailures.Add(1)
		}
	}
	return landed
}

// repairOne re-places a single pending replica slot. True means the ref is
// settled — the repair landed, or the slot no longer needs one (duplicate
// delivery, deleted block); false means the caller should requeue it.
func (s *Service) repairOne(sh *shard, ref blockledger.Repair) bool {
	var waitUntil time.Time
	for attempt := 0; attempt < selectReserveAttempts; attempt++ {
		snap := sh.snap.Load()
		slots, envStrict, ok := sh.blocks.Slots(ref.Block)
		if !ok || ref.Replica < 0 || ref.Replica >= len(slots) || slots[ref.Replica] != core.NoServer {
			return true
		}
		rng := s.rngs.Get().(*rand.Rand)
		server, err := snap.PlaceSlot(rng, slots, ref.Replica, core.PlacementConstraints{EnforceEnvironment: envStrict})
		s.rngs.Put(rng)
		if err != nil {
			return false
		}
		switch err := sh.blocks.Replace(snap.Generation, ref, server); {
		case err == nil:
			return true
		case errors.Is(err, blockledger.ErrStaleGeneration):
			// A refresh re-keyed mid-repair; re-place against the new grid.
			if sh.awaitPublish(sh.blocks.Generation(), &waitUntil) {
				attempt--
			}
			continue
		case errors.Is(err, blockledger.ErrReplicaPlaced), errors.Is(err, blockledger.ErrUnknownBlock):
			return true
		default:
			// The picked server raced into holding another replica of this
			// block (a concurrent repair); pick again.
			continue
		}
	}
	return false
}
