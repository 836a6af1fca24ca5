package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"harvest/internal/blockledger"
	"harvest/internal/core"
	"harvest/internal/ledger"
	"harvest/internal/signalproc"
	"harvest/internal/tenant"
)

// Snapshot persistence: every published snapshot's clustering + usage view
// is serialized to <PersistDir>/<dc>.snapshot.json via a temp file and an
// atomic rename, and the last good file is restored at construction so a
// restarted daemon serves its previous characterization immediately instead
// of paying the boot re-clustering. The placement scheme, selector, and
// rings are rebuilt from the (deterministically regenerated) population; the
// file carries a population fingerprint so a daemon restarted with different
// scale/seed flags discards the stale file and re-clusters.

// persistVersion guards the file format; bump on incompatible changes.
// v2: lease ids became random values — the ledger state lost its
// next_id counter, and sequential ids from v1 files must not survive onto
// the binary wire, so v1 files are discarded wholesale.
const persistVersion = 2

type persistedClass struct {
	ID                 int       `json:"id"`
	Pattern            int       `json:"pattern"`
	AvgUtilization     float64   `json:"avg_utilization"`
	PeakUtilization    float64   `json:"peak_utilization"`
	CurrentUtilization float64   `json:"current_utilization"`
	Centroid           []float64 `json:"centroid"`
	Tenants            []int64   `json:"tenants"`
	Servers            []int64   `json:"servers"`
}

// persistHeader opens each of a datacenter's three files: the format version
// and the population fingerprint. A restored clustering, lease or block
// placement only makes sense over the exact population it was made against,
// so a daemon restarted with different scale/seed flags discards the files.
type persistHeader struct {
	Version         int     `json:"version"`
	Datacenter      string  `json:"datacenter"`
	Seed            int64   `json:"seed"`
	ScaleDatacenter float64 `json:"scale_datacenter"`
}

func (h *persistHeader) header() *persistHeader { return h }

func (s *Service) persistHeaderFor(sh *shard) persistHeader {
	return persistHeader{Version: persistVersion, Datacenter: sh.dc, Seed: s.cfg.Scale.Seed, ScaleDatacenter: s.cfg.Scale.Datacenter}
}

type persistedSnapshot struct {
	persistHeader
	Generation  uint64    `json:"generation"`
	AsOfSeconds float64   `json:"as_of_seconds"`
	BuiltAt     time.Time `json:"built_at"`
	// The rest of the population fingerprint.
	NumTenants int `json:"num_tenants"`
	NumServers int `json:"num_servers"`

	Classes []persistedClass `json:"classes"`
}

// persistedLedger and persistedBlocks are the two ledgers' exported states
// under the same header.
type persistedLedger struct {
	persistHeader
	State ledger.State `json:"state"`
}

type persistedBlocks struct {
	persistHeader
	State blockledger.State `json:"state"`
}

func persistPath(dir, dc string) string {
	return filepath.Join(dir, dc+".snapshot.json")
}

func ledgerPath(dir, dc string) string {
	return filepath.Join(dir, dc+".ledger.json")
}

func blocksPath(dir, dc string) string {
	return filepath.Join(dir, dc+".blocks.json")
}

// writeStateFile marshals v to path through a temp file and an atomic
// rename: a crash mid-write leaves the previous good file intact.
func writeStateFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// readStateFile unmarshals path into v and checks its header against the
// shard this process is serving.
func (s *Service) readStateFile(path string, sh *shard, v interface{ header() *persistHeader }) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("corrupt file: %w", err)
	}
	switch got, want := *v.header(), s.persistHeaderFor(sh); {
	case got.Version != want.Version:
		return fmt.Errorf("version %d, want %d", got.Version, want.Version)
	case got.Datacenter != want.Datacenter:
		return fmt.Errorf("file is for %q", got.Datacenter)
	case got != want:
		return fmt.Errorf("population fingerprint mismatch (seed/scale changed?)")
	}
	return nil
}

// persistSnapshot writes the snapshot, and the allocation and block ledgers
// riding alongside it so leases and blocks survive a restart, to disk.
// Best-effort: a failure is counted and logged but never fails the publish
// (the in-memory snapshot is already serving). The boot path persists a
// snapshot before the shard's ledgers exist; their writes are skipped then
// (they are empty anyway).
func (s *Service) persistSnapshot(sh *shard, snap *Snapshot) {
	if s.cfg.PersistDir == "" {
		return
	}
	s.persist(sh, "snapshot", persistPath(s.cfg.PersistDir, sh.dc), s.snapshotFile(sh, snap))
	s.persistLedger(sh)
	s.persistBlocks(sh)
}

func (s *Service) persist(sh *shard, what, path string, v any) {
	if err := writeStateFile(path, v); err != nil {
		sh.persistErrors.Add(1)
		slogger.Warn(what+" persist failed", "dc", sh.dc, "err", err)
	}
}

func (s *Service) persistLedger(sh *shard) {
	if s.cfg.PersistDir != "" && sh.led != nil {
		s.persist(sh, "ledger", ledgerPath(s.cfg.PersistDir, sh.dc),
			persistedLedger{persistHeader: s.persistHeaderFor(sh), State: sh.led.Export()})
	}
}

func (s *Service) persistBlocks(sh *shard) {
	if s.cfg.PersistDir != "" && sh.blocks != nil {
		s.persist(sh, "block ledger", blocksPath(s.cfg.PersistDir, sh.dc),
			persistedBlocks{persistHeader: s.persistHeaderFor(sh), State: sh.blocks.Export()})
	}
}

// restore reads one of the shard's files into v, reporting whether there is
// state to restore from it. Any problem but a missing file is logged, and
// means the caller starts empty or from scratch: a bad file can only cost
// time, leases or blocks, never correctness of the books going forward.
func (s *Service) restore(sh *shard, what, path string, v interface{ header() *persistHeader }) bool {
	if s.cfg.PersistDir == "" {
		return false
	}
	err := s.readStateFile(path, sh, v)
	if err != nil && !os.IsNotExist(err) {
		slogger.Warn("ignoring persisted "+what, "dc", sh.dc, "err", err)
	}
	return err == nil
}

// restoreLedger loads the shard's persisted allocation ledger, valid only
// against the snapshot that was actually restored (generation must match —
// a from-scratch boot or a discarded snapshot file always starts an empty
// ledger). Leases that expired while the daemon was down are reclaimed
// immediately. Nil means "start empty".
func (s *Service) restoreLedger(sh *shard, snap *Snapshot) *ledger.Ledger {
	var p persistedLedger
	if !s.restore(sh, "ledger", ledgerPath(s.cfg.PersistDir, sh.dc), &p) {
		return nil
	}
	led, err := ledger.Restore(p.State, snap.Generation, len(snap.Clustering.Classes))
	if err != nil {
		slogger.Warn("ignoring persisted ledger", "dc", sh.dc, "err", err)
		return nil
	}
	if n, millis := led.ExpireBefore(time.Now()); n > 0 {
		slogger.Info("restored ledger, expired stale leases from downtime", "dc", sh.dc, "leases", n, "cores", ledger.CoresOf(millis))
	}
	return led
}

// restoreBlocks loads the shard's persisted block ledger. The repair queue is
// rebuilt from the pending slots, so repairs in flight at shutdown are
// recovered, not dropped. The placement grid is a pure function of the
// (fingerprint-checked, deterministically regenerated) population, so
// restored placements are still valid under the restored snapshot's scheme.
// Nil means "start empty".
func (s *Service) restoreBlocks(sh *shard, snap *Snapshot) *blockledger.Ledger {
	var p persistedBlocks
	if !s.restore(sh, "block ledger", blocksPath(s.cfg.PersistDir, sh.dc), &p) {
		return nil
	}
	led, err := blockledger.Restore(p.State, snap.Generation)
	if err != nil {
		slogger.Warn("ignoring persisted block ledger", "dc", sh.dc, "err", err)
		return nil
	}
	if st := led.Snapshot(); st.Blocks > 0 {
		slogger.Info("restored block ledger", "dc", sh.dc, "blocks", st.Blocks, "pending", st.Pending)
	}
	return led
}

// snapshotFile is the snapshot's clustering and usage view in file form.
func (s *Service) snapshotFile(sh *shard, snap *Snapshot) persistedSnapshot {
	p := persistedSnapshot{
		persistHeader: s.persistHeaderFor(sh),
		Generation:    snap.Generation,
		AsOfSeconds:   snap.AsOf.Seconds(),
		BuiltAt:       snap.BuiltAt,
		NumTenants:    len(sh.pop.Tenants),
		NumServers:    sh.pop.NumServers(),
		Classes:       make([]persistedClass, 0, len(snap.Clustering.Classes)),
	}
	for _, cls := range snap.Clustering.Classes {
		pc := persistedClass{
			ID:                 int(cls.ID),
			Pattern:            int(cls.Pattern),
			AvgUtilization:     cls.AvgUtilization,
			PeakUtilization:    cls.PeakUtilization,
			CurrentUtilization: snap.Usage[cls.ID].CurrentUtilization,
			Centroid:           cls.Centroid,
			Tenants:            make([]int64, len(cls.Tenants)),
			Servers:            make([]int64, len(cls.Servers)),
		}
		for i, tid := range cls.Tenants {
			pc.Tenants[i] = int64(tid)
		}
		for i, srv := range cls.Servers {
			pc.Servers[i] = int64(srv)
		}
		p.Classes = append(p.Classes, pc)
	}
	return p
}

// restoreSnapshot loads the shard's persisted snapshot, validates it against
// the regenerated population, and reassembles it into a queryable snapshot.
// Any problem (no file, version or fingerprint mismatch, corrupt JSON,
// inconsistent membership) logs and returns nil — the caller then clusters
// from scratch.
func (s *Service) restoreSnapshot(sh *shard) (*Snapshot, bool) {
	var p persistedSnapshot
	if !s.restore(sh, "snapshot", persistPath(s.cfg.PersistDir, sh.dc), &p) {
		return nil, false
	}
	snap, err := s.snapshotFromFile(sh, &p)
	if err != nil {
		slogger.Warn("ignoring persisted snapshot", "dc", sh.dc, "err", err)
		return nil, false
	}
	return snap, true
}

func (s *Service) snapshotFromFile(sh *shard, p *persistedSnapshot) (*Snapshot, error) {
	if p.NumTenants != len(sh.pop.Tenants) || p.NumServers != sh.pop.NumServers() {
		return nil, fmt.Errorf("population fingerprint mismatch (seed/scale changed?)")
	}
	if len(p.Classes) == 0 {
		return nil, fmt.Errorf("no classes")
	}

	classes := make([]*core.UtilizationClass, 0, len(p.Classes))
	usage := make(map[core.ClassID]core.ClassUsage, len(p.Classes))
	for _, pc := range p.Classes {
		if pc.Pattern < 0 || pc.Pattern >= signalproc.NumPatterns {
			return nil, fmt.Errorf("class %d: bad pattern %d", pc.ID, pc.Pattern)
		}
		cls := &core.UtilizationClass{
			ID:              core.ClassID(pc.ID),
			Pattern:         signalproc.Pattern(pc.Pattern),
			AvgUtilization:  pc.AvgUtilization,
			PeakUtilization: pc.PeakUtilization,
			Centroid:        pc.Centroid,
			Tenants:         make([]tenant.ID, len(pc.Tenants)),
			Servers:         make([]tenant.ServerID, len(pc.Servers)),
		}
		for i, tid := range pc.Tenants {
			id := tenant.ID(tid)
			if sh.pop.ByID(id) == nil {
				return nil, fmt.Errorf("class %d: unknown tenant %d", pc.ID, tid)
			}
			cls.Tenants[i] = id
		}
		for i, srv := range pc.Servers {
			cls.Servers[i] = tenant.ServerID(srv)
		}
		classes = append(classes, cls)
		usage[cls.ID] = core.ClassUsage{CurrentUtilization: pc.CurrentUtilization}
	}
	clustering, err := core.NewClusteringFromClasses(classes)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	snap, err := assembleSnapshot(sh.dc, sh.pop, sh.rings, s.cfg, p.Generation, clustering, start, nil)
	if err != nil {
		return nil, err
	}
	// Restore the persisted view verbatim: the snapshot represents the state
	// as of its original build, and its age stays honest about that. The
	// live usage overlay refreshes CurrentUtilization on the first query.
	snap.Usage = usage
	snap.AsOf = time.Duration(p.AsOfSeconds * float64(time.Second))
	snap.BuiltAt = p.BuiltAt
	snap.BuildDuration = time.Since(start)
	// The previous process may have ingested live samples past the bootstrap
	// window the rings were just re-seeded from; pull the telemetry clock up
	// to the persisted AsOf so the next refresh cannot move AsOf backwards.
	sh.rings.AdvanceClock(snap.AsOf)
	return snap, nil
}
