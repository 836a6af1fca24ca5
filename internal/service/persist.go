package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"harvest/internal/blockledger"
	"harvest/internal/ledger"
	"harvest/internal/wire"
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

	// Classes are the records a replication snapshot frame carries too.
	Classes []wire.ReplClass `json:"classes"`
}

// persistedLedger and persistedBlocks are the two ledgers' states — the
// records a replication frame's two sections carry too — under the same
// header.
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

// writeFileAtomic has write fill path's temp file and renames it over path,
// so a crash mid-write leaves the previous good file intact — and so does a
// failure: whichever step fails (create, a write, close, the rename), the temp
// file this call created is removed and path is untouched. Returns the size of
// the file written.
func writeFileAtomic(path string, write func(w io.Writer) error) (int64, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err // nothing of ours to remove
	}
	err = write(f)
	var size int64
	if err == nil {
		size, err = f.Seek(0, io.SeekCurrent)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return size, nil
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

// persistShard writes the snapshot, and the allocation and block ledgers
// riding alongside it so leases and blocks survive a restart, to disk.
// Best-effort: a failure is counted and logged but never fails the publish
// (the in-memory snapshot is already serving). The boot path persists a
// snapshot before the shard's ledgers exist; their writes are skipped then
// (they are empty anyway). A nil snap writes the ledgers alone (Close).
//
// The ledger files go through sh.stage, so the caller holds sh.mu (or, at
// boot, the only reference to the shard).
func (s *Service) persistShard(sh *shard, snap *Snapshot) {
	if s.cfg.PersistDir == "" {
		return
	}
	start := time.Now()
	var written int64
	if snap != nil {
		written += s.persist(sh, "snapshot", persistPath(s.cfg.PersistDir, sh.dc), func(w io.Writer) error {
			data, err := json.Marshal(s.snapshotFile(sh, snap))
			if err == nil {
				_, err = w.Write(data)
			}
			return err
		})
	}
	st := &sh.stage
	if sh.led != nil {
		st.copyLeases(sh.led)
		written += s.persist(sh, "ledger", ledgerPath(s.cfg.PersistDir, sh.dc), func(w io.Writer) error {
			return st.writeLedgerFile(w, s.persistHeaderFor(sh))
		})
	}
	if sh.blocks != nil {
		st.copyBlocks(sh.blocks)
		written += s.persist(sh, "block ledger", blocksPath(s.cfg.PersistDir, sh.dc), func(w io.Writer) error {
			return st.writeBlocksFile(w, s.persistHeaderFor(sh))
		})
	}
	sh.persistLastBytes.Store(written)
	sh.persistLastNanos.Store(int64(time.Since(start)))
}

// persist writes one of the shard's files; a failure is counted and logged
// once. Returns the bytes written.
func (s *Service) persist(sh *shard, what, path string, write func(w io.Writer) error) int64 {
	n, err := writeFileAtomic(path, write)
	if err != nil {
		sh.persistErrors.Add(1)
		slogger.Warn(what+" persist failed", "dc", sh.dc, "err", err)
	}
	return n
}

// persistStage is the storage a shard's ledger files are built in, kept across
// persists so that one allocates only when the state has outgrown every
// earlier one. A file is built in two steps that never overlap. First the
// ledger's records are copied out under one Walk: all the ledger's shard locks
// are held for a flat copy — less than an Export holds them — and for no
// encoding or I/O. Then, with the locks released, the copy is encoded into buf
// a chunk at a time and each chunk written to the file, so the encoded file
// (≈145 B a block) is never in memory whole.
type persistStage struct {
	leases   ledger.State
	grants   []wire.ReplGrant // every staged lease's Grants, back to back
	blocks   blockledger.State
	replicas []wire.ReplBlockReplica // every staged block's Replicas, back to back
	buf      []byte                  // the chunk being encoded
}

// persistChunk is how much encoded file a stage buffers between writes.
const persistChunk = 256 << 10

// copyLeases makes st.leases the ledger's state. Each lease's Grants is a
// window of the one grants slice; when that slice grows mid-walk, windows cut
// earlier keep the array they were cut from, which holds what they need.
func (st *persistStage) copyLeases(led *ledger.Ledger) {
	st.grants = st.grants[:0]
	staged := st.leases.Leases[:0]
	led.Walk(func(books ledger.State, leases int) {
		st.leases = books
		st.leases.Leases = slices.Grow(staged, leases)
	}, func(ls wire.ReplLease) {
		at := len(st.grants)
		st.grants = append(st.grants, ls.Grants...)
		ls.Grants = st.grants[at:]
		st.leases.Leases = append(st.leases.Leases, ls)
	})
}

// copyBlocks is copyLeases for the block ledger.
func (st *persistStage) copyBlocks(blocks *blockledger.Ledger) {
	staged := st.blocks.Blocks[:0]
	blocks.Walk(func(books blockledger.State, count int) {
		st.blocks = books
		st.blocks.Blocks = slices.Grow(staged, count)
		st.replicas = slices.Grow(st.replicas[:0], 3*count) // a guess at R that costs a regrowth when low
	}, func(b wire.ReplBlock) {
		at := len(st.replicas)
		st.replicas = append(st.replicas, b.Replicas...)
		b.Replicas = st.replicas[at:]
		st.blocks.Blocks = append(st.blocks.Blocks, b)
	})
}

// writeLedgerFile and writeBlocksFile write the JSON of persistedLedger /
// persistedBlocks for the copied state. The header and the books are what
// json.Marshal writes for them, so the struct tags are their only encoder;
// the records, the part that grows with the state, are appended field by
// field in the idiom of wire.Append* instead of marshalling the struct whole
// into a buffer of encoding/json's. readStateFile and Restore decode the
// result with encoding/json into those same structs, which remain the
// format's definition; TestStreamedFilesDecodeAsExportedState holds the two
// together.
func (st *persistStage) writeLedgerFile(w io.Writer, h persistHeader) error {
	books := st.leases
	books.Leases = nil
	out, err := st.beginFile(w, persistedLedger{persistHeader: h, State: books})
	if err != nil {
		return err
	}
	for i := range st.leases.Leases {
		out.buf = appendLease(out.buf, i > 0, &st.leases.Leases[i])
		out.flushIfFull()
	}
	return out.end(st)
}

func (st *persistStage) writeBlocksFile(w io.Writer, h persistHeader) error {
	books := st.blocks
	books.Blocks = nil
	out, err := st.beginFile(w, persistedBlocks{persistHeader: h, State: books})
	if err != nil {
		return err
	}
	for i := range st.blocks.Blocks {
		out.buf = appendBlock(out.buf, i > 0, &st.blocks.Blocks[i])
		out.flushIfFull()
	}
	return out.end(st)
}

// stateFile is one ledger file on its way out: the chunk being appended to
// and the first write error, after which it writes no more.
type stateFile struct {
	w   io.Writer
	buf []byte
	err error
}

// beginFile starts a file in the stage's buffer with all of v — a file
// struct whose state holds no records — but its record list: the last thing
// in it, and left open.
func (st *persistStage) beginFile(w io.Writer, v any) (stateFile, error) {
	head, err := json.Marshal(v)
	if err != nil {
		return stateFile{}, err
	}
	head, ok := bytes.CutSuffix(head, []byte(`null}}`))
	if !ok {
		return stateFile{}, fmt.Errorf("service: a state file must end with its record list: %s", head)
	}
	if st.buf == nil {
		st.buf = make([]byte, 0, persistChunk+persistChunk/8) // a chunk and the record that filled it
	}
	return stateFile{w: w, buf: append(append(st.buf[:0], head...), '[')}, nil
}

func (f *stateFile) flushIfFull() {
	if len(f.buf) >= persistChunk {
		f.flush()
	}
}

func (f *stateFile) flush() {
	if f.err == nil {
		_, f.err = f.w.Write(f.buf)
	}
	f.buf = f.buf[:0]
}

// end closes the record list, "state" and the file, writes what is left and
// hands the buffer back to the stage.
func (f *stateFile) end(st *persistStage) error {
	f.buf = append(f.buf, `]}}`...)
	f.flush()
	st.buf = f.buf
	return f.err
}

func appendLease(dst []byte, comma bool, pl *wire.ReplLease) []byte {
	if comma {
		dst = append(dst, ',')
	}
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, pl.ID, 10)
	dst = append(dst, `,"expires_at":"`...)
	dst = pl.ExpiresAt.AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, `","grants":[`...)
	for i, g := range pl.Grants {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"class":`...)
		dst = strconv.AppendUint(dst, uint64(g.Class), 10)
		dst = append(dst, `,"millis":`...)
		dst = strconv.AppendInt(dst, g.Millis, 10)
		dst = append(dst, '}')
	}
	dst = append(dst, ']')
	if pl.JobID != "" {
		dst = appendJSONString(append(dst, `,"job_id":`...), pl.JobID)
	}
	if pl.Owner != "" {
		dst = appendJSONString(append(dst, `,"owner":`...), pl.Owner)
	}
	return append(dst, '}')
}

func appendBlock(dst []byte, comma bool, pb *wire.ReplBlock) []byte {
	if comma {
		dst = append(dst, ',')
	}
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, pb.ID, 10)
	if pb.EnvStrict {
		dst = append(dst, `,"env_strict":true`...)
	}
	dst = append(dst, `,"replicas":[`...)
	for i, r := range pb.Replicas {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"server":`...)
		dst = strconv.AppendInt(dst, r.Server, 10)
		if r.Placed {
			dst = append(dst, `,"placed":true}`...)
		} else {
			dst = append(dst, `,"placed":false}`...)
		}
	}
	return append(dst, `]}`...)
}

// appendJSONString appends s as a JSON string: the quote, the backslash and
// control characters escaped, every other byte as it is (a decoder turns
// invalid UTF-8 into U+FFFD, which is also what encoding/json writes for it).
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c < 0x20:
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
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

// snapshotFile is the snapshot's clustering and build-time usage view in file
// form.
func (s *Service) snapshotFile(sh *shard, snap *Snapshot) persistedSnapshot {
	return persistedSnapshot{
		persistHeader: s.persistHeaderFor(sh),
		Generation:    snap.Generation,
		AsOfSeconds:   snap.AsOf.Seconds(),
		BuiltAt:       snap.BuiltAt,
		NumTenants:    len(sh.pop.Tenants),
		NumServers:    sh.pop.NumServers(),
		Classes:       classRecords(snap, snap.Usage),
	}
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

// snapshotFromFile is boot's policy in front of the shared reassembly: the
// rest of the population fingerprint must match, and there is no previous
// snapshot to borrow a placement scheme from.
func (s *Service) snapshotFromFile(sh *shard, p *persistedSnapshot) (*Snapshot, error) {
	if p.NumTenants != len(sh.pop.Tenants) || p.NumServers != sh.pop.NumServers() {
		return nil, fmt.Errorf("population fingerprint mismatch (seed/scale changed?)")
	}
	return s.snapshotFromRecords(sh, p.Generation, p.AsOfSeconds, p.BuiltAt, p.Classes, nil)
}
