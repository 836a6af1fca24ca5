package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"harvest/internal/blockledger"
	"harvest/internal/core"
	"harvest/internal/httpjson"
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

// stateFiles are a shard's three files, each with the temp name it is
// written under before the rename, joined once for the life of the shard.
type stateFiles struct{ snapshot, ledger, blocks stateFile }

type stateFile struct{ path, tmp string }

func stateFilesFor(dir, dc string) stateFiles {
	at := func(suffix string) stateFile {
		path := filepath.Join(dir, dc+suffix)
		return stateFile{path: path, tmp: path + ".tmp"}
	}
	return stateFiles{at(".snapshot.json"), at(".ledger.json"), at(".blocks.json")}
}

// writeFileAtomic has write fill the file's temp file and renames it over
// the file, so a crash mid-write leaves the previous good file intact — and
// so does a failure: whichever step fails (create, a write, close, the
// rename), the temp file this call created is removed and the file is
// untouched. The directory is made when the temp file cannot be created for
// want of it. Returns the size of the file written.
func writeFileAtomic(file stateFile, write func(w io.Writer) error) (int64, error) {
	create := func() (*os.File, error) {
		return os.OpenFile(file.tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	}
	f, err := create()
	if errors.Is(err, fs.ErrNotExist) {
		if err = os.MkdirAll(filepath.Dir(file.path), 0o755); err == nil {
			f, err = create()
		}
	}
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
		err = os.Rename(file.tmp, file.path)
	}
	if err != nil {
		os.Remove(file.tmp)
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
	st := &sh.stage
	if snap != nil {
		written += s.persist(sh, "snapshot", sh.files.snapshot, func(w io.Writer) error {
			return st.writeSnapshotFile(w, s.snapshotFile(sh, snap), snap)
		})
	}
	if sh.led != nil {
		st.stageLeases(sh.led)
		written += s.persist(sh, "ledger", sh.files.ledger, func(w io.Writer) error {
			return st.writeLedgerFile(w, s.persistHeaderFor(sh))
		})
	}
	if sh.blocks != nil {
		st.stageBlocks(sh.blocks)
		written += s.persist(sh, "block ledger", sh.files.blocks, func(w io.Writer) error {
			return st.writeBlocksFile(w, s.persistHeaderFor(sh))
		})
	}
	sh.persistLastBytes.Store(written)
	sh.persistLastNanos.Store(int64(time.Since(start)))
}

// persist writes one of the shard's files; a failure is counted and logged
// once. Returns the bytes written.
func (s *Service) persist(sh *shard, what string, file stateFile, write func(w io.Writer) error) int64 {
	n, err := writeFileAtomic(file, write)
	if err != nil {
		sh.persistErrors.Add(1)
		slogger.Warn(what+" persist failed", "dc", sh.dc, "err", err)
	}
	return n
}

// persistStage is the storage a shard's files are built in, kept across
// persists so that one allocates only when a ledger or the class list has
// outgrown every earlier one. A ledger file is built in two steps that never
// overlap. First the ledger is staged as its replication section — the bytes
// a frame carries for it, from the same encoder (appendLedgerSection /
// appendBlocksSection) under the same one Walk, ≈37 B a block — into chunks
// the stage keeps. Then, with the ledger's locks released, the section is
// read back and each record transcoded into the file's JSON in buf, which is
// written out each time it fills, so the encoded file (≈145 B a block) is
// never in memory whole. The snapshot file's class records are built in
// classes and ids and transcoded into buf the same way.
type persistStage struct {
	leases, blocks section
	r              wire.Reader // the section being read back
	buf            []byte      // the file chunk being encoded
	classes        []wire.ReplClass
	ids            []int64 // the class records' tenant and server lists
}

// persistChunk is how much encoded file a stage buffers between writes.
const persistChunk = 256 << 10

// section is one ledger's staged replication section: the head at the start
// of chunks[0], then every record, each whole in one chunk, through
// chunks[used-1]. The chunks outlive the stage, so staging allocates a chunk
// only where a section runs past the most the stage has ever held, and never
// copies again what it has staged, as one growing slice would on each
// regrowth.
type section struct {
	chunks [][]byte
	used   int
}

const (
	sectionChunk = 64 << 10 // what a chunk is allocated with
	recordRoom   = 4 << 10  // a record starts the next chunk when less is left
)

func (st *persistStage) stageLeases(led *ledger.Ledger) {
	st.leases.end(appendLedgerSection(st.leases.begin(), led, st.leases.room))
}

func (st *persistStage) stageBlocks(blocks *blockledger.Ledger) {
	st.blocks.end(appendBlocksSection(st.blocks.begin(), blocks, st.blocks.room))
}

// begin empties the section and returns its first chunk to encode into.
func (s *section) begin() []byte {
	s.used = 0
	return s.next()
}

func (s *section) next() []byte {
	if s.used == len(s.chunks) {
		s.chunks = append(s.chunks, make([]byte, 0, sectionChunk))
	}
	s.used++
	return s.chunks[s.used-1][:0]
}

// room is the encoder's hook before each record: dst while recordRoom is left
// in it, else the next chunk, dst kept as the one before it. A record longer
// than recordRoom (a lease with hundreds of grants) still goes whole into one
// chunk: append grows the chunk, and the section keeps it grown.
func (s *section) room(dst []byte) []byte {
	if cap(dst)-len(dst) >= recordRoom {
		return dst
	}
	s.chunks[s.used-1] = dst
	return s.next()
}

// end keeps the chunk the encoder appended to last.
func (s *section) end(dst []byte) { s.chunks[s.used-1] = dst }

// writeLedgerFile and writeBlocksFile write the JSON of persistedLedger /
// persistedBlocks for the staged section. The header and the books, read back
// with wire's head readers, are what json.Marshal writes for them, so the
// struct tags are their only encoder; the records, the part that grows with
// the state, are transcoded from the section field by field (appendLease,
// appendBlock) instead of marshalled whole into a buffer of encoding/json's.
// readStateFile and Restore decode the result with encoding/json into those
// same structs, which remain the format's definition;
// TestStreamedFilesDecodeAsExportedState and FuzzStagedFiles hold the two
// together.
func (st *persistStage) writeLedgerFile(w io.Writer, h persistHeader) error {
	st.r = wire.NewReader(st.leases.chunks[0])
	var books ledger.State
	n := wire.ReadReplLedgerHead(&st.r, &books)
	out, err := st.beginFile(w, persistedLedger{persistHeader: h, State: books})
	if err != nil {
		return err
	}
	return out.records(st, &st.leases, n, appendLease)
}

func (st *persistStage) writeBlocksFile(w io.Writer, h persistHeader) error {
	st.r = wire.NewReader(st.blocks.chunks[0])
	var books blockledger.State
	n := wire.ReadReplBlocksHead(&st.r, &books)
	out, err := st.beginFile(w, persistedBlocks{persistHeader: h, State: books})
	if err != nil {
		return err
	}
	return out.records(st, &st.blocks, n, appendBlock)
}

// writeSnapshotFile writes the JSON of p with the snapshot's class records as
// its Classes: the header, as json.Marshal writes it, then each record built
// in the stage (classRecords) and transcoded by appendClass.
// TestSnapshotFileIsMarshalledRecords holds the two together.
func (st *persistStage) writeSnapshotFile(w io.Writer, p persistedSnapshot, snap *Snapshot) error {
	st.classes, st.ids = classRecords(st.classes[:0], st.ids, snap, snap.Usage)
	out, err := st.beginFile(w, p)
	if err != nil {
		return err
	}
	for i := range st.classes {
		if i > 0 {
			out.buf = append(out.buf, ',')
		}
		if out.buf, err = appendClass(out.buf, &st.classes[i]); err != nil {
			st.buf = out.buf
			return err
		}
		out.flushIfFull()
	}
	return out.end(st)
}

// openFile is one file on its way out: the chunk being appended to, what
// closes the file after its record list, and the first write error, after
// which it writes no more.
type openFile struct {
	w     io.Writer
	buf   []byte
	close []byte
	err   error
}

// beginFile starts a file in the stage's buffer with all of v — a file
// struct whose last field, or its last field's last field, is a record list
// left nil — but that list: the last thing in it, and left open.
func (st *persistStage) beginFile(w io.Writer, v any) (openFile, error) {
	head, err := json.Marshal(v)
	if err != nil {
		return openFile{}, err
	}
	i := bytes.LastIndex(head, []byte("null"))
	if i < 0 || len(bytes.TrimLeft(head[i+len("null"):], "}")) != 0 {
		return openFile{}, fmt.Errorf("service: a state file must end with its record list: %s", head)
	}
	if st.buf == nil {
		st.buf = make([]byte, 0, persistChunk+persistChunk/8) // a chunk and the record that filled it
	}
	return openFile{w: w, buf: append(append(st.buf[:0], head[:i]...), '['), close: head[i+len("null"):]}, nil
}

func (f *openFile) flushIfFull() {
	if len(f.buf) >= persistChunk {
		f.flush()
	}
}

func (f *openFile) flush() {
	if f.err == nil {
		_, f.err = f.w.Write(f.buf)
	}
	f.buf = f.buf[:0]
}

// records transcodes the section's n records into the open record list —
// from st.r, past the head in the first chunk, then from each later chunk —
// and ends the file. A section that does not read as the n records its head
// promised fails the file.
func (f *openFile) records(st *persistStage, s *section, n int, transcode func([]byte, *wire.Reader) []byte) error {
	r := &st.r
	written := 0
	for next := 1; ; next++ {
		for r.Remaining() > 0 {
			if written > 0 {
				f.buf = append(f.buf, ',')
			}
			f.buf = transcode(f.buf, r)
			written++
			f.flushIfFull()
		}
		if r.Err() != nil || next == s.used {
			break
		}
		*r = wire.NewReader(s.chunks[next])
	}
	if r.Err() != nil || written != n {
		return fmt.Errorf("service: staged section reads as %d records, its head promised %d", written, n)
	}
	return f.end(st)
}

// end closes the record list and the file, writes what is left and hands the
// buffer back to the stage.
func (f *openFile) end(st *persistStage) error {
	f.buf = append(append(f.buf, ']'), f.close...)
	f.flush()
	st.buf = f.buf
	return f.err
}

// appendClass transcodes a class record into the JSON object json.Marshal
// writes for it. A statistic that is not a finite number has no JSON form:
// then it appends nothing and fails, as json.Marshal does.
func appendClass(dst []byte, rc *wire.ReplClass) ([]byte, error) {
	if !finite(rc.Avg) || !finite(rc.Peak) || !finite(rc.Current) || slices.ContainsFunc(rc.Centroid, func(f float64) bool { return !finite(f) }) {
		return dst, fmt.Errorf("service: class %d: a statistic is not a finite number", rc.ID)
	}
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, uint64(rc.ID), 10)
	dst = append(dst, `,"pattern":`...)
	dst = strconv.AppendUint(dst, uint64(rc.Pattern), 10)
	dst = httpjson.AppendFloat(append(dst, `,"avg_utilization":`...), rc.Avg)
	dst = httpjson.AppendFloat(append(dst, `,"peak_utilization":`...), rc.Peak)
	dst = httpjson.AppendFloat(append(dst, `,"current_utilization":`...), rc.Current)
	dst = append(dst, `,"centroid":`...)
	if rc.Centroid == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, v := range rc.Centroid {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = httpjson.AppendFloat(dst, v)
		}
		dst = append(dst, ']')
	}
	dst = appendJSONInts(append(dst, `,"tenants":`...), rc.Tenants)
	dst = appendJSONInts(append(dst, `,"servers":`...), rc.Servers)
	return append(dst, '}'), nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

func appendJSONInts(dst []byte, vs []int64) []byte {
	if vs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, v, 10)
	}
	return append(dst, ']')
}

// appendLease transcodes the lease record at r — AppendReplLease's fields, in
// its order — into the JSON object json.Marshal writes for the wire.ReplLease
// it encodes. A frame's "never" expiry, 0, is the zero time the ledger holds.
func appendLease(dst []byte, r *wire.Reader) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, r.U64(), 10)
	var expires time.Time
	if ns := r.I64(); ns != 0 {
		expires = time.Unix(0, ns)
	}
	dst = append(dst, `,"expires_at":"`...)
	dst = expires.AppendFormat(dst, time.RFC3339Nano)
	jobID, owner := r.Str8(), r.Str8()
	dst = append(dst, `","grants":[`...)
	for i, n := 0, int(r.U16()); i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"class":`...)
		dst = strconv.AppendUint(dst, uint64(r.U32()), 10)
		dst = append(dst, `,"millis":`...)
		dst = strconv.AppendInt(dst, r.I64(), 10)
		dst = append(dst, '}')
	}
	dst = append(dst, ']')
	if len(jobID) > 0 {
		dst = httpjson.AppendString(append(dst, `,"job_id":`...), jobID)
	}
	if len(owner) > 0 {
		dst = httpjson.AppendString(append(dst, `,"owner":`...), owner)
	}
	return append(dst, '}')
}

// appendBlock is appendLease for a block record (AppendReplBlock's fields).
func appendBlock(dst []byte, r *wire.Reader) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, r.U64(), 10)
	if r.Bool() {
		dst = append(dst, `,"env_strict":true`...)
	}
	dst = append(dst, `,"replicas":[`...)
	for i, n := 0, int(r.U8()); i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"server":`...)
		dst = strconv.AppendInt(dst, r.I64(), 10)
		if r.Bool() {
			dst = append(dst, `,"placed":true}`...)
		} else {
			dst = append(dst, `,"placed":false}`...)
		}
	}
	return append(dst, `]}`...)
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
	if !s.restore(sh, "ledger", sh.files.ledger.path, &p) {
		return nil
	}
	led, err := ledger.Restore(p.State, snap.Generation, len(snap.Clustering.Classes))
	if err != nil {
		slogger.Warn("ignoring persisted ledger", "dc", sh.dc, "err", err)
		return nil
	}
	if n, millis := led.ExpireBefore(s.cfg.Clock.Now()); n > 0 {
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
	if !s.restore(sh, "block ledger", sh.files.blocks.path, &p) {
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

// snapshotFile is the snapshot's file form but its class records, which
// writeSnapshotFile adds.
func (s *Service) snapshotFile(sh *shard, snap *Snapshot) persistedSnapshot {
	return persistedSnapshot{
		persistHeader: s.persistHeaderFor(sh),
		Generation:    snap.Generation,
		AsOfSeconds:   snap.AsOf.Seconds(),
		BuiltAt:       snap.BuiltAt,
		NumTenants:    len(sh.pop.Tenants),
		NumServers:    sh.pop.NumServers(),
	}
}

// restoreSnapshot loads the shard's persisted snapshot, validates it against
// the regenerated population, and reassembles it into a queryable snapshot.
// Any problem (no file, version or fingerprint mismatch, corrupt JSON,
// inconsistent membership) logs and returns nil — the caller then clusters
// from scratch.
func (s *Service) restoreSnapshot(sh *shard) (*Snapshot, bool) {
	var p persistedSnapshot
	if !s.restore(sh, "snapshot", sh.files.snapshot.path, &p) {
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
// snapshot to borrow a placement scheme from. The file carries classes, not
// tenant profiles, so the tenants are classified from their rings — the pass
// a fresh boot's clustering runs, without its K-Means — and the first warm
// refresh measures drift against the windows the rings hold.
func (s *Service) snapshotFromFile(sh *shard, p *persistedSnapshot) (*Snapshot, error) {
	if p.NumTenants != len(sh.pop.Tenants) || p.NumServers != sh.pop.NumServers() {
		return nil, fmt.Errorf("population fingerprint mismatch (seed/scale changed?)")
	}
	snap, err := s.snapshotFromRecords(sh, p.Generation, p.AsOfSeconds, p.BuiltAt, p.Classes, nil)
	if err != nil {
		return nil, err
	}
	if _, err := core.NewClusteringService(s.cfg.Clustering).ClassifyFrom(sh.pop, sh.rings); err != nil {
		return nil, err
	}
	return snap, nil
}
