package wire

import (
	"fmt"
	"math"
	"time"
)

// Replication messages: the intra-DC primary→follower snapshot stream.
//
// A follower dials the primary's replication listener, sends one OpReplHello
// naming itself, and reads pushes from then on. The primary answers the hello
// with OpReplHello|RespBit (carrying its identity, which the follower
// re-announces to the router as primary_id) and then streams, per datacenter:
//
//   - OpReplSnap — a full snapshot: every class with its complete tenant and
//     server id lists, the live usage view, and both ledgers. Sent first for
//     every datacenter on every join, and once per new generation.
//   - OpReplBeat — same generation, refreshed usage view + ledger state:
//     what changes between snapshot refreshes as selects and telemetry land.
//
// There is no incremental snapshot: the class list's id arrays are a few
// per cent of a frame that carries both ledgers in full anyway. The opcode an
// earlier format used for one (OpReplDelta), the PrevGeneration word and the
// per-class ref byte are reserved — written as zero, and refused when set.
//
// Pushes are unacknowledged: a follower that cannot keep up is dropped by
// the primary's write deadline and re-joins with a fresh hello (getting a
// full snapshot). Every push carries SentUnixNano so the follower can report
// ship+apply lag without a second clock channel.

// ReplDCGen names one datacenter and the snapshot generation a node holds of
// it: the list a registration beat announces (internal/regproto), encoded by
// AppendDCGens and read by Reader.DCGens.
type ReplDCGen struct {
	DC         string
	Generation uint64
}

// dcGenSize is the smallest encoded ReplDCGen: an empty name's length byte
// and the generation.
const dcGenSize = 1 + 8

// AppendDCGens appends a count-prefixed datacenter–generation list.
func AppendDCGens(dst []byte, dcs []ReplDCGen) []byte {
	dst = AppendU16(dst, uint16(len(dcs)))
	for _, d := range dcs {
		dst = AppendStr8(dst, d.DC)
		dst = AppendU64(dst, d.Generation)
	}
	return dst
}

// DCGens reads a list AppendDCGens wrote, refilling dcs's storage (see sized)
// and keeping each name it already holds (Str8Keep), so a list that repeats
// the previous one decodes without allocating.
func (r *Reader) DCGens(dcs []ReplDCGen) []ReplDCGen {
	dcs = sized(dcs, int(r.U16()), dcGenSize, r)
	for i := range dcs {
		dcs[i].DC = r.Str8Keep(dcs[i].DC)
		dcs[i].Generation = r.U64()
	}
	return dcs
}

// ReplHello is the follower's one request frame: who it is. The primary
// answers any hello with a full snapshot of every datacenter, so the follower
// names nothing it holds.
type ReplHello struct {
	FollowerID string
}

// MaxReplHelloPayload is the longest hello payload: the follower id's length
// byte and MaxStr8 bytes. A replication listener refuses a longer one on its
// header, before buffering it.
const MaxReplHelloPayload = 1 + MaxStr8

// AppendReplHello appends a complete hello request frame.
func AppendReplHello(dst []byte, id uint64, m *ReplHello) []byte {
	mark := len(dst)
	dst = BeginFrame(dst, OpReplHello, id)
	dst = AppendStr8(dst, m.FollowerID)
	return EndFrame(dst, mark)
}

// Decode parses a hello request payload into m, keeping the id it already
// holds when the payload repeats it.
func (m *ReplHello) Decode(payload []byte) error {
	r := NewReader(payload)
	m.FollowerID = r.Str8Keep(m.FollowerID)
	return r.Done()
}

// ReplHelloResp acknowledges a hello with the primary's identity.
type ReplHelloResp struct {
	PrimaryID string
}

// AppendReplHelloResp appends a complete hello response frame.
func AppendReplHelloResp(dst []byte, id uint64, m *ReplHelloResp) []byte {
	mark := len(dst)
	dst = BeginFrame(dst, OpReplHelloResp, id)
	dst = AppendStr8(dst, m.PrimaryID)
	return EndFrame(dst, mark)
}

// Decode parses a hello response payload.
func (m *ReplHelloResp) Decode(payload []byte) error {
	r := NewReader(payload)
	m.PrimaryID = string(r.Str8())
	return r.Done()
}

// ReplClass is one utilization class of a shard's characterization — the
// record a snapshot frame carries and, through its json tags, the record
// <dc>.snapshot.json carries: one type, so the file and the frame cannot
// describe a class differently.
type ReplClass struct {
	ID      uint32  `json:"id"`
	Pattern uint8   `json:"pattern"`
	Avg     float64 `json:"avg_utilization"`
	Peak    float64 `json:"peak_utilization"`
	// Current is the class's usage-view utilization where the record was
	// written — shipped instead of recomputed because a follower's telemetry
	// rings never see the primary's ingested samples.
	Current  float64   `json:"current_utilization"`
	Centroid []float64 `json:"centroid"`
	Tenants  []int64   `json:"tenants"`
	Servers  []int64   `json:"servers"`
}

// The lease and block records below are, like ReplClass, the only definition
// of what they describe: the ledgers hold them, Walk lends them, Reconcile
// takes them back, a frame carries them through the codec in this file and
// <dc>.ledger.json / <dc>.blocks.json through their json tags.

// ReplGrant is one class's share of a lease, in millicores.
type ReplGrant struct {
	Class  uint32 `json:"class"`
	Millis int64  `json:"millis"`
}

// ReplLease is one live lease. JobID and Owner are optional operator
// metadata; files written before the fields existed restore with them empty.
type ReplLease struct {
	ID uint64 `json:"id"`
	// ExpiresAt is the absolute expiry instant, zero when the lease never
	// expires. A frame carries it as UnixNano, 0 for the zero time.
	ExpiresAt time.Time   `json:"expires_at,omitempty"`
	Grants    []ReplGrant `json:"grants"`
	JobID     string      `json:"job_id,omitempty"`
	Owner     string      `json:"owner,omitempty"`
}

// ReplLedger is the allocation ledger's full state: the generation it is
// keyed to and its cumulative conservation books, plus every live lease, so a
// restarted or promoted node's books balance exactly (reserved == released +
// expired + forfeited + outstanding) from its first instant.
type ReplLedger struct {
	Generation      uint64      `json:"generation"`
	ReservedMillis  int64       `json:"reserved_millis"`
	ReleasedMillis  int64       `json:"released_millis"`
	ExpiredMillis   int64       `json:"expired_millis"`
	ForfeitedMillis int64       `json:"forfeited_millis"`
	Reserves        uint64      `json:"reserves"`
	Releases        uint64      `json:"releases"`
	Renews          uint64      `json:"renews,omitempty"`
	Expiries        uint64      `json:"expiries"`
	Conflicts       uint64      `json:"conflicts"`
	Leases          []ReplLease `json:"leases"`
}

// The ledger section is encoded in pieces so a primary can stream it straight
// from its ledger's Walk into a frame, or into the chunks a persist stages a
// file in: the head, then one AppendReplLease per lease. appendReplLedger is
// the same pieces driven from a ReplLedger.

// AppendReplLedgerHead appends a ledger section's books and lease count
// (m.Leases is ignored); exactly leases AppendReplLease records must follow.
func AppendReplLedgerHead(dst []byte, m *ReplLedger, leases int) []byte {
	dst = AppendU64(dst, m.Generation)
	dst = AppendI64(dst, m.ReservedMillis)
	dst = AppendI64(dst, m.ReleasedMillis)
	dst = AppendI64(dst, m.ExpiredMillis)
	dst = AppendI64(dst, m.ForfeitedMillis)
	dst = AppendU64(dst, m.Reserves)
	dst = AppendU64(dst, m.Releases)
	dst = AppendU64(dst, m.Renews)
	dst = AppendU64(dst, m.Expiries)
	dst = AppendU64(dst, m.Conflicts)
	return AppendU32(dst, uint32(leases))
}

// AppendReplLease appends one lease record, grants included. The record must
// be Encodable.
func AppendReplLease(dst []byte, ls *ReplLease) []byte {
	dst = AppendU64(dst, ls.ID)
	var expires int64
	if !ls.ExpiresAt.IsZero() {
		expires = ls.ExpiresAt.UnixNano()
	}
	dst = AppendI64(dst, expires)
	dst = AppendStr8(dst, ls.JobID)
	dst = AppendStr8(dst, ls.Owner)
	dst = AppendU16(dst, uint16(len(ls.Grants)))
	for _, g := range ls.Grants {
		dst = AppendU32(dst, g.Class)
		dst = AppendI64(dst, g.Millis)
	}
	return dst
}

// Encodable reports what about the lease a frame cannot carry. The request
// paths bound metadata and grants far below these limits; the check is for the
// door that does not — a file.
func (ls *ReplLease) Encodable() error {
	if len(ls.JobID) > MaxStr8 || len(ls.Owner) > MaxStr8 || len(ls.Grants) > math.MaxUint16 {
		return fmt.Errorf("wire: lease %d: job_id or owner over %d bytes, or over %d grants", ls.ID, MaxStr8, math.MaxUint16)
	}
	return nil
}

func appendReplLedger(dst []byte, m *ReplLedger) []byte {
	dst = AppendReplLedgerHead(dst, m, len(m.Leases))
	for i := range m.Leases {
		dst = AppendReplLease(dst, &m.Leases[i])
	}
	return dst
}

// replLeaseMinSize is a lease's floor on the wire: id + expiry + two empty
// strings + grant count.
const replLeaseMinSize = 8 + 8 + 1 + 1 + 2

// ReadReplLedgerHead reads what AppendReplLedgerHead wrote into m, leaving
// m.Leases alone, and returns the lease count it promised.
func ReadReplLedgerHead(r *Reader, m *ReplLedger) int {
	m.Generation = r.U64()
	m.ReservedMillis = r.I64()
	m.ReleasedMillis = r.I64()
	m.ExpiredMillis = r.I64()
	m.ForfeitedMillis = r.I64()
	m.Reserves = r.U64()
	m.Releases = r.U64()
	m.Renews = r.U64()
	m.Expiries = r.U64()
	m.Conflicts = r.U64()
	return int(r.U32())
}

func decodeReplLedger(r *Reader, m *ReplLedger) {
	n := ReadReplLedgerHead(r, m)
	m.Leases = sized(m.Leases, n, replLeaseMinSize, r)
	for i := range m.Leases {
		ls := &m.Leases[i]
		ls.ID = r.U64()
		ls.ExpiresAt = time.Time{}
		if expires := r.I64(); expires != 0 {
			ls.ExpiresAt = time.Unix(0, expires)
		}
		ls.JobID = string(r.Str8())
		ls.Owner = string(r.Str8())
		ng := int(r.U16())
		ls.Grants = sized(ls.Grants, ng, 12, r)
		for j := range ls.Grants {
			ls.Grants[j].Class = r.U32()
			ls.Grants[j].Millis = r.I64()
		}
	}
}

// ReplBlockReplica is one replica slot of a block. Server is meaningless when
// Placed is false (the slot is awaiting repair).
type ReplBlockReplica struct {
	Server int64 `json:"server"`
	Placed bool  `json:"placed"`
}

// ReplBlock is one block: its replica slots, whose index is a slot's stable
// identity, and whether its placement promised environment diversity.
type ReplBlock struct {
	ID        uint64             `json:"id"`
	EnvStrict bool               `json:"env_strict,omitempty"`
	Replicas  []ReplBlockReplica `json:"replicas"`
}

// ReplBlocks is the block ledger's full state: every block's replica slots
// plus the generation and the cumulative durability books, so a restarted or
// promoted node's block conservation (placed + pending == slots, lost ==
// replaced + pending) holds from its first instant and its rebuilt repair
// queue covers exactly the pending slots. The gauges are not part of it: they
// are functions of the blocks themselves and recomputed on Reconcile.
type ReplBlocks struct {
	Generation uint64      `json:"generation"`
	Lost       int64       `json:"lost"`
	Replaced   int64       `json:"replaced"`
	Creates    uint64      `json:"creates"`
	Reimages   uint64      `json:"reimages"`
	Blocks     []ReplBlock `json:"blocks"`
}

// The block section streams the same way: the head, then one AppendReplBlock
// per block.

// AppendReplBlocksHead appends a block section's books and block count
// (m.Blocks is ignored); exactly blocks AppendReplBlock records must follow.
func AppendReplBlocksHead(dst []byte, m *ReplBlocks, blocks int) []byte {
	dst = AppendU64(dst, m.Generation)
	dst = AppendI64(dst, m.Lost)
	dst = AppendI64(dst, m.Replaced)
	dst = AppendU64(dst, m.Creates)
	dst = AppendU64(dst, m.Reimages)
	return AppendU32(dst, uint32(blocks))
}

// AppendReplBlock appends one block record, replica slots included. The
// record must be Encodable.
func AppendReplBlock(dst []byte, b *ReplBlock) []byte {
	dst = AppendU64(dst, b.ID)
	dst = AppendBool(dst, b.EnvStrict)
	dst = AppendU8(dst, uint8(len(b.Replicas)))
	for _, rep := range b.Replicas {
		dst = AppendI64(dst, rep.Server)
		dst = AppendBool(dst, rep.Placed)
	}
	return dst
}

// Encodable reports what about the block a frame cannot carry (see
// ReplLease.Encodable).
func (b *ReplBlock) Encodable() error {
	if len(b.Replicas) > math.MaxUint8 {
		return fmt.Errorf("wire: block %d: over %d replicas", b.ID, math.MaxUint8)
	}
	return nil
}

func appendReplBlocks(dst []byte, m *ReplBlocks) []byte {
	dst = AppendReplBlocksHead(dst, m, len(m.Blocks))
	for i := range m.Blocks {
		dst = AppendReplBlock(dst, &m.Blocks[i])
	}
	return dst
}

// replBlockMinSize is a block's floor on the wire: id + env byte + replica
// count.
const replBlockMinSize = 8 + 1 + 1

// ReadReplBlocksHead is ReadReplLedgerHead for a block section.
func ReadReplBlocksHead(r *Reader, m *ReplBlocks) int {
	m.Generation = r.U64()
	m.Lost = r.I64()
	m.Replaced = r.I64()
	m.Creates = r.U64()
	m.Reimages = r.U64()
	return int(r.U32())
}

func decodeReplBlocks(r *Reader, m *ReplBlocks) {
	n := ReadReplBlocksHead(r, m)
	m.Blocks = sized(m.Blocks, n, replBlockMinSize, r)
	for i := range m.Blocks {
		b := &m.Blocks[i]
		b.ID = r.U64()
		b.EnvStrict = r.Bool()
		nr := int(r.U8())
		b.Replicas = sized(b.Replicas, nr, 9, r)
		for j := range b.Replicas {
			b.Replicas[j].Server = r.I64()
			b.Replicas[j].Placed = r.Bool()
		}
	}
}

// ReplSnapshot is the payload of an OpReplSnap frame — one datacenter's
// complete characterization state, every class in full.
type ReplSnapshot struct {
	DC              string
	Generation      uint64
	SentUnixNano    int64
	AsOfSeconds     float64
	BuiltAtUnixNano int64
	Classes         []ReplClass
	Ledger          ReplLedger
	Blocks          ReplBlocks
}

// BeginReplSnapshot appends a snapshot frame up to the end of its class list,
// ignoring m.Ledger and m.Blocks: the caller appends a ledger section and a
// block section and closes the frame with EndFrame(out, mark).
func BeginReplSnapshot(dst []byte, id uint64, m *ReplSnapshot) (out []byte, mark int) {
	mark = len(dst)
	dst = BeginFrame(dst, OpReplSnap, id)
	dst = AppendStr8(dst, m.DC)
	dst = AppendU64(dst, m.Generation)
	dst = AppendU64(dst, 0) // reserved (PrevGeneration)
	dst = AppendI64(dst, m.SentUnixNano)
	dst = AppendF64(dst, m.AsOfSeconds)
	dst = AppendI64(dst, m.BuiltAtUnixNano)
	dst = AppendU32(dst, uint32(len(m.Classes)))
	for i := range m.Classes {
		c := &m.Classes[i]
		dst = AppendU32(dst, c.ID)
		dst = AppendU8(dst, c.Pattern)
		dst = AppendU8(dst, 0) // reserved (ref)
		dst = AppendF64(dst, c.Avg)
		dst = AppendF64(dst, c.Peak)
		dst = AppendF64(dst, c.Current)
		dst = AppendU16(dst, uint16(len(c.Centroid)))
		for _, v := range c.Centroid {
			dst = AppendF64(dst, v)
		}
		dst = AppendU32(dst, uint32(len(c.Tenants)))
		for _, t := range c.Tenants {
			dst = AppendI64(dst, t)
		}
		dst = AppendU32(dst, uint32(len(c.Servers)))
		for _, s := range c.Servers {
			dst = AppendI64(dst, s)
		}
	}
	return dst, mark
}

// AppendReplSnapshot appends a complete snapshot frame.
func AppendReplSnapshot(dst []byte, id uint64, m *ReplSnapshot) []byte {
	dst, mark := BeginReplSnapshot(dst, id, m)
	dst = appendReplLedger(dst, &m.Ledger)
	dst = appendReplBlocks(dst, &m.Blocks)
	return EndFrame(dst, mark)
}

// replClassMinSize is a class record's floor on the wire: id + pattern +
// reserved byte + three f64 scalars + centroid count + two list counts.
const replClassMinSize = 4 + 1 + 1 + 24 + 2 + 8

// Decode parses a snapshot payload.
func (m *ReplSnapshot) Decode(payload []byte) error {
	r := NewReader(payload)
	m.DC = string(r.Str8())
	m.Generation = r.U64()
	r.U64() // reserved (PrevGeneration)
	m.SentUnixNano = r.I64()
	m.AsOfSeconds = r.F64()
	m.BuiltAtUnixNano = r.I64()
	n := int(r.U32())
	m.Classes = sized(m.Classes, n, replClassMinSize, &r)
	for i := range m.Classes {
		c := &m.Classes[i]
		c.ID = r.U32()
		c.Pattern = r.U8()
		if r.U8() != 0 {
			// A ref class: a different record layout, which nothing writes.
			r.bad = true
		}
		c.Avg = r.F64()
		c.Peak = r.F64()
		c.Current = r.F64()
		nc := int(r.U16())
		c.Centroid = sized(c.Centroid, nc, 8, &r)
		for j := range c.Centroid {
			c.Centroid[j] = r.F64()
		}
		nt := int(r.U32())
		c.Tenants = sized(c.Tenants, nt, 8, &r)
		for j := range c.Tenants {
			c.Tenants[j] = r.I64()
		}
		ns := int(r.U32())
		c.Servers = sized(c.Servers, ns, 8, &r)
		for j := range c.Servers {
			c.Servers[j] = r.I64()
		}
	}
	decodeReplLedger(&r, &m.Ledger)
	decodeReplBlocks(&r, &m.Blocks)
	return r.Done()
}

// ReplClassUsage is one class's refreshed live utilization in a beat.
type ReplClassUsage struct {
	ID      uint32
	Current float64
}

// ReplBeat refreshes a follower's usage view and ledger state between
// snapshot generations: same clustering, new numbers. Generation must match
// the follower's current snapshot exactly.
type ReplBeat struct {
	DC           string
	Generation   uint64
	SentUnixNano int64
	AsOfSeconds  float64
	Usage        []ReplClassUsage
	Ledger       ReplLedger
	Blocks       ReplBlocks
}

// BeginReplBeat appends a beat frame up to the end of its usage list,
// ignoring m.Ledger and m.Blocks: the caller appends a ledger section and a
// block section and closes the frame with EndFrame(out, mark).
func BeginReplBeat(dst []byte, id uint64, m *ReplBeat) (out []byte, mark int) {
	mark = len(dst)
	dst = BeginFrame(dst, OpReplBeat, id)
	dst = AppendStr8(dst, m.DC)
	dst = AppendU64(dst, m.Generation)
	dst = AppendI64(dst, m.SentUnixNano)
	dst = AppendF64(dst, m.AsOfSeconds)
	dst = AppendU32(dst, uint32(len(m.Usage)))
	for _, u := range m.Usage {
		dst = AppendU32(dst, u.ID)
		dst = AppendF64(dst, u.Current)
	}
	return dst, mark
}

// AppendReplBeat appends a complete beat frame.
func AppendReplBeat(dst []byte, id uint64, m *ReplBeat) []byte {
	dst, mark := BeginReplBeat(dst, id, m)
	dst = appendReplLedger(dst, &m.Ledger)
	dst = appendReplBlocks(dst, &m.Blocks)
	return EndFrame(dst, mark)
}

// Decode parses a beat payload.
func (m *ReplBeat) Decode(payload []byte) error {
	r := NewReader(payload)
	m.DC = string(r.Str8())
	m.Generation = r.U64()
	m.SentUnixNano = r.I64()
	m.AsOfSeconds = r.F64()
	n := int(r.U32())
	m.Usage = sized(m.Usage, n, 12, &r)
	for i := range m.Usage {
		m.Usage[i].ID = r.U32()
		m.Usage[i].Current = r.F64()
	}
	decodeReplLedger(&r, &m.Ledger)
	decodeReplBlocks(&r, &m.Blocks)
	return r.Done()
}
