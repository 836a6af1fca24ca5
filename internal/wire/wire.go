// Package wire is the binary frame protocol for the serving hot path: the
// same select/release/place/classes semantics as the JSON API, reframed as
// length-prefixed binary messages so a pipelining client pays bytes and
// branch-light parsing instead of net/http and encoding/json. An in-process
// select costs a few hundred nanoseconds while the end-to-end JSON request
// costs tens of microseconds (BENCHMARK.json: core.select_indexed_ns against
// service.http.rtt_us) — the difference is almost entirely transport, and
// this package is the transport that doesn't.
//
// Framing: every message is a fixed 16-byte header followed by a payload of
// Header.Len bytes.
//
//	offset  size  field
//	0       1     magic (0xA7)
//	1       1     protocol version (1)
//	2       1     opcode
//	3       1     flags (FlagTrace; other bits reserved, 0 in version 1)
//	4       4     payload length, uint32 little-endian (≤ MaxPayload)
//	8       8     request id, uint64 little-endian (echoed in the response)
//
// All multi-byte payload fields are fixed-width little-endian — no varints,
// so decoding is a bounds check and an unaligned load, never a loop.
// Strings (datacenter names) are a one-byte length followed by raw bytes.
// Request ids are opaque to the server: responses echo them verbatim, which
// is what lets a router interleave frames from many clients over one
// backend connection and still hand each response back correctly.
//
// Encoding is append-style into caller-owned buffers (BeginFrame /
// Append* / EndFrame back-patches the length), decoding is a sticky-error
// Reader over the payload slice — both sides run allocation-free against
// reused scratch buffers.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
)

const (
	// Magic is the first byte of every frame. A JSON client that accidentally
	// connects to the binary port fails the magic check on its first byte
	// ('P' of POST is 0x50) and the connection closes immediately.
	Magic = 0xA7
	// Version is the protocol version this package speaks.
	Version = 1
	// HeaderSize is the fixed frame header length.
	HeaderSize = 16
	// MaxPayload caps a frame payload, mirroring the JSON API's request body
	// cap. A length field past this is treated as a framing error (desynced
	// or hostile peer), not a large message.
	MaxPayload = 1 << 20
	// MaxReplPayload caps replication frames (opcode range 0x10-0x1F): a full
	// snapshot ships every class's tenant and server id list plus the whole
	// lease ledger, which outgrows the request cap at large scale factors.
	// Only the replication listener ever reads frames this large — the public
	// binary ports reject replication opcodes before reading their payload.
	MaxReplPayload = 64 << 20
	// MaxStr8 is the longest string a one-byte-length field can carry.
	MaxStr8 = 255
)

// Op identifies a frame's message type. Requests have the high bit clear;
// each response opcode is its request's opcode with RespBit set. OpError is
// the error response to any request.
type Op uint8

// RespBit distinguishes responses from requests.
const RespBit Op = 0x80

const (
	OpSelect      Op = 0x01
	OpRelease     Op = 0x02
	OpPlace       Op = 0x03
	OpClasses     Op = 0x04
	OpServerClass Op = 0x05
	OpRenew       Op = 0x06
	OpPlaceBlock  Op = 0x07
	OpReimage     Op = 0x08

	OpSelectResp      = OpSelect | RespBit
	OpReleaseResp     = OpRelease | RespBit
	OpPlaceResp       = OpPlace | RespBit
	OpClassesResp     = OpClasses | RespBit
	OpServerClassResp = OpServerClass | RespBit
	OpRenewResp       = OpRenew | RespBit
	OpPlaceBlockResp  = OpPlaceBlock | RespBit
	OpReimageResp     = OpReimage | RespBit

	// Replication opcodes (0x10-0x1F): the intra-DC primary→follower snapshot
	// stream (internal/service/replication.go). OpReplHello is the one
	// follower→primary frame (sent once per connection, answered with
	// OpReplHello|RespBit); the rest are unacknowledged pushes from the
	// primary. These never appear on the public binary ports — servers and
	// routers reject them at the framing layer — so their larger payload cap
	// (MaxReplPayload) is confined to the replication listener. OpReplDelta
	// is reserved: nothing sends it and a follower that receives it drops the
	// stream.
	OpReplHello Op = 0x10
	OpReplSnap  Op = 0x11
	OpReplDelta Op = 0x12
	OpReplBeat  Op = 0x13

	OpReplHelloResp = OpReplHello | RespBit

	// OpError carries a status code (the JSON API's HTTP status for the same
	// failure) and a message. Sent in place of any response frame.
	OpError Op = 0xFF
)

// otherOpNames names the opcodes that are not data-plane requests or their
// responses; those take their names from Ops.
var otherOpNames = map[Op]string{
	OpReplHello:     "repl_hello",
	OpReplHelloResp: "repl_hello_resp",
	OpReplSnap:      "repl_snap",
	OpReplDelta:     "repl_delta",
	OpReplBeat:      "repl_beat",
	OpError:         "error",
}

// String names an opcode for metrics and logs.
func (o Op) String() string {
	if i := OpIndex(o &^ RespBit); i >= 0 {
		if o&RespBit != 0 {
			return Ops[i].Name + "_resp"
		}
		return Ops[i].Name
	}
	if name, ok := otherOpNames[o]; ok {
		return name
	}
	return fmt.Sprintf("op(0x%02x)", uint8(o))
}

// IsRequest reports whether the opcode is a client-to-server request: one
// with a row in Ops.
func (o Op) IsRequest() bool { return OpIndex(o) >= 0 }

// Resp returns the response opcode for a request opcode.
func (o Op) Resp() Op { return o | RespBit }

// IsRepl reports whether the opcode belongs to the replication stream.
// Replication frames are only legal on the dedicated replication listener;
// the public binary ports treat them as framing errors (before reading the
// payload, since replication frames may exceed MaxPayload).
func (o Op) IsRepl() bool {
	base := o &^ RespBit
	return base >= OpReplHello && base <= OpReplBeat
}

// Header flag bits (byte 3 of the frame header).
const (
	// FlagTrace marks a request frame whose payload is prefixed with an
	// 8-byte trace id (uint64 little-endian) that is not part of the message
	// payload. A relaying router multiplexing many clients over one backend
	// connection must substitute its own unique id in the header (see
	// SetFrameID), so the client's original id — the id both tiers trace the
	// request under — rides in this prefix instead. Responses never carry it.
	FlagTrace = 1 << 0
)

// Select request flag bits (payload-level, not the header flags byte).
const (
	// SelectFlagDryRun asks the advisory behaviour: run selection, reserve
	// nothing, return no lease.
	SelectFlagDryRun = 1 << 0
)

// Place request flag bits.
const (
	// PlaceFlagRelaxed drops the harvesting-environment constraint, the JSON
	// API's relaxed_environment.
	PlaceFlagRelaxed = 1 << 0
)

// Select job-type codes. 0-2 mirror core.JobType; JobFromLastRun asks the
// server to classify LastRunSeconds against the snapshot's thresholds (the
// JSON API's empty job_type).
const (
	JobShort       = 0
	JobMedium      = 1
	JobLong        = 2
	JobFromLastRun = 3
)

// Header is a parsed frame header.
type Header struct {
	Op    Op
	Flags uint8
	Len   uint32
	ID    uint64
}

// Framing errors. ErrBadFrame means the byte stream is not speaking this
// protocol (wrong magic or an absurd length): the connection is desynced and
// must be closed. ErrBadVersion is a well-formed frame from a future
// protocol revision.
var (
	ErrBadFrame   = errors.New("wire: bad frame")
	ErrBadVersion = errors.New("wire: unsupported protocol version")
	// ErrShortPayload is returned by message decoders when the payload ends
	// before the message does (or carries trailing bytes — both are framing
	// bugs, not semantic errors).
	ErrShortPayload = errors.New("wire: truncated or malformed payload")
)

// ParseHeader decodes a frame header from b[:HeaderSize].
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, ErrBadFrame
	}
	if b[0] != Magic {
		return Header{}, ErrBadFrame
	}
	if b[1] != Version {
		return Header{}, ErrBadVersion
	}
	h := Header{
		Op:    Op(b[2]),
		Flags: b[3],
		Len:   binary.LittleEndian.Uint32(b[4:8]),
		ID:    binary.LittleEndian.Uint64(b[8:16]),
	}
	limit := uint32(MaxPayload)
	if h.Op.IsRepl() {
		limit = MaxReplPayload
	}
	if h.Len > limit {
		return Header{}, ErrBadFrame
	}
	return h, nil
}

// ParsePublicHeader is ParseHeader for a port any client can reach: harvestd's
// binary listener, the router's binary front and the router's backend pipes.
// Replication opcodes are a framing error there. They carry MaxReplPayload
// through ParseHeader, so the refusal has to come before the payload is
// buffered — honoring one would let any peer grow the connection's buffer to
// 64 MiB. Only harvestd's replication listener and its followers read them.
func ParsePublicHeader(b []byte) (Header, error) {
	h, err := ParseHeader(b)
	if err == nil && h.Op.IsRepl() {
		return Header{}, ErrBadFrame
	}
	return h, err
}

// grownCap is the one growth rule for storage this package reuses across
// frames — ReadRawFrame's scratch and every slice a Decode refills (sized):
// storage too small for n grows to the next power of two that holds n and
// keeps what it held. A connection whose state creeps upward therefore regrows
// O(log n) times, not once per frame that passes its high-water mark, and never
// holds twice what its largest frame needed; what bounds that frame — the
// port's payload cap, the payload a count must fit in — is the caller's clamp.
func grownCap(n int) int { return 1 << bits.Len(uint(n-1)) }

// ReadRawFrame reads one whole frame from r into *scratch, growing it as
// needed, and returns the parsed header plus the frame's bytes — header and
// payload, ready to forward verbatim (aliasing *scratch: valid until the next
// call with the same scratch). With public set the header goes through
// ParsePublicHeader. *scratch grows by grownCap, clamped to the port's own cap:
// never past HeaderSize+MaxPayload when public, HeaderSize+MaxReplPayload
// otherwise. Errors are io errors, ErrBadFrame, or ErrBadVersion; a clean EOF
// before any header byte returns io.EOF.
func ReadRawFrame(r io.Reader, scratch *[]byte, public bool) (Header, []byte, error) {
	if cap(*scratch) < HeaderSize {
		*scratch = make([]byte, HeaderSize, 4096)
	}
	hdr := (*scratch)[:HeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = ErrBadFrame
		}
		return Header{}, nil, err
	}
	parse, portCap := ParseHeader, HeaderSize+MaxReplPayload
	if public {
		parse, portCap = ParsePublicHeader, HeaderSize+MaxPayload
	}
	h, err := parse(hdr)
	if err != nil {
		return Header{}, nil, err
	}
	total := HeaderSize + int(h.Len)
	if cap(*scratch) < total {
		grown := make([]byte, total, min(grownCap(total), portCap))
		copy(grown, hdr)
		*scratch = grown
	}
	frame := (*scratch)[:total]
	if _, err := io.ReadFull(r, frame[HeaderSize:]); err != nil {
		return Header{}, nil, ErrBadFrame
	}
	return h, frame, nil
}

// ReadFrame is ReadRawFrame minus the header, for a peer that may be sent
// replication frames (the replication listener, a follower) or that reads only
// responses to its own requests (a client).
func ReadFrame(r io.Reader, scratch *[]byte) (Header, []byte, error) {
	h, raw, err := ReadRawFrame(r, scratch, false)
	if err != nil {
		return Header{}, nil, err
	}
	return h, raw[HeaderSize:], nil
}

// BeginFrame appends a frame header with a zero length field to dst and
// returns the extended buffer. The caller appends the payload and then calls
// EndFrame with the offset BeginFrame started at (len(dst) before the call)
// to back-patch the length.
func BeginFrame(dst []byte, op Op, id uint64) []byte {
	dst = append(dst, Magic, Version, byte(op), 0)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	return binary.LittleEndian.AppendUint64(dst, id)
}

// EndFrame back-patches the payload length of the frame that started at
// offset mark in buf. Panics if the payload exceeds the opcode's cap
// (MaxPayload, or MaxReplPayload for replication frames) — frames are built
// by this codebase, so an oversized one is a bug, not input.
func EndFrame(buf []byte, mark int) []byte {
	n := len(buf) - mark - HeaderSize
	limit := MaxPayload
	if Op(buf[mark+2]).IsRepl() {
		limit = MaxReplPayload
	}
	if n < 0 || n > limit {
		panic("wire: EndFrame on a frame exceeding MaxPayload")
	}
	binary.LittleEndian.PutUint32(buf[mark+4:mark+8], uint32(n))
	return buf
}

// SetFrameID overwrites a complete frame's request id in place. This is the
// relay hook: a router multiplexing many clients' frames over one backend
// connection substitutes its own unique id on the backend leg (client ids may
// collide across — or even within — connections) and restores the client's id
// on the response before relaying it back.
func SetFrameID(frame []byte, id uint64) {
	binary.LittleEndian.PutUint64(frame[8:16], id)
}

// AppendFrame appends a complete frame with the given payload.
func AppendFrame(dst []byte, op Op, id uint64, payload []byte) []byte {
	mark := len(dst)
	dst = BeginFrame(dst, op, id)
	dst = append(dst, payload...)
	return EndFrame(dst, mark)
}

// AppendRelayFrame re-frames a request for the backend leg of native
// forwarding: same opcode and payload, relayID in the header, and traceID
// carried as a FlagTrace prefix so the backend tier still traces the frame
// under the id the client knows.
func AppendRelayFrame(dst []byte, h Header, payload []byte, relayID, traceID uint64) []byte {
	dst = append(dst, Magic, Version, byte(h.Op), h.Flags|FlagTrace)
	dst = binary.LittleEndian.AppendUint32(dst, h.Len+8)
	dst = binary.LittleEndian.AppendUint64(dst, relayID)
	dst = binary.LittleEndian.AppendUint64(dst, traceID)
	return append(dst, payload...)
}

// SplitTrace strips a request payload's FlagTrace prefix, returning the
// carried trace id and the true message payload. Frames without the flag
// yield h.ID (the id IS the trace id when nobody rewrote it) and the payload
// unchanged. ok is false when the flag is set but the payload cannot carry
// the prefix — a framing bug.
func SplitTrace(h Header, payload []byte) (traceID uint64, rest []byte, ok bool) {
	if h.Flags&FlagTrace == 0 {
		return h.ID, payload, true
	}
	if len(payload) < 8 {
		return 0, nil, false
	}
	return binary.LittleEndian.Uint64(payload[:8]), payload[8:], true
}

// Append* primitives: fixed-width little-endian scalar encoders.

func AppendU8(dst []byte, v uint8) []byte   { return append(dst, v) }
func AppendU16(dst []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(dst, v) }
func AppendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func AppendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }
func AppendI64(dst []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}
func AppendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendStr8 appends a one-byte-length string. Panics past MaxStr8: the
// strings on the wire are datacenter names and node ids, which come from
// configuration — a longer one is an operator error surfaced at startup, not
// silently truncated onto the wire — and a replicated lease's job_id and
// owner, which every door into the ledger bounds first (the request paths at
// 128 bytes, ledger.Restore through ReplLease.Encodable).
func AppendStr8(dst []byte, s string) []byte {
	if len(s) > MaxStr8 {
		panic("wire: string exceeds one-byte length prefix: " + s[:32] + "...")
	}
	dst = append(dst, byte(len(s)))
	return append(dst, s...)
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// Reader decodes a payload with a sticky error: any read past the end sets
// the error flag and returns zero values, so a decode sequence needs exactly
// one error check at the end — branch-light, and garbage input can never
// over-read or panic.
type Reader struct {
	b   []byte
	off int
	bad bool
}

// NewReader returns a Reader over payload.
func NewReader(payload []byte) Reader { return Reader{b: payload} }

func (r *Reader) take(n int) []byte {
	if r.bad || len(r.b)-r.off < n {
		r.bad = true
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a strict bool byte: anything but 0 or 1 is a malformed frame,
// which also keeps decode→encode a byte-identical fixed point.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.bad = true
	}
	return v == 1
}

func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *Reader) I64() int64 { return int64(r.U64()) }

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Str8 reads a one-byte-length string, returning a subslice of the payload
// (no copy — valid as long as the payload is).
func (r *Reader) Str8() []byte {
	n := int(r.U8())
	return r.take(n)
}

// Bytes reads n raw bytes as a payload subslice.
func (r *Reader) Bytes(n int) []byte { return r.take(n) }

// Remaining reports unread payload bytes.
func (r *Reader) Remaining() int {
	if r.bad {
		return 0
	}
	return len(r.b) - r.off
}

// Err reports whether any read ran past the payload.
func (r *Reader) Err() error {
	if r.bad {
		return ErrShortPayload
	}
	return nil
}

// Done is the strict end-of-message check: an error if the payload was
// over-read or has trailing bytes. Message decoders end with it so a frame
// is either exactly one message or rejected.
func (r *Reader) Done() error {
	if r.bad || r.off != len(r.b) {
		return ErrShortPayload
	}
	return nil
}

// PeekDC extracts the leading datacenter name every request payload starts
// with — the router's routing key, readable without decoding the rest of the
// message.
func PeekDC(payload []byte) ([]byte, bool) {
	if len(payload) < 1 {
		return nil, false
	}
	n := int(payload[0])
	if len(payload) < 1+n {
		return nil, false
	}
	return payload[1 : 1+n], true
}

// PeekSelectFlags extracts the flags byte of a select request payload
// without a full decode: the payload is the datacenter Str8, one job byte,
// then the flags. The router classifies dry-run selects (SelectFlagDryRun)
// as read traffic eligible for follower fan-out; reserving selects stay
// pinned to the primary.
func PeekSelectFlags(payload []byte) (uint8, bool) {
	if len(payload) < 1 {
		return 0, false
	}
	n := int(payload[0])
	if len(payload) < 1+n+2 {
		return 0, false
	}
	return payload[1+n+1], true
}

// PeekLease extracts the lease id from a release or renew request payload
// without a full decode: both encode the datacenter Str8 followed by the
// 8-byte lease. The router keys these frames onto a backend pipe by lease so
// operations on the same lease keep their client-issued order through the
// relay.
func PeekLease(payload []byte) (uint64, bool) {
	if len(payload) < 1 {
		return 0, false
	}
	n := int(payload[0])
	if len(payload) < 1+n+8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(payload[1+n:]), true
}
