package wire

import "math"

// Typed message codecs: one struct per opcode with one append-style frame
// encoder and one strict decoder, the only definition of its payload layout.
// The server answers through the encoders (a response's slices live in its
// connection's scratch), the load generators and the router's tests call the
// same ones, and every decoder reuses the slices of the message it fills.

// SelectReq asks for classes to host a job, mirroring the JSON
// selectRequest. Job is one of the Job* codes; HoldMillis is the lease TTL
// (0 means the server default; the JSON API's hold_seconds cap applies).
type SelectReq struct {
	DC             []byte
	Job            uint8
	Flags          uint8 // SelectFlag* bits
	MaxCores       float64
	LastRunSeconds float64
	HoldMillis     uint32
}

// AppendSelectReq appends a complete select request frame.
func AppendSelectReq(dst []byte, id uint64, dc string, m SelectReq) []byte {
	mark := len(dst)
	dst = BeginFrame(dst, OpSelect, id)
	dst = AppendStr8(dst, dc)
	dst = AppendU8(dst, m.Job)
	dst = AppendU8(dst, m.Flags)
	dst = AppendF64(dst, m.MaxCores)
	dst = AppendF64(dst, m.LastRunSeconds)
	dst = AppendU32(dst, m.HoldMillis)
	return EndFrame(dst, mark)
}

// Decode parses a select request payload. DC aliases the payload.
func (m *SelectReq) Decode(payload []byte) error {
	r := NewReader(payload)
	m.DC = r.Str8()
	m.Job = r.U8()
	m.Flags = r.U8()
	m.MaxCores = r.F64()
	m.LastRunSeconds = r.F64()
	m.HoldMillis = r.U32()
	return r.Done()
}

// SelectGrant is one class entry of a select response: the class id, its
// headroom at selection time, and the cores actually reserved (0 on dry-run
// or unsatisfiable selects).
type SelectGrant struct {
	Class    uint32
	Headroom float64
	Granted  float64
}

// SelectResp mirrors the JSON selectResponse. Lease is 0 when nothing was
// reserved; ExpiresIn is seconds until lease expiry.
type SelectResp struct {
	Generation  uint64
	Lease       uint64
	ExpiresIn   float64
	Job         uint8
	Satisfiable bool
	Classes     []SelectGrant
}

// AppendSelectResp appends a complete select response frame.
func AppendSelectResp(dst []byte, id uint64, m *SelectResp) []byte {
	mark := len(dst)
	dst = BeginFrame(dst, OpSelectResp, id)
	dst = AppendU64(dst, m.Generation)
	dst = AppendU64(dst, m.Lease)
	dst = AppendF64(dst, m.ExpiresIn)
	dst = AppendU8(dst, m.Job)
	dst = AppendBool(dst, m.Satisfiable)
	dst = AppendU16(dst, uint16(len(m.Classes)))
	for _, g := range m.Classes {
		dst = AppendU32(dst, g.Class)
		dst = AppendF64(dst, g.Headroom)
		dst = AppendF64(dst, g.Granted)
	}
	return EndFrame(dst, mark)
}

// Decode parses a select response payload, reusing m.Classes.
func (m *SelectResp) Decode(payload []byte) error {
	r := NewReader(payload)
	m.Generation = r.U64()
	m.Lease = r.U64()
	m.ExpiresIn = r.F64()
	m.Job = r.U8()
	m.Satisfiable = r.Bool()
	n := int(r.U16())
	m.Classes = sized(m.Classes, n, selectGrantSize, &r)
	for i := range m.Classes {
		m.Classes[i] = SelectGrant{Class: r.U32(), Headroom: r.F64(), Granted: r.F64()}
	}
	return r.Done()
}

// ReleaseReq returns a lease's cores, mirroring the JSON releaseRequest.
type ReleaseReq struct {
	DC    []byte
	Lease uint64
}

// AppendReleaseReq appends a complete release request frame.
func AppendReleaseReq(dst []byte, id uint64, dc string, lease uint64) []byte {
	mark := len(dst)
	dst = BeginFrame(dst, OpRelease, id)
	dst = AppendStr8(dst, dc)
	dst = AppendU64(dst, lease)
	return EndFrame(dst, mark)
}

// Decode parses a release request payload. DC aliases the payload.
func (m *ReleaseReq) Decode(payload []byte) error {
	r := NewReader(payload)
	m.DC = r.Str8()
	m.Lease = r.U64()
	return r.Done()
}

// ReleaseGrant is one class's share of a released lease, in exact
// millicores (the ledger's unit — integral, so conservation checks need no
// float tolerance).
type ReleaseGrant struct {
	Class  uint32
	Millis int64
}

// ReleaseResp mirrors the JSON releaseResponse with cores in millicores.
type ReleaseResp struct {
	Lease       uint64
	TotalMillis int64
	Grants      []ReleaseGrant
}

// AppendReleaseResp appends a complete release response frame.
func AppendReleaseResp(dst []byte, id uint64, m *ReleaseResp) []byte {
	mark := len(dst)
	dst = BeginFrame(dst, OpReleaseResp, id)
	dst = AppendU64(dst, m.Lease)
	dst = AppendI64(dst, m.TotalMillis)
	dst = AppendU16(dst, uint16(len(m.Grants)))
	for _, g := range m.Grants {
		dst = AppendU32(dst, g.Class)
		dst = AppendI64(dst, g.Millis)
	}
	return EndFrame(dst, mark)
}

// Decode parses a release response payload, reusing m.Grants.
func (m *ReleaseResp) Decode(payload []byte) error {
	r := NewReader(payload)
	m.Lease = r.U64()
	m.TotalMillis = r.I64()
	n := int(r.U16())
	m.Grants = sized(m.Grants, n, releaseGrantSize, &r)
	for i := range m.Grants {
		m.Grants[i] = ReleaseGrant{Class: r.U32(), Millis: r.I64()}
	}
	return r.Done()
}

// RenewReq extends a lease's TTL without releasing it, mirroring the JSON
// renewRequest. HoldMillis is the new TTL (0 means the server default; the
// JSON API's hold_seconds cap applies).
type RenewReq struct {
	DC         []byte
	Lease      uint64
	HoldMillis uint32
}

// AppendRenewReq appends a complete renew request frame.
func AppendRenewReq(dst []byte, id uint64, dc string, m RenewReq) []byte {
	mark := len(dst)
	dst = BeginFrame(dst, OpRenew, id)
	dst = AppendStr8(dst, dc)
	dst = AppendU64(dst, m.Lease)
	dst = AppendU32(dst, m.HoldMillis)
	return EndFrame(dst, mark)
}

// Decode parses a renew request payload. DC aliases the payload.
func (m *RenewReq) Decode(payload []byte) error {
	r := NewReader(payload)
	m.DC = r.Str8()
	m.Lease = r.U64()
	m.HoldMillis = r.U32()
	return r.Done()
}

// RenewResp mirrors the JSON renewResponse. ExpiresIn is seconds until the
// renewed expiry (0 when the server holds leases forever).
type RenewResp struct {
	Lease       uint64
	TotalMillis int64
	ExpiresIn   float64
}

// AppendRenewResp appends a complete renew response frame.
func AppendRenewResp(dst []byte, id uint64, m *RenewResp) []byte {
	mark := len(dst)
	dst = BeginFrame(dst, OpRenewResp, id)
	dst = AppendU64(dst, m.Lease)
	dst = AppendI64(dst, m.TotalMillis)
	dst = AppendF64(dst, m.ExpiresIn)
	return EndFrame(dst, mark)
}

// Decode parses a renew response payload.
func (m *RenewResp) Decode(payload []byte) error {
	r := NewReader(payload)
	m.Lease = r.U64()
	m.TotalMillis = r.I64()
	m.ExpiresIn = r.F64()
	return r.Done()
}

// PlaceReq asks for replica targets, mirroring the JSON placeRequest.
// Writer is the creating server (-1 for an external writer).
type PlaceReq struct {
	DC          []byte
	Replication uint8
	Flags       uint8 // PlaceFlag* bits
	Writer      int64
}

// AppendPlaceReq appends a complete place request frame.
func AppendPlaceReq(dst []byte, id uint64, dc string, m PlaceReq) []byte {
	mark := len(dst)
	dst = BeginFrame(dst, OpPlace, id)
	dst = AppendStr8(dst, dc)
	dst = AppendU8(dst, m.Replication)
	dst = AppendU8(dst, m.Flags)
	dst = AppendI64(dst, m.Writer)
	return EndFrame(dst, mark)
}

// Decode parses a place request payload. DC aliases the payload.
func (m *PlaceReq) Decode(payload []byte) error {
	r := NewReader(payload)
	m.DC = r.Str8()
	m.Replication = r.U8()
	m.Flags = r.U8()
	m.Writer = r.I64()
	return r.Done()
}

// PlaceResp mirrors the JSON placeResponse.
type PlaceResp struct {
	Generation uint64
	Replicas   []int64
}

// AppendPlaceResp appends a complete place response frame.
func AppendPlaceResp(dst []byte, id uint64, m *PlaceResp) []byte {
	mark := len(dst)
	dst = BeginFrame(dst, OpPlaceResp, id)
	dst = AppendU64(dst, m.Generation)
	dst = AppendU16(dst, uint16(len(m.Replicas)))
	for _, s := range m.Replicas {
		dst = AppendI64(dst, s)
	}
	return EndFrame(dst, mark)
}

// Decode parses a place response payload, reusing m.Replicas.
func (m *PlaceResp) Decode(payload []byte) error {
	r := NewReader(payload)
	m.Generation = r.U64()
	n := int(r.U16())
	m.Replicas = sized(m.Replicas, n, 8, &r)
	for i := range m.Replicas {
		m.Replicas[i] = r.I64()
	}
	return r.Done()
}

// ClassesReq asks for a datacenter's utilization classes.
type ClassesReq struct {
	DC []byte
}

// AppendClassesReq appends a complete classes request frame.
func AppendClassesReq(dst []byte, id uint64, dc string) []byte {
	mark := len(dst)
	dst = BeginFrame(dst, OpClasses, id)
	dst = AppendStr8(dst, dc)
	return EndFrame(dst, mark)
}

// Decode parses a classes request payload. DC aliases the payload.
func (m *ClassesReq) Decode(payload []byte) error {
	r := NewReader(payload)
	m.DC = r.Str8()
	return r.Done()
}

// ClassRec is the binary form of the JSON classInfo: one utilization class
// with its live usage and ledger occupancy. Pattern is the
// signalproc.Pattern ordinal; AllocMillis is the ledger occupancy in exact
// millicores.
type ClassRec struct {
	ID            uint32
	Pattern       uint8
	NumTenants    uint32
	NumServers    uint32
	Avg           float64
	Peak          float64
	Current       float64
	AllocMillis   int64
	ExampleServer int64
}

// Fixed encoded sizes of the repeated payload elements, used to bound
// decode-slice allocation against lying count fields.
const (
	classRecSize     = 4 + 1 + 4 + 4 + 8 + 8 + 8 + 8 + 8
	selectGrantSize  = 4 + 8 + 8
	releaseGrantSize = 4 + 8
)

// AppendClassRec appends one encoded class record (payload-level, no frame).
func AppendClassRec(dst []byte, c *ClassRec) []byte {
	dst = AppendU32(dst, c.ID)
	dst = AppendU8(dst, c.Pattern)
	dst = AppendU32(dst, c.NumTenants)
	dst = AppendU32(dst, c.NumServers)
	dst = AppendF64(dst, c.Avg)
	dst = AppendF64(dst, c.Peak)
	dst = AppendF64(dst, c.Current)
	dst = AppendI64(dst, c.AllocMillis)
	return AppendI64(dst, c.ExampleServer)
}

func decodeClassRec(r *Reader, c *ClassRec) {
	c.ID = r.U32()
	c.Pattern = r.U8()
	c.NumTenants = r.U32()
	c.NumServers = r.U32()
	c.Avg = r.F64()
	c.Peak = r.F64()
	c.Current = r.F64()
	c.AllocMillis = r.I64()
	c.ExampleServer = r.I64()
}

// ClassesResp mirrors the JSON classesResponse.
type ClassesResp struct {
	Generation  uint64
	AsOfSeconds float64
	Classes     []ClassRec
}

// AppendClassesResp appends a complete classes response frame.
func AppendClassesResp(dst []byte, id uint64, m *ClassesResp) []byte {
	mark := len(dst)
	dst = BeginFrame(dst, OpClassesResp, id)
	dst = AppendU64(dst, m.Generation)
	dst = AppendF64(dst, m.AsOfSeconds)
	dst = AppendU16(dst, uint16(len(m.Classes)))
	for i := range m.Classes {
		dst = AppendClassRec(dst, &m.Classes[i])
	}
	return EndFrame(dst, mark)
}

// Decode parses a classes response payload, reusing m.Classes.
func (m *ClassesResp) Decode(payload []byte) error {
	r := NewReader(payload)
	m.Generation = r.U64()
	m.AsOfSeconds = r.F64()
	n := int(r.U16())
	m.Classes = sized(m.Classes, n, classRecSize, &r)
	for i := range m.Classes {
		decodeClassRec(&r, &m.Classes[i])
	}
	return r.Done()
}

// ServerClassReq resolves a server to its utilization class.
type ServerClassReq struct {
	DC     []byte
	Server int64
}

// AppendServerClassReq appends a complete server-class request frame.
func AppendServerClassReq(dst []byte, id uint64, dc string, server int64) []byte {
	mark := len(dst)
	dst = BeginFrame(dst, OpServerClass, id)
	dst = AppendStr8(dst, dc)
	dst = AppendI64(dst, server)
	return EndFrame(dst, mark)
}

// Decode parses a server-class request payload. DC aliases the payload.
func (m *ServerClassReq) Decode(payload []byte) error {
	r := NewReader(payload)
	m.DC = r.Str8()
	m.Server = r.I64()
	return r.Done()
}

// ServerClassResp mirrors the JSON serverClassResponse.
type ServerClassResp struct {
	Generation uint64
	Server     int64
	Class      ClassRec
}

// AppendServerClassResp appends a complete server-class response frame.
func AppendServerClassResp(dst []byte, id uint64, m *ServerClassResp) []byte {
	mark := len(dst)
	dst = BeginFrame(dst, OpServerClassResp, id)
	dst = AppendU64(dst, m.Generation)
	dst = AppendI64(dst, m.Server)
	dst = AppendClassRec(dst, &m.Class)
	return EndFrame(dst, mark)
}

// Decode parses a server-class response payload.
func (m *ServerClassResp) Decode(payload []byte) error {
	r := NewReader(payload)
	m.Generation = r.U64()
	m.Server = r.I64()
	decodeClassRec(&r, &m.Class)
	return r.Done()
}

// PlaceBlockReq mirrors the JSON blockRequest: place AND record a block's
// replicas in the block ledger (OpPlace computes a placement without
// recording it). Flags carries PlaceFlag* bits.
type PlaceBlockReq struct {
	DC          []byte
	Replication uint8
	Flags       uint8
	Writer      int64
}

// AppendPlaceBlockReq appends a complete place-block request frame.
func AppendPlaceBlockReq(dst []byte, id uint64, dc string, m PlaceBlockReq) []byte {
	mark := len(dst)
	dst = BeginFrame(dst, OpPlaceBlock, id)
	dst = AppendStr8(dst, dc)
	dst = AppendU8(dst, m.Replication)
	dst = AppendU8(dst, m.Flags)
	dst = AppendI64(dst, m.Writer)
	return EndFrame(dst, mark)
}

// Decode parses a place-block request payload. DC aliases the payload.
func (m *PlaceBlockReq) Decode(payload []byte) error {
	r := NewReader(payload)
	m.DC = r.Str8()
	m.Replication = r.U8()
	m.Flags = r.U8()
	m.Writer = r.I64()
	return r.Done()
}

// PlaceBlockResp mirrors the JSON blockResponse: the ledger-recorded block id
// plus the replica servers placed for it.
type PlaceBlockResp struct {
	Generation uint64
	Block      uint64
	Replicas   []int64
}

// AppendPlaceBlockResp appends a complete place-block response frame.
func AppendPlaceBlockResp(dst []byte, id uint64, m *PlaceBlockResp) []byte {
	mark := len(dst)
	dst = BeginFrame(dst, OpPlaceBlockResp, id)
	dst = AppendU64(dst, m.Generation)
	dst = AppendU64(dst, m.Block)
	dst = AppendU16(dst, uint16(len(m.Replicas)))
	for _, s := range m.Replicas {
		dst = AppendI64(dst, s)
	}
	return EndFrame(dst, mark)
}

// Decode parses a place-block response payload, reusing m.Replicas.
func (m *PlaceBlockResp) Decode(payload []byte) error {
	r := NewReader(payload)
	m.Generation = r.U64()
	m.Block = r.U64()
	n := int(r.U16())
	m.Replicas = sized(m.Replicas, n, 8, &r)
	for i := range m.Replicas {
		m.Replicas[i] = r.I64()
	}
	return r.Done()
}

// ReimageReq mirrors the JSON reimageRequest: the named server was reimaged;
// every block replica it held is lost and queued for re-replication.
type ReimageReq struct {
	DC     []byte
	Server int64
}

// AppendReimageReq appends a complete reimage request frame.
func AppendReimageReq(dst []byte, id uint64, dc string, server int64) []byte {
	mark := len(dst)
	dst = BeginFrame(dst, OpReimage, id)
	dst = AppendStr8(dst, dc)
	dst = AppendI64(dst, server)
	return EndFrame(dst, mark)
}

// Decode parses a reimage request payload. DC aliases the payload.
func (m *ReimageReq) Decode(payload []byte) error {
	r := NewReader(payload)
	m.DC = r.Str8()
	m.Server = r.I64()
	return r.Done()
}

// ReimageResp mirrors the JSON reimageResponse: how many replicas the event
// lost and how many block-ledger slots are pending repair afterwards.
type ReimageResp struct {
	Server  int64
	Lost    uint32
	Pending uint32
}

// AppendReimageResp appends a complete reimage response frame.
func AppendReimageResp(dst []byte, id uint64, m *ReimageResp) []byte {
	mark := len(dst)
	dst = BeginFrame(dst, OpReimageResp, id)
	dst = AppendI64(dst, m.Server)
	dst = AppendU32(dst, m.Lost)
	dst = AppendU32(dst, m.Pending)
	return EndFrame(dst, mark)
}

// Decode parses a reimage response payload.
func (m *ReimageResp) Decode(payload []byte) error {
	r := NewReader(payload)
	m.Server = r.I64()
	m.Lost = r.U32()
	m.Pending = r.U32()
	return r.Done()
}

// ErrorResp is the payload of an OpError frame: a status code (the HTTP
// status the JSON API would have returned for the same failure) and a
// human-readable message.
type ErrorResp struct {
	Code    uint16
	Message []byte
}

// AppendErrorResp appends a complete error response frame. Messages longer
// than the u16 length prefix allows are truncated — an error message is
// diagnostics, not data.
func AppendErrorResp(dst []byte, id uint64, code uint16, msg string) []byte {
	if len(msg) > math.MaxUint16 {
		msg = msg[:math.MaxUint16]
	}
	mark := len(dst)
	dst = BeginFrame(dst, OpError, id)
	dst = AppendU16(dst, code)
	dst = AppendU16(dst, uint16(len(msg)))
	dst = append(dst, msg...)
	return EndFrame(dst, mark)
}

// Decode parses an error response payload. Message aliases the payload.
func (m *ErrorResp) Decode(payload []byte) error {
	r := NewReader(payload)
	m.Code = r.U16()
	n := int(r.U16())
	m.Message = r.Bytes(n)
	return r.Done()
}

// sized resizes a reused decode slice to n elements of elemSize encoded
// bytes each, but never to more elements than the remaining payload could
// actually hold — a lying count field cannot force a huge allocation. When
// clamped, the strict Done check fails the decode anyway. Storage too small
// grows by grownCap, clamped to what the payload could hold, and keeps every
// element it held, spare capacity included, so each keeps the inner slice the
// decode loop refills: growing by one element costs one object, not one per
// element.
func sized[T any](s []T, n, elemSize int, r *Reader) []T {
	most := r.Remaining() / elemSize
	if n > most {
		// The count lies about the payload: poison the reader so the decode
		// fails its Done check even if the truncated element loop happens to
		// land exactly on the payload end.
		n = most
		r.bad = true
	}
	if cap(s) < n {
		grown := make([]T, min(grownCap(n), most))
		copy(grown, s[:cap(s)])
		return grown[:n]
	}
	return s[:n]
}
