package service

import (
	"bufio"
	"errors"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"harvest/internal/obs"
	"harvest/internal/wire"
)

// Binary server tuning. The idle timeout matches the JSON server's; the
// write timeout bounds how long a flush may block on a stalled client before
// the connection is abandoned.
const (
	binaryIdleTimeout  = 2 * time.Minute
	binaryWriteTimeout = 30 * time.Second
	// binaryReadBuffer sizes the per-connection read buffer: big enough that
	// a full pipeline window of requests (~64 × ~50 bytes) arrives in one
	// read syscall.
	binaryReadBuffer = 64 << 10
)

// BinaryServer serves the wire package's binary frame dialect of the query
// API: the same operations (ops.go) as the JSON dialect in http.go, minus
// net/http and encoding/json. Each accepted connection gets one goroutine
// running a read–dispatch–write loop straight against the service's
// snapshot/ledger fast paths: frames arrive through wire.ReadRawFrame and
// responses leave through the batchConn the JSON port accepts with, so a
// pipelining client costs roughly one syscall pair per batch rather than per
// request.
//
// The dispatch loop distinguishes two failure classes: a well-framed request
// the service rejects (unknown datacenter, bad parameters) answers with an
// OpError frame carrying the JSON API's status code for the same failure and
// the connection lives on; a framing violation (bad magic, absurd length)
// means the peer is desynced or not speaking the protocol, and the
// connection closes immediately.
type BinaryServer struct {
	svc *Service

	// metrics is indexed by wire.OpIndex; same counters as the JSON endpoints
	// so /metrics reports both dialects side by side.
	metrics [len(wire.Ops)]obs.EndpointMetrics

	// ingestGated is set when the attached API requires the ingest bearer
	// token: operations behind it (wire.OpInfo.Bearer) are then refused here.
	ingestGated atomic.Bool

	// rec, when set (AttachBinary shares the API's), records one trace per
	// dispatched frame; nil keeps the dispatch path trace-free.
	rec *obs.Recorder

	// srv is the accept loop and the connection set (wire.Server's contract).
	srv           wire.Server
	framingErrors atomic.Uint64
}

// NewBinaryServer returns a binary frame server over svc. Call Serve with a
// listener to start accepting.
func NewBinaryServer(svc *Service) *BinaryServer {
	return &BinaryServer{svc: svc}
}

// Serve accepts connections on ln until Close, blocking like http.Serve.
func (b *BinaryServer) Serve(ln net.Listener) error { return b.srv.Serve(ln, b.handleConn) }

// Close stops accepting, closes every open connection, and waits for the
// per-connection goroutines to drain.
func (b *BinaryServer) Close() { b.srv.Close() }

// handleConn serves one accepted connection with a read scratch of its own.
func (b *BinaryServer) handleConn(c net.Conn) { b.serveConn(c, new([]byte)) }

// serveConn is the connection loop, reading frames through ReadRawFrame into
// *in. Replies park in a batchConn, the JSON port's write-behind, until the
// loop next reads from the socket: once the buffered burst has been answered.
// A framing violation closes the connection after flushing the replies to the
// frames before it.
func (b *BinaryServer) serveConn(c net.Conn, in *[]byte) {
	// Sized up front, as the reply buffer of a pipelined burst: grown by
	// appends, it would reallocate its way up on the connection's first burst.
	bc := &batchConn{Conn: deadlineConn{c}, buf: make([]byte, 0, batchFlushLimit)}
	defer bc.Close()
	br := bufio.NewReaderSize(bc, binaryReadBuffer)
	// One goroutine serves the connection, one request at a time, so one
	// scratch and one reply buffer serve every request on it.
	var sc scratch
	var out []byte
	for {
		h, frame, err := wire.ReadRawFrame(br, in, true)
		if err != nil {
			// Desynced, not our protocol, or gone mid-frame: nothing sane can
			// follow. A clean close or a dead socket is not a framing error.
			if errors.Is(err, wire.ErrBadFrame) || errors.Is(err, wire.ErrBadVersion) {
				b.framingErrors.Add(1)
			}
			return
		}
		out = b.dispatch(&sc, out[:0], h, frame[wire.HeaderSize:])
		if _, err := bc.Write(out); err != nil {
			return
		}
	}
}

// deadlineConn arms a fresh deadline before every socket read and write, as
// batchConn may flush on any refill or past batchFlushLimit.
type deadlineConn struct{ net.Conn }

func (c deadlineConn) Read(p []byte) (int, error) {
	c.Conn.SetReadDeadline(time.Now().Add(binaryIdleTimeout))
	return c.Conn.Read(p)
}

func (c deadlineConn) Write(p []byte) (int, error) {
	c.Conn.SetWriteDeadline(time.Now().Add(binaryWriteTimeout))
	return c.Conn.Write(p)
}

// dispatch decodes one request frame, executes it with the connection's
// scratch, and appends the response frame to out. A rejection appends an
// OpError frame carrying the status the JSON API answers the same failure
// with.
func (b *BinaryServer) dispatch(sc *scratch, out []byte, h wire.Header, payload []byte) []byte {
	start := time.Now()
	// The trace id joins the two tiers on /debug/traces: for a direct client
	// it is the echoed frame id; a pipelining router rewrites the frame id
	// for its own completion keying and carries the client's original id in
	// a FlagTrace payload prefix instead (id 0 gets a server-assigned one).
	traceID, payload, ok := wire.SplitTrace(h, payload)
	if !ok {
		return wire.AppendErrorResp(out, h.ID, http.StatusBadRequest, "bad trace prefix")
	}
	i := wire.OpIndex(h.Op)
	if i < 0 {
		return wire.AppendErrorResp(out, h.ID, http.StatusBadRequest, "unknown opcode")
	}
	info := &wire.Ops[i]
	// Every request payload leads with its datacenter; a payload too short to
	// hold one fails its decode below.
	dcb, _ := wire.PeekDC(payload)
	dc := b.svc.dcName(dcb)
	tr := b.rec.Begin(traceID, obs.DialectBinary, info.Name, dc)
	mark := len(out)
	var rej *rejection
	if info.Bearer && b.ingestGated.Load() {
		rej = reject(http.StatusUnauthorized, info.Name+" requires the ingest bearer; use the JSON endpoint")
	} else {
		out, rej = binaryOps[i](b.svc, sc, i, out, h.ID, payload, dc, tr)
	}
	status := http.StatusOK
	if rej != nil {
		status = rej.Status
		out = wire.AppendErrorResp(out[:mark], h.ID, uint16(status), rej.Message)
	}
	b.metrics[i].Observe(time.Since(start), status)
	tr.Finish(status)
	return out
}

// badPayload answers a frame whose payload is not its opcode's message.
var badPayload = &rejection{Status: http.StatusBadRequest, Message: "bad request payload"}

// binaryOp is one operation's binary codec: its frame's payload in, its
// response frame appended to out. i is the operation's row in wire.Ops.
type binaryOp func(s *Service, sc *scratch, i int, out []byte, id uint64, payload []byte, dc string, tr *obs.Trace) ([]byte, *rejection)

// binaryRow is the binary codec of op: args decodes the payload into the
// operation's arguments, and enc appends the reply op filled, both kept in the
// connection's scratch so a request costs no garbage.
func binaryRow[Q, P any](op func(*Service, *scratch, string, *Q, *P, *obs.Trace) *rejection,
	enc func([]byte, uint64, *P) []byte, args func(q *Q, payload []byte) error) binaryOp {
	return func(s *Service, sc *scratch, i int, out []byte, id uint64, payload []byte, dc string, tr *obs.Trace) ([]byte, *rejection) {
		io := slot[opIO[Q, P]](sc, i)
		if args(&io.q, payload) != nil {
			return out, badPayload
		}
		if rej := op(s, sc, dc, &io.q, &io.p, tr); rej != nil {
			return out, rej
		}
		return enc(out, id, &io.p), nil
	}
}

// binaryOps is the binary dialect of the data plane, indexed like wire.Ops:
// each frame converted to the operation's JSON request struct (milliseconds to
// seconds, flag bits to bools, a job code to its name).
var binaryOps = opTable(map[wire.Op]binaryOp{
	wire.OpSelect: binaryRow((*Service).opSelect, wire.AppendSelectResp, func(q *selectRequest, in []byte) error {
		var m wire.SelectReq
		err := m.Decode(in)
		*q = selectRequest{JobType: jobName(m.Job), LastRunSeconds: m.LastRunSeconds, MaxConcurrentCores: m.MaxCores,
			HoldSeconds: float64(m.HoldMillis) / 1000, DryRun: m.Flags&wire.SelectFlagDryRun != 0}
		return err
	}),
	wire.OpRelease: binaryRow((*Service).opRelease, wire.AppendReleaseResp, func(q *leaseRequest, in []byte) error {
		var m wire.ReleaseReq
		err := m.Decode(in)
		*q = leaseRequest{Lease: m.Lease}
		return err
	}),
	wire.OpRenew: binaryRow((*Service).opRenew, wire.AppendRenewResp, func(q *leaseRequest, in []byte) error {
		var m wire.RenewReq
		err := m.Decode(in)
		*q = leaseRequest{Lease: m.Lease, HoldSeconds: float64(m.HoldMillis) / 1000}
		return err
	}),
	wire.OpPlace: binaryRow((*Service).opPlace, wire.AppendPlaceResp, func(q *placeRequest, in []byte) error {
		var m wire.PlaceReq
		err := m.Decode(in)
		*q = placeRequest{Replication: int(m.Replication), Writer: m.Writer, RelaxedEnvironment: m.Flags&wire.PlaceFlagRelaxed != 0}
		return err
	}),
	wire.OpPlaceBlock: binaryRow((*Service).opPlaceBlock, wire.AppendPlaceBlockResp, func(q *placeRequest, in []byte) error {
		var m wire.PlaceBlockReq
		err := m.Decode(in)
		*q = placeRequest{Replication: int(m.Replication), Writer: m.Writer, RelaxedEnvironment: m.Flags&wire.PlaceFlagRelaxed != 0}
		return err
	}),
	wire.OpReimage: binaryRow((*Service).opReimage, wire.AppendReimageResp, func(q *reimageRequest, in []byte) error {
		var m wire.ReimageReq
		err := m.Decode(in)
		q.server = m.Server
		q.Server = &q.server
		return err
	}),
	wire.OpClasses:     binaryRow((*Service).opClasses, wire.AppendClassesResp, (*wire.ClassesReq).Decode),
	wire.OpServerClass: binaryRow((*Service).opServerClass, wire.AppendServerClassResp, (*wire.ServerClassReq).Decode),
})

// BinaryStats is the binary listener's section of /metrics, in both
// expositions: connection accounting plus the same per-endpoint rows as the
// JSON dialect, keyed by opcode name. Addr is the advertised address, which
// only the API that attached the server knows.
type BinaryStats struct {
	Addr          string                 `json:"addr"`
	Accepted      uint64                 `json:"accepted_conns" prom:"harvestd_binary_accepted_conns_total,counter" help:"Binary client connections accepted."`
	Open          int64                  `json:"open_conns" prom:"harvestd_binary_open_conns,gauge" help:"Binary client connections currently open."`
	FramingErrors uint64                 `json:"framing_errors" prom:"harvestd_binary_framing_errors_total,counter" help:"Connections dropped for bad framing."`
	Endpoints     map[string]endpointRow `json:"endpoints" labels:"endpoint,dialect=binary"`
}

// Stats reads the listener's counters for /metrics. Every request opcode has
// a row, served or not.
func (b *BinaryServer) Stats() BinaryStats {
	var st BinaryStats
	b.readStats(&st)
	return st
}

// readStats is Stats into st, reusing the rows map it holds.
func (b *BinaryServer) readStats(st *BinaryStats) {
	rows := st.Endpoints
	if rows == nil {
		rows = make(map[string]endpointRow, len(wire.Ops))
	}
	*st = BinaryStats{
		Accepted:      b.srv.Accepted(),
		Open:          b.srv.Open(),
		FramingErrors: b.framingErrors.Load(),
		Endpoints:     rows,
	}
	for i := range wire.Ops {
		rows[wire.Ops[i].Name] = endpointRow{EndpointStats: b.metrics[i].Stats()}
	}
}

// ListenAndServe binds addr and serves until Close — the cmd/harvestd entry
// point. The returned channel yields what Serve returned (nil after a Close).
func (b *BinaryServer) ListenAndServe(addr string) (net.Addr, <-chan error, error) {
	return b.srv.ListenAndServe(addr, b.handleConn)
}
