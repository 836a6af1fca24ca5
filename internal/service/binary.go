package service

import (
	"bufio"
	"errors"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"harvest/internal/obs"
	"harvest/internal/tenant"
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
// API: the same select/release/place/classes/server-class semantics as the
// JSON handlers in http.go, minus net/http and encoding/json. Each accepted
// connection gets one goroutine running a read–dispatch–write loop straight
// against the service's snapshot/ledger fast paths: frames arrive through
// wire.ReadRawFrame and responses leave through the batchConn the JSON port
// accepts with, so a pipelining client costs roughly one syscall pair per
// batch rather than per request.
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
		out, rej = b.serve(sc, out, h, payload, dc, tr)
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

// serve is the binary codec of each operation: payload → arguments, result →
// the operation's response message, appended as a frame by internal/wire's
// encoder for it. The slices a message carries are the connection scratch's,
// reused from one request to the next.
func (b *BinaryServer) serve(sc *scratch, out []byte, h wire.Header, payload []byte, dc string, tr *obs.Trace) ([]byte, *rejection) {
	re := &sc.reply
	switch h.Op {
	case wire.OpSelect:
		var m wire.SelectReq
		if m.Decode(payload) != nil {
			return out, badPayload
		}
		res, rej := b.svc.opSelect(sc, dc, selectArgs{
			Job:            m.Job,
			DryRun:         m.Flags&wire.SelectFlagDryRun != 0,
			MaxCores:       m.MaxCores,
			LastRunSeconds: m.LastRunSeconds,
			HoldSeconds:    float64(m.HoldMillis) / 1000,
		}, tr)
		if rej != nil {
			return out, rej
		}
		re.selectGrants = re.selectGrants[:0]
		for i, cls := range res.Selection.Classes {
			g := wire.SelectGrant{Class: uint32(cls), Headroom: res.Selection.Headrooms[i]}
			if i < len(res.Granted) { // a dry run grants nothing
				g.Granted = res.Granted[i]
			}
			re.selectGrants = append(re.selectGrants, g)
		}
		return wire.AppendSelectResp(out, h.ID, &wire.SelectResp{
			Generation:  res.At.Generation,
			Lease:       res.Lease,
			ExpiresIn:   secondsUntil(res.ExpiresAt),
			Job:         uint8(res.JobType),
			Satisfiable: !res.Selection.Empty(),
			Classes:     re.selectGrants,
		}), nil
	case wire.OpRelease:
		var m wire.ReleaseReq
		if m.Decode(payload) != nil {
			return out, badPayload
		}
		lease, rej := b.svc.opRelease(sc, dc, m.Lease)
		if rej != nil {
			return out, rej
		}
		re.releaseGrants = re.releaseGrants[:0]
		for _, g := range lease.Grants {
			re.releaseGrants = append(re.releaseGrants, wire.ReleaseGrant(g))
		}
		return wire.AppendReleaseResp(out, h.ID, &wire.ReleaseResp{Lease: lease.ID, TotalMillis: lease.TotalMillis(), Grants: re.releaseGrants}), nil
	case wire.OpRenew:
		var m wire.RenewReq
		if m.Decode(payload) != nil {
			return out, badPayload
		}
		lease, rej := b.svc.opRenew(sc, dc, m.Lease, float64(m.HoldMillis)/1000)
		if rej != nil {
			return out, rej
		}
		return wire.AppendRenewResp(out, h.ID, &wire.RenewResp{Lease: lease.ID, TotalMillis: lease.TotalMillis(), ExpiresIn: secondsUntil(lease.ExpiresAt)}), nil
	case wire.OpPlace:
		var m wire.PlaceReq
		if m.Decode(payload) != nil {
			return out, badPayload
		}
		placed, rej := b.svc.opPlace(sc, dc, int(m.Replication), m.Writer, m.Flags&wire.PlaceFlagRelaxed != 0)
		if rej != nil {
			return out, rej
		}
		return wire.AppendPlaceResp(out, h.ID, &wire.PlaceResp{Generation: placed.Generation, Replicas: re.serverIDs(placed.Replicas)}), nil
	case wire.OpPlaceBlock:
		var m wire.PlaceBlockReq
		if m.Decode(payload) != nil {
			return out, badPayload
		}
		placed, rej := b.svc.opPlaceBlock(sc, dc, int(m.Replication), m.Writer, m.Flags&wire.PlaceFlagRelaxed != 0)
		if rej != nil {
			return out, rej
		}
		return wire.AppendPlaceBlockResp(out, h.ID, &wire.PlaceBlockResp{Generation: placed.Generation, Block: placed.Block, Replicas: re.serverIDs(placed.Replicas)}), nil
	case wire.OpReimage:
		var m wire.ReimageReq
		if m.Decode(payload) != nil {
			return out, badPayload
		}
		lost, pending, rej := b.svc.opReimage(dc, m.Server)
		if rej != nil {
			return out, rej
		}
		return wire.AppendReimageResp(out, h.ID, &wire.ReimageResp{Server: m.Server, Lost: uint32(lost), Pending: uint32(pending)}), nil
	case wire.OpClasses:
		var m wire.ClassesReq
		if m.Decode(payload) != nil {
			return out, badPayload
		}
		v, rej := b.svc.opClasses(dc)
		if rej != nil {
			return out, rej
		}
		re.classes = re.classes[:0]
		for _, cls := range v.snap.Clustering.Classes {
			re.classes = append(re.classes, v.rec(cls))
		}
		return wire.AppendClassesResp(out, h.ID, &wire.ClassesResp{Generation: v.snap.Generation, AsOfSeconds: v.snap.AsOf.Seconds(), Classes: re.classes}), nil
	case wire.OpServerClass:
		var m wire.ServerClassReq
		if m.Decode(payload) != nil {
			return out, badPayload
		}
		snap, rec, rej := b.svc.opServerClass(dc, m.Server)
		if rej != nil {
			return out, rej
		}
		return wire.AppendServerClassResp(out, h.ID, &wire.ServerClassResp{Generation: snap.Generation, Server: m.Server, Class: rec}), nil
	default:
		panic("service: request opcode " + h.Op.String() + " has no binary codec")
	}
}

// replyScratch is the slices a binary response message carries, kept with the
// connection's scratch so a reply costs no garbage.
type replyScratch struct {
	selectGrants  []wire.SelectGrant
	releaseGrants []wire.ReleaseGrant
	servers       []int64
	classes       []wire.ClassRec
}

// serverIDs is the wire form of a placement's replica servers.
func (re *replyScratch) serverIDs(servers []tenant.ServerID) []int64 {
	re.servers = re.servers[:0]
	for _, s := range servers {
		re.servers = append(re.servers, int64(s))
	}
	return re.servers
}

// secondsUntil is the wire form of an expiry: seconds from now, 0 for a lease
// that never expires.
func secondsUntil(t time.Time) float64 {
	if t.IsZero() {
		return 0
	}
	return time.Until(t).Seconds()
}

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
